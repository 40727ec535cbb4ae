/**
 * @file
 * The benchmark's entry point:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --metrics <file> [--work-dir <dir>] [--out <file>]
 *             [--git-sha <sha>] [--argv <command line>]
 *
 * Runs whole rounds of one workload until the timed set-up and
 * simulation phases have taken --seconds, checks every round, and
 * prints one JSON object as the last line of stdout:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics (medians over rounds);
 * --trace 1 spends half the time on untraced and half on traced
 * rounds, then runs the layer replays, and reports the per-layer
 * metrics.  Names and units come from the --metrics table (run.py
 * writes it from BENCHMARK.json).  A result file with full provenance
 * is written to --out (default
 * <work-dir>/results/<workload>-seed<n>-trace<t>.json).
 *
 * A round whose simulation phase throws (a simulator panic) counts all
 * of its operations as failed; the run goes on and still prints its
 * result.
 */

#include <sys/utsname.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "circuit/voltage.hh"
#include "common/logging.hh"
#include "harness.hh"
#include "sim/simulation.hh"
#include "trace/workload.hh"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

const char *const kWorkloads[] = {"vcc_sweep", "chip_population",
                                  "adapt_powercap", "sweep_sharded"};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <vcc_sweep|chip_population|"
                 "adapt_powercap|sweep_sharded> --seed <n> "
                 "--seconds <s> --trace <0|1> --metrics <file> "
                 "[--work-dir <dir>] [--out <file>]\n";
    std::exit(2);
}

uint64_t
parseUint(const std::string &key, const std::string &text)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        usage(key + " needs a whole number, got '" + text + "'");
    }
    if (used != text.size() || text[0] == '-')
        usage(key + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(key + " needs a value");
        const std::string val = argv[++i];
        if (key == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            o.seed = parseUint(key, val);
            haveSeed = true;
        } else if (key == "--seconds") {
            o.seconds = static_cast<double>(parseUint(key, val));
            haveSeconds = true;
        } else if (key == "--trace") {
            const uint64_t t = parseUint(key, val);
            if (t > 1)
                usage("--trace is 0 or 1");
            o.trace = t == 1;
            haveTrace = true;
        } else if (key == "--metrics") {
            o.metricsPath = val;
        } else if (key == "--work-dir") {
            o.workDir = val;
        } else if (key == "--out") {
            o.out = val;
        } else if (key == "--git-sha") {
            o.gitSha = val;
        } else if (key == "--argv") {
            o.argv = val;
        } else {
            usage("unknown option " + key);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        o.metricsPath.empty())
        usage("--workload, --seed, --seconds, --trace and --metrics are "
              "required");
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads))
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds < 1 || o.seconds > 600)
        usage("--seconds must be in [1, 600]");
    if (o.argv.empty())
        for (int i = 0; i < argc; ++i)
            o.argv += (i ? " " : "") + std::string(argv[i]);
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "vcc_sweep")
        return makeVccSweep(o, false);
    if (o.workload == "sweep_sharded")
        return makeVccSweep(o, true);
    if (o.workload == "chip_population")
        return makeChipPopulation(o);
    return makeAdaptPowercap(o);
}

/** Timings of one round. */
struct RoundTimes
{
    /** The simulation phase ran to its end (no panic). */
    bool ok = true;
    double setup = 0.0;
    double simulate = 0.0;
    uint64_t delivered = 0;
    /** Traced rounds: runs the runner simulated (dedup aliases
     *  excluded) and their summed host time, from its telemetry. */
    uint64_t simulatedRuns = 0;
    double runHostSeconds = 0.0;
    double cpuSimulate = 0.0;
};

double
cpuNow()
{
    struct timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** A runner counter of the round's telemetry session (0 untraced). */
uint64_t
counterOf(const Env &env, const char *group, const char *name)
{
    return env.telemetry
               ? env.telemetry->metrics().counter(group, name).value()
               : 0;
}

/** Everything a run accumulates over its rounds. */
struct RunState
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool methodOk = true;
    std::vector<std::string> messages;
    std::vector<std::string> selfTestMisses{
        "no round completed, so the checks were never exercised"};
    bool selfTested = false;
    /** Rounds whose simulation phase ran to its end. */
    uint64_t rounds = 0;
    CheckLog firstRound;
};

/**
 * One round: set-up and simulation timed, then the (untimed) checks.
 * @p keep receives the round's environment when non-null (the traced
 * phase keeps its last one for the layer replays).
 */
RoundTimes
runRound(Workload &workload, RunState &state,
         const std::shared_ptr<obs::TelemetrySession> &telemetry,
         Env *keep)
{
    Env env;
    env.telemetry = telemetry;
    env.tracer = telemetry ? telemetry->tracer().get() : nullptr;
    RoundTimes t;
    const double t0 = now();
    {
        Span span(env.tracer, "setup");
        {
            Span inner(env.tracer, "setup.simulator");
            env.sim = std::make_unique<sim::Simulator>();
            env.store = std::make_shared<trace::TraceStore>();
            if (telemetry)
                env.store->setTracer(telemetry->tracer());
            env.sim->setTraceStore(env.store);
        }
        Span inner(env.tracer, "setup.inputs");
        workload.setup(env);
    }
    const uint64_t configs0 = counterOf(env, "runner", "configs");
    const uint64_t wallNs0 = counterOf(env, "perf", "sim_wall_ns");
    const double t1 = now();
    const double c1 = cpuNow();
    std::string panic;
    {
        Span span(env.tracer, "simulate");
        env.runner.threads = benchThreads();
        env.runner.telemetry = telemetry;
        try {
            workload.simulate(env);
        } catch (const std::exception &e) {
            panic = e.what();
        }
    }
    const double t2 = now();
    t.cpuSimulate = cpuNow() - c1;
    t.setup = t1 - t0;
    t.simulate = t2 - t1;
    t.delivered = workload.deliveredInsts();
    t.simulatedRuns = counterOf(env, "runner", "configs") - configs0;
    t.runHostSeconds =
        static_cast<double>(counterOf(env, "perf", "sim_wall_ns") -
                            wallNs0) *
        1e-9;

    Span span(env.tracer, "check");
    workload.cleanup();
    const uint64_t ops = workload.opsPerRound();
    state.attempted += ops + workload.probes().size();
    CheckLog log;
    runProbes(workload.probes(), ops, log);
    if (!panic.empty()) {
        // The round returned nothing to check: every operation failed.
        t.ok = false;
        log.fail(0, ops, "simulation phase threw: " + panic);
    } else {
        // Later rounds are checked against round 1 bit for bit, so
        // they inherit its verdicts: an operation that failed there
        // fails in every identical round.
        workload.check(log);
        if (state.rounds == 0)
            state.firstRound = log;
        else
            log.merge(state.firstRound);
        ++state.rounds;
    }
    state.failed += log.failedOps();
    state.methodOk = state.methodOk && !log.methodFailed();
    for (const std::string &m : log.messages())
        if (state.messages.size() < 20 &&
            std::find(state.messages.begin(), state.messages.end(), m) ==
                state.messages.end())
            state.messages.push_back(m);
    if (state.rounds > 0 && !state.selfTested) {
        state.selfTested = true;
        state.selfTestMisses = workload.selfTest();
    }
    if (keep)
        *keep = std::move(env);
    return t;
}

/** Rounds until their timed phases add up to @p seconds (at least
 *  @p minRounds). */
std::vector<RoundTimes>
runRounds(Workload &workload, RunState &state,
          double seconds, unsigned minRounds,
          const std::shared_ptr<obs::TelemetrySession> &telemetry = {},
          Env *keep = nullptr)
{
    std::vector<RoundTimes> rounds;
    double timed = 0.0;
    while (rounds.size() < minRounds || timed < seconds) {
        rounds.push_back(runRound(workload, state, telemetry, keep));
        timed += rounds.back().setup + rounds.back().simulate;
    }
    return rounds;
}

struct Medians
{
    double setup = 0.0;
    double simulate = 0.0;
    double total = 0.0;
    double minsts = 0.0;
};

Medians
mediansOf(const std::vector<RoundTimes> &rounds)
{
    std::vector<double> setup, simulate, total, minsts;
    for (const RoundTimes &r : rounds) {
        if (!r.ok)
            continue;
        setup.push_back(r.setup);
        simulate.push_back(r.simulate);
        total.push_back(r.setup + r.simulate);
        minsts.push_back(static_cast<double>(r.delivered) / 1e6 /
                         r.simulate);
    }
    return {median(setup), median(simulate), median(total),
            median(minsts)};
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** A reported metric: its table entry and value. */
using Reported = std::vector<std::pair<MetricSpec, double>>;

/**
 * The metrics of the table's end-to-end (untraced) or per-layer
 * (traced) block, in table order.  An end-to-end metric the harness
 * does not measure is an error; a per-layer metric the workload does
 * not exercise reads 0 and is named on stderr.
 */
Reported
reportedMetrics(const std::vector<MetricSpec> &table, bool traced,
                const Metrics &measured)
{
    Reported out;
    std::string bypassed;
    for (const MetricSpec &spec : table) {
        if (spec.endToEnd == traced)
            continue;
        auto it = measured.find(spec.name);
        if (it == measured.end() && !traced)
            throw FatalError("end-to-end metric '" + spec.name +
                             "' is not measured by the harness");
        if (it == measured.end())
            bypassed += " " + spec.name;
        out.emplace_back(spec, it == measured.end() ? 0.0 : it->second);
    }
    if (!bypassed.empty())
        std::cerr << "perfbench: not exercised on this workload, "
                     "reported as 0:"
                  << bypassed << "\n";
    for (const auto &entry : measured)
        if (std::none_of(table.begin(), table.end(),
                         [&](const MetricSpec &m) {
                             return m.name == entry.first;
                         }))
            std::cerr << "perfbench: " << entry.first
                      << " is measured but not in the metric table\n";
    return out;
}

std::string
metricsJson(const Reported &metrics)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[spec, value] : metrics) {
        os << (first ? "" : ", ") << obs::jsonQuote(spec.name)
           << ": {\"value\": " << num(value)
           << ", \"unit\": " << obs::jsonQuote(spec.unit) << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

std::string
roundsJson(const std::vector<RoundTimes> &rounds)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < rounds.size(); ++i)
        os << (i ? ", " : "") << "{\"setup_s\": " << num(rounds[i].setup)
           << ", \"simulate_s\": " << num(rounds[i].simulate)
           << ", \"cpu_simulate_s\": " << num(rounds[i].cpuSimulate)
           << ", \"delivered_insts\": " << rounds[i].delivered << "}";
    os << "]";
    return os.str();
}

std::string
provenanceJson(const Options &o)
{
    struct utsname host = {};
    uname(&host);
    std::ostringstream os;
    os << "{\"git_sha\": " << obs::jsonQuote(o.gitSha)
       << ", \"argv\": " << obs::jsonQuote(o.argv)
       << ", \"build_type\": " << obs::jsonQuote(PB_BUILD_TYPE)
       << ", \"cxx_flags\": " << obs::jsonQuote(PB_CXX_FLAGS)
       << ", \"compiler\": " << obs::jsonQuote(PB_COMPILER)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"threads\": " << benchThreads()
       << ", \"host\": " << obs::jsonQuote(host.nodename)
       << ", \"kernel\": " << obs::jsonQuote(host.release)
       << ", \"workload\": " << obs::jsonQuote(o.workload)
       << ", \"seed\": " << o.seed << ", \"seconds\": " << num(o.seconds)
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"warmup_insts\": " << kWarmupInsts
       << ", \"measured_insts\": " << kMeasuredInsts << "}";
    return os.str();
}

int
run(const Options &opts)
{
    const std::vector<MetricSpec> table = loadMetricTable(opts.metricsPath);
    std::unique_ptr<Workload> workload = makeWorkload(opts);
    RunState state;
    Metrics metrics;
    std::vector<RoundTimes> untraced, traced;
    if (!opts.trace) {
        untraced = runRounds(*workload, state, opts.seconds, 3);
        const Medians m = mediansOf(untraced);
        metrics["setup_s"] = m.setup;
        metrics["total_s"] = m.total;
        metrics["minsts_per_s"] = m.minsts;
        metrics["peak_rss_mb"] = peakRssMb();
    } else {
        fs::create_directories(opts.workDir + "/traces");
        obs::TelemetryConfig tc;
        tc.chromeTracePath = opts.workDir + "/traces/" + opts.workload +
                             "-seed" + std::to_string(opts.seed) +
                             ".json";
        auto telemetry = std::make_shared<obs::TelemetrySession>(tc);
        untraced = runRounds(*workload, state, opts.seconds / 2, 2);
        Env last;
        traced = runRounds(*workload, state, opts.seconds / 2, 2,
                           telemetry, &last);
        const Medians u = mediansOf(untraced);
        const Medians t = mediansOf(traced);
        if (state.rounds > 0) {
            measureLayers(last, *workload, metrics);
            workload->layerMetrics(metrics);
            workload->traceExtras(u.simulate, metrics);
            // Runner layer, from the last traced round's telemetry.
            const RoundTimes &lr = traced.back();
            const double delivered =
                static_cast<double>(workload->opsPerRound());
            metrics["sim.runs_delivered"] = delivered;
            metrics["sim.runs_simulated"] =
                static_cast<double>(lr.simulatedRuns);
            metrics["sim.dedup_frac"] =
                1.0 - static_cast<double>(lr.simulatedRuns) / delivered;
            metrics["sim.pool_busy_frac"] =
                lr.runHostSeconds / (benchThreads() * lr.simulate);
            metrics["obs.tracing_overhead_frac"] = t.total / u.total - 1.0;
        }
        if (!telemetry->writeChromeTrace())
            std::cerr << "perfbench: could not write "
                      << tc.chromeTracePath << "\n";
    }

    const Reported reported = reportedMetrics(table, opts.trace, metrics);
    const bool selfTestOk = state.selfTestMisses.empty();
    const bool correct = state.methodOk && selfTestOk;
    for (const std::string &m : state.messages)
        std::cerr << "perfbench: check failed: " << m << "\n";
    for (const std::string &m : state.selfTestMisses)
        std::cerr << "perfbench: self-test corruption not caught: " << m
                  << "\n";

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << state.attempted
           << ", \"failed\": " << state.failed
           << ", \"metrics\": " << metricsJson(reported) << "}";

    const std::string out =
        !opts.out.empty()
            ? opts.out
            : opts.workDir + "/results/" + opts.workload + "-seed" +
                  std::to_string(opts.seed) + "-trace" +
                  (opts.trace ? "1" : "0") + ".json";
    fs::path parent = fs::path(out).parent_path();
    if (!parent.empty())
        fs::create_directories(parent);
    std::ofstream file(out);
    file << "{\"provenance\": " << provenanceJson(opts)
         << ",\n \"self_test_ok\": " << (selfTestOk ? "true" : "false")
         << ",\n \"untraced_rounds\": " << roundsJson(untraced)
         << ",\n \"traced_rounds\": " << roundsJson(traced)
         << ",\n \"result\": " << result.str() << "}\n";
    if (!file)
        std::cerr << "perfbench: could not write " << out << "\n";

    std::cout << "workload " << opts.workload << " seed " << opts.seed
              << ": " << untraced.size() + traced.size()
              << " rounds, result file " << out << "\n";
    for (const auto &[spec, value] : reported)
        std::cout << "  " << spec.name << " = " << num(value) << " "
                  << spec.unit << "\n";
    std::cout << "  attempted " << state.attempted << ", failed "
              << state.failed << "\n";
    std::cout << result.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opts = perfbench::parseOptions(argc, argv);
    try {
        return perfbench::run(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
