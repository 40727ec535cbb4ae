/**
 * @file
 * The benchmark harness: four workloads that drive the iraw library
 * through its public entry points, time those calls from outside,
 * and check every result against an independent computation or a
 * property the method must have.
 *
 * One run of the harness executes whole *rounds* of one workload
 * until the requested measuring time has passed.  A round is
 *
 *   set-up     Simulator construction, TraceStore fill, chip draws
 *   simulate   the workload's sweep / population / adaptive waves
 *   check      (untimed) round 1 against the reference, later rounds
 *              against round 1
 *
 * and reports the median over rounds.  An operation is one
 * simulation run (one trace at one operating point); a round always
 * attempts the same operations, so the failed share of attempted
 * operations does not depend on how many rounds fit in a run.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/runner.hh"
#include "trace/trace_store.hh"

namespace perfbench {

using namespace iraw;

/** Host seconds on a monotonic clock. */
double now();

/** 64-bit mix of (seed, stream): the harness's only source of inputs. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** Trace seeds 1..kSeedPool are the candidates for every category. */
constexpr uint64_t kSeedPool = 24;

/** Worker threads and service workers: min(4, nproc). */
unsigned benchThreads();

/**
 * Runs that panic in the fill buffer ("allocate() with no free
 * entry"), one per faulting trace.  Seeded suites never draw these
 * traces, since a panic aborts the whole sweep and the failed share
 * of a run would then depend on its seed; the sweep workloads attempt
 * these runs every round instead (known-fault probes), so the fault
 * is counted in `failed` until the simulator is fixed.
 */
std::vector<sim::SimConfig> fillBufferFaultRuns();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Quantile @p q in [0, 1] by linear interpolation (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process and of its largest reaped
 *  child (a forked service worker), in MB. */
double peakRssMb();

/** Bit pattern of a double, for bit-for-bit comparisons. */
uint64_t bits(double d);

/** Run every config through Simulator::run, one run per call, on
 *  benchThreads() threads; results in input order. */
std::vector<sim::SimResult>
runEach(const sim::Simulator &sim,
        const std::vector<sim::SimConfig> &configs);

/** One metric of the benchmark's metric table (BENCHMARK.json). */
struct MetricSpec
{
    std::string name;
    std::string unit;
    bool endToEnd = false;
};

/** Read the metric table run.py writes from BENCHMARK.json: one
 *  metric per line, "end_to_end|per_layer <name> <unit>". */
std::vector<MetricSpec> loadMetricTable(const std::string &path);

/** Command-line settings of one harness run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The metric table (names and units of everything reported). */
    std::string metricsPath;
    /** Scratch root inside the checkout (spools, traces, results). */
    std::string workDir = ".bench_build";
    /** Result file; empty = <workDir>/results/<workload>-... */
    std::string out;
    std::string gitSha = "unknown";
    std::string argv;
};

/** Per-trace run length shared by every workload (the scenario
 *  defaults: 40k warm-up + 60k measured instructions). */
constexpr uint64_t kWarmupInsts = 40000;
constexpr uint64_t kMeasuredInsts = 60000;

/** Traces per workload category.  Host cost per simulated instruction
 *  differs by about 12% from one trace of a category to the next, so
 *  a round averages several to keep its cost nearly seed-independent. */
constexpr size_t kTracesPerCategory = 3;

/** State one round builds in set-up and drops at its end. */
struct Env
{
    std::unique_ptr<sim::Simulator> sim;
    std::shared_ptr<trace::TraceStore> store;
    /** Traced rounds only: the session attached to the runner. */
    std::shared_ptr<obs::TelemetrySession> telemetry;
    /** Runner settings for this round (threads, telemetry). */
    sim::RunnerConfig runner;
    /** Harness spans go here when tracing (null otherwise). */
    obs::EventTracer *tracer = nullptr;
    /** Seconds spent materializing traces in set-up. */
    double materializeSeconds = 0.0;
    /** Micro-ops materialized in set-up. */
    uint64_t materializedOps = 0;
};

/** RAII harness span on the round's tracer (no-op untraced). */
class Span
{
  public:
    Span(obs::EventTracer *tracer, std::string name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    obs::EventTracer *_tracer;
    std::string _name;
    uint64_t _startUs = 0;
};

/** What the checks found: failed operations and why. */
class CheckLog
{
  public:
    /** Mark operations [first, first + count) failed. */
    void fail(size_t first, size_t count, const std::string &why);
    /** A check on the method itself (not one operation) failed. */
    void failMethod(const std::string &why);
    /** Also fail every operation @p other failed. */
    void merge(const CheckLog &other);

    bool clean() const { return _ops.empty() && _method.empty(); }
    size_t failedOps() const { return _ops.size(); }
    bool failed(size_t op) const { return _ops.count(op) != 0; }
    bool methodFailed() const { return !_method.empty(); }
    const std::vector<std::string> &messages() const
    {
        return _messages;
    }

  private:
    std::set<size_t> _ops;
    std::vector<std::string> _method;
    std::vector<std::string> _messages;
};

/** Run each of @p configs on its own, catching a panic per run, and
 *  fail operation @p firstOp + i of @p log when run i panics or does
 *  not commit its budget. */
void runProbes(const std::vector<sim::SimConfig> &configs, size_t firstOp,
               CheckLog &log);

/** Per-layer metric values by name (trace mode). */
using Metrics = std::map<std::string, double>;

/**
 * One benchmark workload.  main.cc owns timing and reporting; a
 * workload owns its inputs, its simulation phase, its checks and its
 * corruption self-test.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Operations one round's simulation phase attempts. */
    virtual uint64_t opsPerRound() const = 0;

    /** Known-fault probes: fixed runs every round attempts after its
     *  checks, untimed, as operations opsPerRound() onwards. */
    const std::vector<sim::SimConfig> &probes() const { return _probes; }

    /**
     * Set-up beyond Simulator construction: fill the TraceStore with
     * every trace the round replays, draw chips.  Timed.
     */
    virtual void setup(Env &env);

    /** The simulation phase.  Timed. */
    virtual void simulate(Env &env) = 0;

    /** Simulated instructions the last round delivered (warm-up +
     *  measured, every returned result, aliases included). */
    virtual uint64_t deliveredInsts() const = 0;

    /**
     * Check the last round's results.  The first call computes and
     * caches the independent reference; later calls compare the
     * round bit for bit with the first.  Untimed.
     */
    virtual void check(CheckLog &log) = 0;

    /**
     * Feed deliberately corrupted copies of the first round's result
     * to the checks.  Returns one message per corruption the checks
     * let through (empty = every corruption caught).
     */
    virtual std::vector<std::string> selfTest() = 0;

    /** The workload's representative runs for the layer replays:
     *  one fixed-point config per (point, trace). */
    virtual std::vector<sim::SimConfig> layerPoints() const = 0;

    /** Workload-specific per-layer metrics (paper gaps, adapt,
     *  service) from the last round; default none. */
    virtual void layerMetrics(Metrics &out) { (void)out; }

    /** Untimed work after each round (spool removal); default none. */
    virtual void cleanup() {}

    /**
     * Extra passes trace mode makes after the traced rounds (the
     * in-process comparison of the sharded sweep, the fixed-Vcc
     * comparison of the adaptive runs).  @p untracedSimSeconds is
     * the median simulation time of the untraced rounds.
     */
    virtual void traceExtras(double untracedSimSeconds, Metrics &out)
    {
        (void)untracedSimSeconds;
        (void)out;
    }

    /** Every trace the workload replays. */
    const std::vector<sim::SuiteEntry> &suite() const { return _suite; }

  protected:
    explicit Workload(const Options &opts) : _opts(opts) {}

    /** @p perCategory distinct traces of each category, drawn by the
     *  run's seed from seeds 1..kSeedPool less fillBufferFaultRuns(). */
    void makeSuite(const std::vector<std::string> &categories,
                   size_t perCategory);

    /** A plain fixed-Vcc config of suite entry @p entry. */
    sim::SimConfig configFor(const sim::SuiteEntry &entry,
                             circuit::MilliVolts vcc,
                             mechanism::IrawMode mode) const;

    const Options &_opts;
    std::vector<sim::SuiteEntry> _suite;
    std::vector<sim::SimConfig> _probes;
};

std::unique_ptr<Workload> makeVccSweep(const Options &opts,
                                       bool sharded);
std::unique_ptr<Workload> makeChipPopulation(const Options &opts);
std::unique_ptr<Workload> makeAdaptPowercap(const Options &opts);

/**
 * The layer replays: trace, circuit, variation, memory, predictor
 * and core metrics, each driven through that layer's public calls
 * on the workload's own traces and timed from here.
 */
void measureLayers(Env &env, const Workload &workload, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
