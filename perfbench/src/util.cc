#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "harness.hh"
#include "sim/simulation.hh"
#include "trace/workload.hh"

namespace perfbench {

namespace {

/** Traces on which the baseline machine panics in the fill buffer,
 *  each with one standard-grid point where it does (40k warm-up +
 *  60k measured instructions). */
struct FaultRun
{
    const char *workload;
    uint64_t seed;
    circuit::MilliVolts vcc;
};
const FaultRun kFillBufferFaults[] = {
    {"spec2006int", 12, 525.0},
    {"workstation", 14, 625.0},
    {"server", 24, 500.0},
};

} // namespace

std::vector<MetricSpec>
loadMetricTable(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw FatalError("cannot read the metric table " + path);
    std::vector<MetricSpec> table;
    std::string kind;
    MetricSpec m;
    while (in >> kind >> m.name >> m.unit) {
        if (kind != "end_to_end" && kind != "per_layer")
            throw FatalError("metric table " + path + ": bad kind '" +
                             kind + "'");
        m.endToEnd = kind == "end_to_end";
        table.push_back(m);
    }
    if (table.empty())
        throw FatalError("metric table " + path + " is empty");
    return table;
}

unsigned
benchThreads()
{
    return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // SplitMix64 finalizer over (seed, stream).
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream +
                 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    struct rusage self = {};
    struct rusage children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(
               std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

uint64_t
bits(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

std::vector<sim::SimResult>
runEach(const sim::Simulator &sim,
        const std::vector<sim::SimConfig> &configs)
{
    const unsigned threads = benchThreads();
    std::vector<sim::SimResult> results(configs.size());
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;
    auto worker = [&] {
        try {
            for (size_t i = next++; i < configs.size(); i = next++)
                results[i] = sim.run(configs[i]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads && t < configs.size(); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return results;
}

Span::Span(obs::EventTracer *tracer, std::string name)
    : _tracer(tracer), _name(std::move(name)),
      _startUs(tracer ? tracer->nowUs() : 0)
{}

Span::~Span()
{
    if (_tracer)
        _tracer->complete(_name, "harness", _startUs,
                          _tracer->nowUs() - _startUs);
}

void
CheckLog::fail(size_t first, size_t count, const std::string &why)
{
    for (size_t i = first; i < first + count; ++i)
        _ops.insert(i);
    _messages.push_back(why);
}

void
CheckLog::merge(const CheckLog &other)
{
    _ops.insert(other._ops.begin(), other._ops.end());
}

void
CheckLog::failMethod(const std::string &why)
{
    _method.push_back(why);
    _messages.push_back(why);
}

void
Workload::setup(Env &env)
{
    const uint64_t length = trace::replayLength(
        kWarmupInsts + kMeasuredInsts, core::CoreConfig{}.iqEntries);
    const double start = now();
    for (const sim::SuiteEntry &entry : _suite) {
        trace::TraceBufferPtr buffer = env.store->acquireSynthetic(
            trace::profileByName(entry.workload), entry.seed, length);
        env.materializedOps += buffer->records();
    }
    env.materializeSeconds = now() - start;
}

std::vector<sim::SimConfig>
fillBufferFaultRuns()
{
    std::vector<sim::SimConfig> runs;
    for (const FaultRun &f : kFillBufferFaults) {
        sim::SimConfig sc;
        sc.workload = f.workload;
        sc.seed = f.seed;
        sc.instructions = kMeasuredInsts;
        sc.warmupInstructions = kWarmupInsts;
        sc.vcc = f.vcc;
        sc.mode = mechanism::IrawMode::ForcedOff;
        runs.push_back(sc);
    }
    return runs;
}

void
runProbes(const std::vector<sim::SimConfig> &configs, size_t firstOp,
          CheckLog &log)
{
    const sim::Simulator simulator;
    for (size_t i = 0; i < configs.size(); ++i) {
        const sim::SimConfig &sc = configs[i];
        const std::string run = sc.workload + " seed " +
                                std::to_string(sc.seed) + " @ " +
                                std::to_string(static_cast<int>(sc.vcc)) +
                                " mV";
        try {
            const uint64_t committed =
                simulator.run(sc).pipeline.committedInsts;
            if (committed != sc.instructions)
                log.fail(firstOp + i, 1,
                         run + ": measured window committed " +
                             std::to_string(committed) + " of " +
                             std::to_string(sc.instructions));
        } catch (const std::exception &e) {
            log.fail(firstOp + i, 1, run + ": " + e.what());
        }
    }
}

void
Workload::makeSuite(const std::vector<std::string> &categories,
                    size_t perCategory)
{
    _suite.clear();
    for (size_t i = 0; i < categories.size(); ++i) {
        // A seeded partial shuffle: perCategory distinct traces.
        std::vector<uint64_t> pool;
        for (uint64_t seed = 1; seed <= kSeedPool; ++seed)
            if (std::none_of(std::begin(kFillBufferFaults),
                             std::end(kFillBufferFaults),
                             [&](const FaultRun &f) {
                                 return f.workload == categories[i] &&
                                        f.seed == seed;
                             }))
                pool.push_back(seed);
        for (size_t k = 0; k < perCategory && k < pool.size(); ++k) {
            const uint64_t r = deriveSeed(_opts.seed, i * 64 + k);
            std::swap(pool[k], pool[k + r % (pool.size() - k)]);
            _suite.emplace_back(categories[i], pool[k], kMeasuredInsts);
        }
    }
}

sim::SimConfig
Workload::configFor(const sim::SuiteEntry &entry,
                    circuit::MilliVolts vcc,
                    mechanism::IrawMode mode) const
{
    sim::SimConfig sc;
    sc.workload = entry.workload;
    sc.seed = entry.seed;
    sc.instructions = entry.instructions;
    sc.warmupInstructions = kWarmupInsts;
    sc.vcc = vcc;
    sc.mode = mode;
    return sc;
}

} // namespace perfbench
