/**
 * @file
 * vcc_sweep and sweep_sharded: the Figure 11(b)/12 sweep through
 * SweepRunner::run on the 13-point standard grid, all nine workload
 * categories, baseline and IRAW machines.  sweep_sharded runs the
 * same inputs through a RunnerConfig carrying a ServiceSession, so
 * the forked-worker executor is priced on exactly the work the
 * in-process executor does.  Each round also attempts the
 * fill-buffer known-fault probes (fillBufferFaultRuns), untimed.
 */

#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>

#include "harness.hh"
#include "service/supervisor.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mechanism::IrawMode;

/** Grid points the serial reference re-simulates: one with IRAW off
 *  on both machines, and three IRAW points below 600 mV. */
constexpr circuit::MilliVolts kReferenceVcc[] = {650.0, 575.0, 500.0,
                                                 400.0};

/** Paper anchors (Fig. 11(b) and Fig. 12). */
struct Anchor
{
    const char *metric;
    circuit::MilliVolts vcc;
    double paper;
};
constexpr Anchor kAnchors[] = {
    {"sim.freq_gap_500mv", 500.0, 1.57},
    {"sim.freq_gap_400mv", 400.0, 1.99},
    {"sim.speedup_gap_500mv", 500.0, 1.48},
    {"sim.speedup_gap_400mv", 400.0, 1.90},
    {"sim.edp_gap_500mv", 500.0, 0.61},
    {"sim.edp_gap_450mv", 450.0, 0.41},
    {"sim.edp_gap_400mv", 400.0, 0.33},
};

/** Suite fold of one machine, written out here so the reference
 *  does not go through the runner it checks. */
sim::MachineAtVcc
foldMachine(circuit::MilliVolts vcc,
            const std::vector<sim::SimResult> &runs)
{
    sim::MachineAtVcc m;
    m.vcc = vcc;
    for (const sim::SimResult &r : runs) {
        m.irawEnabled = r.settings.enabled;
        m.stabilizationCycles = r.settings.stabilizationCycles;
        m.cycleTimeAu = r.cycleTimeAu;
        m.instructions += r.pipeline.committedInsts;
        m.cycles += r.pipeline.cycles;
        m.execTimeAu += r.execTimeAu;
        m.rfIrawStalls += r.pipeline.rfIrawStallCycles;
        m.iqGateStalls += r.pipeline.iqGateStallCycles;
        m.dl0IrawStalls +=
            r.pipeline.dl0ReplayStallCycles + r.dl0GuardStalls;
        m.otherIrawStalls += r.otherGuardStalls;
        m.rfIrawDelayedInsts += r.pipeline.rfIrawDelayedInsts;
    }
    m.ipc = m.cycles ? static_cast<double>(m.instructions) / m.cycles
                     : 0.0;
    return m;
}

/** Every simulated field of a machine, bit patterns for doubles. */
std::vector<uint64_t>
machineBits(const sim::MachineAtVcc &m)
{
    return {m.irawEnabled,   m.stabilizationCycles,
            bits(m.cycleTimeAu), m.instructions,
            m.cycles,        bits(m.execTimeAu),
            bits(m.ipc),     m.rfIrawStalls,
            m.iqGateStalls,  m.dl0IrawStalls,
            m.otherIrawStalls, m.rfIrawDelayedInsts};
}

bool
closeRel(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a),
                                               std::fabs(b));
}

class VccSweepWorkload : public Workload
{
  public:
    VccSweepWorkload(const Options &opts, bool sharded)
        : Workload(opts), _sharded(sharded),
          _grid(circuit::standardSweep())
    {
        makeSuite(trace::profileNames(), kTracesPerCategory);
        _probes = fillBufferFaultRuns();
    }

    uint64_t
    opsPerRound() const override
    {
        return 2 * _grid.size() * _suite.size();
    }

    void
    simulate(Env &env) override
    {
        sim::RunnerConfig rc = env.runner;
        std::shared_ptr<service::ServiceSession> session;
        if (_sharded) {
            service::ServiceConfig sc;
            sc.workers = benchThreads();
            sc.spoolDir = _opts.workDir + "/spool/" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(_rounds);
            fs::remove_all(sc.spoolDir);
            _spoolDir = sc.spoolDir;
            session = std::make_shared<service::ServiceSession>(sc);
            if (env.telemetry)
                session->setTelemetry(env.telemetry);
            rc.service = session;
        }
        _rows = sim::SweepRunner(*env.sim, rc).run(sweepConfig());
        ++_rounds;
        if (session)
            _service = session->stats();
    }

    void
    cleanup() override
    {
        if (_spoolDir.empty())
            return;
        uint64_t bytes = 0;
        for (const auto &e : fs::recursive_directory_iterator(_spoolDir))
            if (e.is_regular_file())
                bytes += e.file_size();
        _spoolMb = static_cast<double>(bytes) / 1e6;
        fs::remove_all(_spoolDir);
        _spoolDir.clear();
    }

    uint64_t
    deliveredInsts() const override
    {
        uint64_t insts = 0;
        for (const sim::SweepRow &row : _rows)
            insts += row.baseline.instructions + row.iraw.instructions;
        return insts + opsPerRound() * kWarmupInsts;
    }

    void
    check(CheckLog &log) override
    {
        if (_first.empty()) {
            computeReference();
            _first = _rows;
            _firstService = _service;
            checkRows(_rows, _service, log);
            return;
        }
        for (size_t i = 0; i < _rows.size(); ++i) {
            if (machineBits(_rows[i].baseline) !=
                    machineBits(_first[i].baseline) ||
                machineBits(_rows[i].iraw) !=
                    machineBits(_first[i].iraw) ||
                bits(_rows[i].relativeEdp) !=
                    bits(_first[i].relativeEdp))
                log.fail(rowOp(i), 2 * _suite.size(),
                         "row " + std::to_string(i) +
                             " differs from round 1");
        }
        checkService(_service, log);
    }

    std::vector<std::string>
    selfTest() override
    {
        std::vector<std::string> missed;
        auto expectCaught = [&](const std::vector<sim::SweepRow> &rows,
                                const service::ServiceStats &svc,
                                const std::string &what) {
            CheckLog log;
            checkRows(rows, svc, log);
            if (log.failedOps() == 0)
                missed.push_back(what);
        };
        const size_t at500 = gridIndex(500.0);
        const size_t at400 = gridIndex(400.0);
        {
            std::vector<sim::SweepRow> rows = _first;
            rows[at500].baseline.cycles += 1;
            expectCaught(rows, _firstService,
                         "baseline cycle count off by one at 500 mV");
        }
        {
            std::vector<sim::SweepRow> rows = _first;
            std::swap(rows[at500].iraw, rows[at400].iraw);
            expectCaught(rows, _firstService,
                         "IRAW machines of 500 and 400 mV swapped");
        }
        {
            std::vector<sim::SweepRow> rows = _first;
            rows[at500].iraw.rfIrawStalls = rows[at500].iraw.cycles + 1;
            expectCaught(rows, _firstService,
                         "IRAW stall cycles above the cycles");
        }
        if (_sharded) {
            service::ServiceStats svc = _firstService;
            svc.shardsFailed = 1;
            svc.failedShards = {"corrupted"};
            expectCaught(_first, svc, "service reports a failed shard");
        }
        return missed;
    }

    std::vector<sim::SimConfig>
    layerPoints() const override
    {
        std::vector<sim::SimConfig> points;
        for (circuit::MilliVolts vcc : {500.0, 400.0})
            for (const sim::SuiteEntry &entry : _suite)
                points.push_back(configFor(entry, vcc, IrawMode::Auto));
        return points;
    }

    void
    layerMetrics(Metrics &out) override
    {
        for (const Anchor &a : kAnchors) {
            const sim::SweepRow &row = _rows[gridIndex(a.vcc)];
            double simulated = row.relativeEdp;
            if (std::string(a.metric).find("freq") != std::string::npos)
                simulated = row.frequencyGain;
            else if (std::string(a.metric).find("speedup") !=
                     std::string::npos)
                simulated = row.speedup;
            out[a.metric] = std::fabs(simulated - a.paper) / a.paper;
            std::cout << "  anchor " << a.metric << ": simulated "
                      << simulated << ", paper " << a.paper << "\n";
        }
        if (_sharded) {
            out["service.launches"] =
                static_cast<double>(_service.launches);
            out["service.records"] =
                static_cast<double>(_service.records);
            out["service.retries"] =
                static_cast<double>(_service.retries);
            out["service.spool_mb"] = _spoolMb;
        }
    }

    void
    traceExtras(double untracedSimSeconds, Metrics &out) override
    {
        if (!_sharded)
            return;
        // The in-process executor on the same inputs: the base of
        // service.overhead_frac.  Rounds of the same size as the
        // sharded ones, median of three.
        std::vector<double> local;
        for (int i = 0; i < 3; ++i) {
            sim::Simulator simulator;
            auto store = std::make_shared<trace::TraceStore>();
            simulator.setTraceStore(store);
            Env env;
            env.store = store;
            Workload::setup(env);
            sim::RunnerConfig rc;
            rc.threads = benchThreads();
            const double start = now();
            sim::SweepRunner(simulator, rc).run(sweepConfig());
            local.push_back(now() - start);
        }
        out["service.overhead_frac"] =
            untracedSimSeconds / median(local) - 1.0;
    }

  private:
    sim::SweepConfig
    sweepConfig() const
    {
        sim::SweepConfig cfg;
        cfg.suite = _suite;
        cfg.voltages = _grid;
        cfg.warmupInstructions = kWarmupInsts;
        return cfg;
    }

    size_t
    gridIndex(circuit::MilliVolts vcc) const
    {
        for (size_t i = 0; i < _grid.size(); ++i)
            if (_grid[i] == vcc)
                return i;
        throw FatalError("standard grid lacks " + std::to_string(vcc));
    }

    /** First operation of row @p i (its baseline machine). */
    size_t
    rowOp(size_t i) const
    {
        return i * 2 * _suite.size();
    }

    /** Serial Simulator::run without a trace store at the reference
     *  points, both machines, folded per machine. */
    void
    computeReference()
    {
        sim::Simulator plain;
        std::vector<sim::SimConfig> configs;
        for (circuit::MilliVolts vcc : kReferenceVcc)
            for (IrawMode mode : {IrawMode::ForcedOff, IrawMode::Auto})
                for (const sim::SuiteEntry &entry : _suite)
                    configs.push_back(configFor(entry, vcc, mode));
        std::vector<sim::SimResult> runs =
            runEach(plain, configs);
        const size_t s = _suite.size();
        size_t at = 0;
        for (circuit::MilliVolts vcc : kReferenceVcc) {
            std::array<sim::MachineAtVcc, 2> machines;
            for (sim::MachineAtVcc &m : machines) {
                m = foldMachine(vcc, {runs.begin() + at,
                                      runs.begin() + at + s});
                at += s;
            }
            _reference[gridIndex(vcc)] = machines;
        }
    }

    void
    checkService(const service::ServiceStats &svc, CheckLog &log) const
    {
        if (_sharded && svc.shardsFailed > 0)
            log.fail(0, opsPerRound(),
                     "service reports " +
                         std::to_string(svc.shardsFailed) +
                         " failed shard(s)");
    }

    /** Every check of one round's rows (pure: no simulation). */
    void
    checkRows(const std::vector<sim::SweepRow> &rows,
              const service::ServiceStats &svc, CheckLog &log) const
    {
        checkService(svc, log);
        const size_t s = _suite.size();
        if (rows.size() != _grid.size()) {
            log.fail(0, opsPerRound(), "sweep returned wrong row count");
            return;
        }
        const uint64_t budget = s * kMeasuredInsts;
        for (size_t i = 0; i < rows.size(); ++i) {
            const sim::SweepRow &row = rows[i];
            const std::string at =
                std::to_string(static_cast<int>(row.vcc)) + " mV: ";
            const sim::MachineAtVcc *machines[2] = {&row.baseline,
                                                    &row.iraw};
            for (size_t k = 0; k < 2; ++k) {
                const sim::MachineAtVcc &m = *machines[k];
                const size_t op = rowOp(i) + k * s;
                if (m.instructions != budget)
                    log.fail(op, s, at + "budget not committed");
                if (m.rfIrawStalls + m.iqGateStalls + m.dl0IrawStalls +
                        m.otherIrawStalls >
                    m.cycles)
                    log.fail(op, s, at + "IRAW stalls exceed cycles");
                auto ref = _reference.find(i);
                if (ref != _reference.end() &&
                    machineBits(m) != machineBits(ref->second[k]))
                    log.fail(op, s,
                             at + "differs from the serial reference");
            }
            if (row.vcc != _grid[i])
                log.fail(rowOp(i), 2 * s, at + "row out of grid order");
            if (!row.iraw.irawEnabled &&
                (machineBits(row.iraw) != machineBits(row.baseline) ||
                 row.speedup != 1.0))
                log.fail(rowOp(i), 2 * s,
                         at + "IRAW off but machines differ");
            if (row.frequencyGain !=
                row.baseline.cycleTimeAu / row.iraw.cycleTimeAu)
                log.fail(rowOp(i), 2 * s,
                         at + "frequency gain != cycle-time ratio");
            if (i > 0 && row.frequencyGain < rows[i - 1].frequencyGain)
                log.fail(rowOp(i), 2 * s,
                         at + "frequency gain falls as Vcc falls");
            if (!closeRel(row.speedup, row.iraw.performance() /
                                           row.baseline.performance()))
                log.fail(rowOp(i), 2 * s,
                         at + "speedup != performance ratio");
            if (!closeRel(row.relativeEdp,
                          row.relativeEnergy * row.relativeDelay))
                log.fail(rowOp(i), 2 * s,
                         at + "EDP != energy x delay");
        }
    }

    bool _sharded;
    std::vector<circuit::MilliVolts> _grid;
    std::vector<sim::SweepRow> _rows;
    std::vector<sim::SweepRow> _first;
    std::map<size_t, std::array<sim::MachineAtVcc, 2>> _reference;
    service::ServiceStats _service;
    service::ServiceStats _firstService;
    std::string _spoolDir;
    double _spoolMb = 0.0;
    uint64_t _rounds = 0;
};

} // namespace

std::unique_ptr<Workload>
makeVccSweep(const Options &opts, bool sharded)
{
    return std::make_unique<VccSweepWorkload>(opts, sharded);
}

} // namespace perfbench
