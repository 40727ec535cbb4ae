/**
 * @file
 * Layer replays: each layer driven alone through its public calls on
 * the workload's own traces, timed from here.  The memory hierarchy
 * and the branch predictor get their own price apart from the core
 * (the NyuziProcessor membench idea: stream one layer's accesses
 * with nothing else in the loop).
 */

#include "harness.hh"
#include "isa/microop.hh"
#include "memory/hierarchy.hh"
#include "predictor/predictor_dispatch.hh"
#include "sim/simulation.hh"
#include "trace/workload.hh"
#include "variation/chip_sample.hh"

namespace perfbench {
namespace {

using mechanism::IrawMode;

/** Results of timed loops land here so the loops cannot be elided. */
volatile double gSink = 0.0;

/** Repeat @p body until it has run for @p minSeconds; returns
 *  seconds per call. */
template <typename Body>
double
timePerCall(double minSeconds, Body body)
{
    uint64_t calls = 0;
    const double start = now();
    double elapsed = 0.0;
    do {
        body();
        ++calls;
        elapsed = now() - start;
    } while (elapsed < minSeconds);
    return elapsed / static_cast<double>(calls);
}

trace::TraceBufferPtr
bufferFor(Env &env, const sim::SimConfig &cfg)
{
    return env.store->acquireSynthetic(
        trace::profileByName(cfg.workload), cfg.seed,
        trace::replayLength(cfg.warmupInstructions + cfg.instructions,
                            cfg.core.iqEntries));
}

/** The workload's fetch/load/store stream through one hierarchy at
 *  the config's operating point: one IL0 access per new fetch line,
 *  a load stalls the stream until its data is ready, a store does
 *  not.  Returns the accesses made. */
uint64_t
replayMemory(const sim::Simulator &sim, const sim::SimConfig &cfg,
             const trace::TraceBuffer &buffer)
{
    const mechanism::IrawSettings settings =
        sim.operatingPoint(cfg.vcc, cfg.mode);
    memory::MemoryHierarchy mem(cfg.mem);
    mem.setStabilizationCycles(
        settings.enabled ? settings.stabilizationCycles : 0);
    mem.setDramLatencyCycles(sim::Simulator::dramCyclesAt(
        settings.cycleTime, cfg.mem.dramLatencyNs));
    const uint32_t lineShift = static_cast<uint32_t>(
        __builtin_ctz(cfg.mem.il0.lineBytes));
    uint64_t accesses = 0;
    uint64_t lastLine = ~0ull;
    memory::Cycle cycle = 0;
    const isa::MicroOp *ops = buffer.ops();
    for (uint64_t i = 0; i < buffer.records(); ++i) {
        const isa::MicroOp &op = ops[i];
        ++cycle;
        if ((op.pc >> lineShift) != lastLine) {
            lastLine = op.pc >> lineShift;
            cycle = std::max(cycle, mem.instFetch(op.pc, cycle).readyCycle);
            ++accesses;
        }
        if (op.isLoad()) {
            cycle =
                std::max(cycle, mem.dataLoad(op.memAddr, cycle).readyCycle);
            ++accesses;
        } else if (op.isStore()) {
            mem.dataStore(op.memAddr, cycle);
            ++accesses;
        }
    }
    return accesses;
}

/** The workload's conditional branches through the core's predictor
 *  configuration.  Returns the branches replayed. */
uint64_t
replayPredictor(const sim::SimConfig &cfg,
                const trace::TraceBuffer &buffer)
{
    predictor::InlinePredictor bp(cfg.core.predictorKind,
                                  cfg.core.predictorEntries,
                                  cfg.core.predictorHistoryBits);
    uint64_t branches = 0;
    uint64_t sink = 0;
    const isa::MicroOp *ops = buffer.ops();
    for (uint64_t i = 0; i < buffer.records(); ++i) {
        if (ops[i].opClass != isa::OpClass::Branch)
            continue;
        sink += bp.predictAndTrain(ops[i].pc, ops[i].taken).index;
        ++branches;
    }
    gSink = gSink + static_cast<double>(sink);
    return branches;
}

} // namespace

void
measureLayers(Env &env, const Workload &workload, Metrics &out)
{
    const sim::Simulator &sim = *env.sim;
    const std::vector<sim::SimConfig> points = workload.layerPoints();

    // trace: the round's set-up fill, and the store's accounting.
    const trace::TraceStore::Stats ts = env.store->stats();
    out["trace.materialize_s"] = env.materializeSeconds;
    out["trace.ns_per_op"] =
        env.materializeSeconds * 1e9 /
        static_cast<double>(std::max<uint64_t>(1, env.materializedOps));
    out["trace.store_misses"] = static_cast<double>(ts.misses);
    out["trace.store_hits"] = static_cast<double>(ts.hits);
    out["trace.resident_mb"] = static_cast<double>(ts.bytesInUse) / 1e6;

    // circuit: the operating-point solve every run starts from.
    {
        Span span(env.tracer, "layer.circuit");
        const std::vector<circuit::MilliVolts> grid =
            circuit::standardSweep();
        const double perSweep = timePerCall(0.2, [&] {
            for (circuit::MilliVolts v : grid)
                for (IrawMode mode : {IrawMode::ForcedOff, IrawMode::Auto,
                                      IrawMode::ForcedOn})
                    gSink = gSink + sim.operatingPoint(v, mode).cycleTime;
        });
        out["circuit.ns_per_solve"] =
            perSweep * 1e9 / static_cast<double>(3 * grid.size());
    }

    // variation: chip draws of the population's geometry.
    {
        Span span(env.tracer, "layer.variation");
        const core::CoreConfig core;
        const memory::MemoryConfig mem;
        const variation::VariationModel model{variation::VariationParams{}};
        const variation::ChipGeometry geometry =
            variation::ChipGeometry::from(core, mem);
        uint32_t index = 0;
        const double perChip = timePerCall(0.2, [&] {
            gSink = gSink + variation::ChipSample::sample(model, 1, index++,
                                                          geometry)
                                .maxZ();
        });
        double lines = 0.0;
        for (uint32_t n : geometry.lines)
            lines += n;
        out["variation.us_per_chip"] = perChip * 1e6;
        out["variation.lines_per_chip"] = lines;
    }

    // memory and predictor: the representative runs' own traces.
    {
        Span span(env.tracer, "layer.memory");
        uint64_t accesses = 0;
        double seconds = 0.0;
        for (const sim::SimConfig &cfg : points) {
            trace::TraceBufferPtr buffer = bufferFor(env, cfg);
            buffer->ops(); // decode outside the timed loop
            const double start = now();
            accesses += replayMemory(sim, cfg, *buffer);
            seconds += now() - start;
        }
        out["memory.accesses"] = static_cast<double>(accesses);
        out["memory.ns_per_access"] =
            seconds * 1e9 / static_cast<double>(std::max<uint64_t>(1,
                                                                   accesses));
    }
    {
        Span span(env.tracer, "layer.predictor");
        uint64_t branches = 0;
        double seconds = 0.0;
        for (const sim::SimConfig &cfg : points) {
            trace::TraceBufferPtr buffer = bufferFor(env, cfg);
            buffer->ops();
            const double start = now();
            branches += replayPredictor(cfg, *buffer);
            seconds += now() - start;
        }
        out["predictor.branches"] = static_cast<double>(branches);
        out["predictor.ns_per_branch"] =
            seconds * 1e9 / static_cast<double>(std::max<uint64_t>(1,
                                                                   branches));
    }

    // core: Simulator::run on one thread at the representative points,
    // warm-up folded into the measured window so that host time and
    // simulated cycles cover the same work.
    {
        Span span(env.tracer, "layer.core");
        std::vector<double> runMs;
        double seconds = 0.0;
        core::PipelineStats total;
        uint64_t guardStalls = 0;
        double dl0MissSum = 0.0, ul1MissSum = 0.0, bpAccuracySum = 0.0;
        for (sim::SimConfig cfg : points) {
            cfg.instructions += cfg.warmupInstructions;
            cfg.warmupInstructions = 0;
            const double start = now();
            const sim::SimResult r = sim.run(cfg);
            const double elapsed = now() - start;
            seconds += elapsed;
            runMs.push_back(elapsed * 1e3);
            const core::PipelineStats &p = r.pipeline;
            total.cycles += p.cycles;
            total.committedInsts += p.committedInsts;
            total.rawStallCycles += p.rawStallCycles;
            total.wawStallCycles += p.wawStallCycles;
            total.structuralStallCycles += p.structuralStallCycles;
            total.iqEmptyCycles += p.iqEmptyCycles;
            total.rfIrawStallCycles += p.rfIrawStallCycles;
            total.iqGateStallCycles += p.iqGateStallCycles;
            total.dl0ReplayStallCycles += p.dl0ReplayStallCycles;
            total.rfIrawDelayedInsts += p.rfIrawDelayedInsts;
            total.mispredicts += p.mispredicts;
            dl0MissSum += r.dl0MissRate;
            guardStalls += r.dl0GuardStalls + r.otherGuardStalls;
            ul1MissSum += r.ul1MissRate;
            bpAccuracySum += r.bpAccuracy;
        }
        const double insts = static_cast<double>(total.committedInsts);
        const double n = static_cast<double>(points.size());
        auto cpi = [&](uint64_t cycles) {
            return static_cast<double>(cycles) / insts;
        };
        out["core.ns_per_inst"] = seconds * 1e9 / insts;
        out["core.ns_per_cycle"] =
            seconds * 1e9 / static_cast<double>(total.cycles);
        out["core.ipc"] = insts / static_cast<double>(total.cycles);
        out["core.cycles"] = static_cast<double>(total.cycles);
        out["core.cpi_raw"] = cpi(total.rawStallCycles);
        out["core.cpi_waw"] = cpi(total.wawStallCycles);
        out["core.cpi_structural"] = cpi(total.structuralStallCycles);
        out["core.cpi_iq_empty"] = cpi(total.iqEmptyCycles);
        out["core.cpi_rf_iraw"] = cpi(total.rfIrawStallCycles);
        out["core.cpi_iq_gate"] = cpi(total.iqGateStallCycles);
        out["core.cpi_dl0_replay"] = cpi(total.dl0ReplayStallCycles);
        out["core.rf_delayed_frac"] =
            static_cast<double>(total.rfIrawDelayedInsts) / insts;
        out["core.mispredicts_per_kinst"] =
            static_cast<double>(total.mispredicts) * 1e3 / insts;
        // Rates are means over the representative runs.
        out["memory.dl0_miss_rate"] = dl0MissSum / n;
        out["memory.ul1_miss_rate"] = ul1MissSum / n;
        out["memory.guard_stall_cpi"] = cpi(guardStalls);
        out["predictor.accuracy"] = bpAccuracySum / n;
        out["sim.run_p50_ms"] = quantile(runMs, 0.5);
        out["sim.run_p90_ms"] = quantile(runMs, 0.9);
    }
}

} // namespace perfbench
