/**
 * @file
 * Steppable single-run engine: Simulator::run() unrolled into an
 * object whose cycle loop advances in bounded quanta.
 *
 * One SimEngine owns everything a run needs (trace cursor, memory
 * hierarchy, pipeline, optional Vcc controller) and exposes
 * advance(quantumCycles), so a caller can interleave many runs in
 * lockstep -- the batched sweep path (Simulator::runBatch) round-robins
 * a quantum across B engines whose replay cursors walk the same
 * decoded trace buffer, keeping the shared pages hot in cache.
 *
 * Determinism contract: the quantum only picks the *stop cycle* handed
 * to Pipeline::runUntil(); the instruction budget passed through is
 * always the full phase target.  The budget is visible to the issue
 * stage (the slot loop stops exactly at the budget), so chunking by
 * instruction count would perturb the final cycle of every chunk --
 * chunking by stop cycle provably does not, because runUntil() executes
 * the identical tick sequence for any chunking of the same budget.
 * Epoch-boundary evaluation of the adaptive controller happens at the
 * same cycles regardless of where quanta fall, so for every quantum
 * size (including "infinite", which is what Simulator::run() uses) the
 * results are bitwise identical.
 */

#ifndef IRAW_SIM_SIM_ENGINE_HH
#define IRAW_SIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "adapt/vcc_controller.hh"
#include "core/pipeline.hh"
#include "iraw/controller.hh"
#include "memory/hierarchy.hh"
#include "obs/stage_profiler.hh"
#include "sim/simulation.hh"
#include "trace/trace_source.hh"

namespace iraw {
namespace sim {

/** One simulation run as a steppable object. */
class SimEngine
{
  public:
    /** Builds the machine and applies the initial operating point
     *  (everything Simulator::run() did before its first tick). */
    SimEngine(const Simulator &sim, const SimConfig &cfg);

    /** True once every phase (warmup + measured window) completed. */
    bool done() const { return _phase == Phase::Done; }

    /**
     * Tick the machine for at most @p quantumCycles more cycles
     * (phase transitions and adaptive-controller epochs run inline
     * exactly as the monolithic loop would).  No-op once done().
     */
    void advance(memory::Cycle quantumCycles);

    /** Assemble the SimResult.  Requires done(); call once. */
    SimResult finalize();

    const SimConfig &config() const { return _cfg; }
    uint64_t
    committedInstructions() const
    {
        return _pipe.stats().committedInsts;
    }
    memory::Cycle currentCycle() const { return _pipe.currentCycle(); }

  private:
    enum class Phase
    {
        Warmup,
        Measure,
        Done,
    };

    /** Cache/predictor counters at the warmup boundary. */
    struct MemSnapshot
    {
        uint64_t il0Acc = 0, il0Hit = 0;
        uint64_t dl0Acc = 0, dl0Hit = 0;
        uint64_t ul1Acc = 0, ul1Hit = 0;
        uint64_t dl0Guard = 0, otherGuard = 0;
        uint64_t bpPred = 0, bpMiss = 0;
    };

    /** Validation gate run before any member construction. */
    static const SimConfig &validated(const SimConfig &cfg);

    void applyOperatingPoint(circuit::MilliVolts vcc);
    uint64_t otherGuardStallsNow() const;
    uint64_t irawStallsNow() const;
    void closeSegment();

    /** Tick toward @p target committed instructions, stopping at
     *  cycle @p stop.  Returns true when the phase is over (target
     *  reached or trace drained), false when @p stop hit first. */
    bool stepPhase(uint64_t target, memory::Cycle stop);
    void endPhase();
    /** Drain for @p decision without committing past @p target, then
     *  switch; a drain cut short by the end of warm-up leaves the
     *  switch in _pendingSwitch for the measured phase. */
    void drainAndSwitch(const adapt::Decision &decision,
                        uint64_t target);
    /** Open the next controller epoch at the current cycle. */
    void restartEpoch();

    const Simulator &_sim;
    SimConfig _cfg;
    SimResult _res;

    mechanism::IrawController _controller;
    std::unique_ptr<adapt::VccController> _vctl;
    circuit::MilliVolts _opVcc;

    std::unique_ptr<trace::TraceSource> _src;
    memory::MemoryHierarchy _mem;
    core::Pipeline _pipe;

    StageProfiler _stageProfiler;
    double _wallSeconds = 0.0;

    /** Borrowed from SimConfig::tracer; null = tracing off. */
    obs::EventTracer *_tracer = nullptr;
    uint64_t _epochWallUs = 0;

    Phase _phase = Phase::Warmup;
    bool _finalized = false;

    // Epoch-loop bookkeeping (adaptive runs only).
    uint64_t _totalBudget = 0;
    memory::Cycle _nextEpoch = 0;
    memory::Cycle _epochStartCycle = 0;
    uint64_t _epochStartInsts = 0;
    uint64_t _epochStartIraw = 0;
    memory::Cycle _segStartCycle = 0;
    uint64_t _segStartInsts = 0;
    uint64_t _segSettle = 0;
    memory::Cycle _warmEndCycle = 0;
    std::optional<adapt::Decision> _pendingSwitch;

    core::PipelineStats _warm;
    MemSnapshot _snap;
};

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_SIM_ENGINE_HH
