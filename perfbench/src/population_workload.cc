/**
 * @file
 * chip_population: a sigma > 0 Monte Carlo population through
 * ChipPopulation::run, every yielding chip simulated at its own
 * Vccmin (the vccmin_cdf run).  Dedup never applies (each chip run
 * is unique) and the chips run stall-heavy at N = 3-4.
 */

#include "harness.hh"
#include "circuit/voltage.hh"
#include "trace/workload.hh"
#include "variation/population.hh"

namespace perfbench {
namespace {

using mechanism::IrawMode;

/** Chips per population: enough that the share of chips landing on
 *  each Vccmin, and so the round's cost, varies little by seed. */
constexpr uint32_t kChips = 16;

/** The population's traces: three of the nine categories. */
const std::vector<std::string> kCategories = {"spec2006int",
                                              "spec2006fp",
                                              "multimedia"};

class ChipPopulationWorkload : public Workload
{
  public:
    explicit ChipPopulationWorkload(const Options &opts)
        : Workload(opts)
    {
        makeSuite(kCategories, kTracesPerCategory);
        _cfg.chips = kChips;
        _cfg.populationSeed = deriveSeed(opts.seed, 1000);
        _cfg.voltages = circuit::standardSweep();
        _cfg.suite = _suite;
        _cfg.warmupInstructions = kWarmupInsts;
        _cfg.simulate = variation::SimulateMode::AtVccmin;
    }

    uint64_t
    opsPerRound() const override
    {
        // Every chip yields at sigma = 0.08 (checked); a chip that
        // did not would still be attempted and counted failed.
        return static_cast<uint64_t>(kChips) * _suite.size();
    }

    void
    setup(Env &env) override
    {
        Workload::setup(env);
        const variation::VariationModel model(_cfg.params);
        const variation::ChipGeometry geometry =
            variation::ChipGeometry::from(_cfg.core, _cfg.mem);
        _chips.clear();
        for (uint32_t c = 0; c < _cfg.chips; ++c)
            _chips.push_back(variation::ChipSample::sample(
                model, _cfg.populationSeed, c, geometry));
    }

    void
    simulate(Env &env) override
    {
        _result = variation::ChipPopulation(*env.sim, env.runner)
                      .run(_cfg);
    }

    uint64_t
    deliveredInsts() const override
    {
        uint64_t insts = 0;
        for (const variation::ChipSummary &chip : _result.chips)
            for (const variation::ChipAtVcc &p : chip.points)
                if (p.simulated)
                    insts += p.machine.instructions +
                             _suite.size() * kWarmupInsts;
        return insts;
    }

    void
    check(CheckLog &log) override
    {
        if (!_checkedFirst) {
            _checkedFirst = true;
            _first = _result;
            _firstChips = _chips;
            checkMethod(log);
            checkResult(_result, log);
            return;
        }
        for (size_t c = 0; c < kChips; ++c)
            if (chipBits(_result, c) != chipBits(_first, c))
                log.fail(c * _suite.size(), _suite.size(),
                         "chip " + std::to_string(c) +
                             " differs from round 1");
    }

    std::vector<std::string>
    selfTest() override
    {
        std::vector<std::string> missed;
        auto expectCaught = [&](const variation::PopulationResult &r,
                                const std::string &what) {
            CheckLog log;
            checkResult(r, log);
            if (log.failedOps() == 0)
                missed.push_back(what);
        };
        {
            variation::PopulationResult r = _first;
            variation::ChipSummary &chip = r.chips[0];
            chip.points[chip.vccminIndex].machine.instructions -= 1;
            expectCaught(r, "simulated point one instruction short");
        }
        {
            // Make one chip claim a Vccmin below the grid point it
            // actually fails at (or, if every chip already sits on
            // the lowest point, raise the yield there above the
            // yield one point up).
            variation::PopulationResult r = _first;
            bool moved = false;
            for (variation::ChipSummary &chip : r.chips) {
                if (chip.vccminIndex + 1 < r.voltages.size()) {
                    ++chip.vccminIndex;
                    chip.vccmin = r.voltages[chip.vccminIndex];
                    chip.points[chip.vccminIndex].operable = true;
                    moved = true;
                    break;
                }
            }
            if (!moved)
                r.yieldAt.back() = r.yieldAt.front() + 1.0;
            expectCaught(r, "a chip made operable below its Vccmin");
        }
        return missed;
    }

    std::vector<sim::SimConfig>
    layerPoints() const override
    {
        // The first two chips at their own Vccmin, every trace.
        std::vector<sim::SimConfig> points;
        for (size_t c = 0; c < 2 && c < _first.chips.size(); ++c) {
            const variation::ChipSummary &chip = _first.chips[c];
            if (!chip.yields)
                continue;
            for (const sim::SuiteEntry &entry : _suite) {
                sim::SimConfig sc =
                    configFor(entry, chip.vccmin, _cfg.mode);
                sc.chip = std::make_shared<const variation::ChipSample>(
                    _firstChips[c]);
                points.push_back(sc);
            }
        }
        return points;
    }

  private:
    /** Simulated fields of chip @p c, bit patterns for doubles. */
    static std::vector<uint64_t>
    chipBits(const variation::PopulationResult &r, size_t c)
    {
        const variation::ChipSummary &chip = r.chips[c];
        std::vector<uint64_t> v = {chip.yields, bits(chip.vccmin),
                                   chip.requiredNAtVccmin};
        for (const variation::ChipAtVcc &p : chip.points) {
            v.push_back(p.operable);
            v.push_back(p.requiredN);
            v.push_back(p.machine.cycles);
            v.push_back(p.machine.instructions);
            v.push_back(bits(p.machine.execTimeAu));
            v.push_back(p.machine.rfIrawStalls);
        }
        return v;
    }

    /** A sigma = 0 chip is the nominal ForcedOn machine, bit for bit
     *  (checked on one trace at two grid points). */
    void
    checkMethod(CheckLog &log) const
    {
        variation::VariationParams flat;
        flat.sigma = 0.0;
        flat.systematicSigma = 0.0;
        auto chip = std::make_shared<const variation::ChipSample>(
            variation::ChipSample::sample(
                variation::VariationModel(flat), _cfg.populationSeed,
                0, variation::ChipGeometry::from(_cfg.core, _cfg.mem)));
        std::vector<sim::SimConfig> configs;
        for (circuit::MilliVolts vcc : {550.0, 425.0}) {
            sim::SimConfig nominal =
                configFor(_suite[0], vcc, IrawMode::ForcedOn);
            sim::SimConfig varied = nominal;
            varied.chip = chip;
            configs.push_back(nominal);
            configs.push_back(varied);
        }
        sim::Simulator plain;
        std::vector<sim::SimResult> runs =
            runEach(plain, configs);
        for (size_t i = 0; i < runs.size(); i += 2) {
            const sim::SimResult &a = runs[i];
            const sim::SimResult &b = runs[i + 1];
            const core::PipelineStats &p = a.pipeline;
            const core::PipelineStats &q = b.pipeline;
            if (p.cycles != q.cycles ||
                p.committedInsts != q.committedInsts ||
                p.rawStallCycles != q.rawStallCycles ||
                p.rfIrawStallCycles != q.rfIrawStallCycles ||
                p.iqGateStallCycles != q.iqGateStallCycles ||
                p.dl0ReplayStallCycles != q.dl0ReplayStallCycles ||
                a.dl0GuardStalls != b.dl0GuardStalls ||
                a.otherGuardStalls != b.otherGuardStalls ||
                bits(a.execTimeAu) != bits(b.execTimeAu))
                log.failMethod("sigma=0 chip differs from the nominal "
                               "ForcedOn machine");
        }
    }

    /** Every check of one population result (pure). */
    void
    checkResult(const variation::PopulationResult &r,
                CheckLog &log) const
    {
        const size_t s = _suite.size();
        if (r.chips.size() != kChips || _chips.size() != kChips) {
            log.fail(0, opsPerRound(), "wrong chip count");
            return;
        }
        const std::vector<circuit::MilliVolts> &grid = r.voltages;
        for (size_t i = 1; i < r.yieldAt.size(); ++i)
            if (r.yieldAt[i] > r.yieldAt[i - 1])
                log.fail(0, opsPerRound(),
                         "yield rises as Vcc falls at " +
                             std::to_string(grid[i]) + " mV");
        for (size_t c = 0; c < kChips; ++c) {
            const variation::ChipSummary &chip = r.chips[c];
            const std::string at = "chip " + std::to_string(c) + ": ";
            if (!chip.yields) {
                log.fail(c * s, s, at + "does not yield");
                continue;
            }
            // Independent operability scan of the harness's own draw.
            bool ok = chip.points.size() == grid.size() &&
                      chip.vccminIndex < grid.size() &&
                      grid[chip.vccminIndex] == chip.vccmin;
            for (size_t i = 0; ok && i <= chip.vccminIndex; ++i)
                ok = _chips[c]
                         .operableAt(_sim.cycleTimeModel(), _cfg.core,
                                     grid[i])
                         .operable &&
                     chip.points[i].operable;
            if (ok && chip.vccminIndex + 1 < grid.size())
                ok = !_chips[c]
                          .operableAt(_sim.cycleTimeModel(), _cfg.core,
                                      grid[chip.vccminIndex + 1])
                          .operable;
            if (!ok)
                log.fail(c * s, s,
                         at + "Vccmin disagrees with the operability "
                              "scan");
            for (size_t i = 0; i < chip.points.size(); ++i) {
                const variation::ChipAtVcc &p = chip.points[i];
                if (p.simulated != (i == chip.vccminIndex))
                    log.fail(c * s, s,
                             at + "simulated away from its Vccmin");
                if (p.simulated &&
                    p.machine.instructions != s * kMeasuredInsts)
                    log.fail(c * s, s, at + "budget not committed");
            }
        }
    }

    variation::PopulationConfig _cfg;
    /** The circuit model the operability scan uses. */
    sim::Simulator _sim;
    std::vector<variation::ChipSample> _chips;
    std::vector<variation::ChipSample> _firstChips;
    variation::PopulationResult _result;
    variation::PopulationResult _first;
    bool _checkedFirst = false;
};

} // namespace

std::unique_ptr<Workload>
makeChipPopulation(const Options &opts)
{
    return std::make_unique<ChipPopulationWorkload>(opts);
}

} // namespace perfbench
