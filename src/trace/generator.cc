#include "trace/generator.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace trace {

using isa::MicroOp;
using isa::OpClass;
using isa::RegId;

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadProfile &profile, uint64_t seed, uint64_t maxInsts)
    : _profile(profile), _seed(seed), _maxInsts(maxInsts)
{
    _profile.validate();
    reset();
}

void
SyntheticTraceGenerator::reset()
{
    _rng.reseed(_seed, 0x1234abcd0000ULL ^ _seed);
    buildStaticProgram();
    _emitted = 0;
    _pos = 0;
    _callStack.clear();
    _recentIntDst.clear();
    _recentFpDst.clear();
    _recentStoreAddrs.clear();
    _nextIntDst = 0;
    _nextFpDst = 0;
}

std::string
SyntheticTraceGenerator::name() const
{
    return _profile.name + "/seed" + std::to_string(_seed);
}

void
SyntheticTraceGenerator::buildStaticProgram()
{
    const uint32_t n = _profile.staticCodeInsts;
    _slots.assign(n, StaticSlot{});

    // Draw op classes from the instruction mix.  Returns are not in
    // the mix: they are planted at function ends below.
    DiscreteSampler mix({
        _profile.wIntAlu, _profile.wIntMul, _profile.wIntDiv,
        _profile.wFpAdd, _profile.wFpMul, _profile.wFpDiv,
        _profile.wLoad, _profile.wStore, _profile.wBranch,
        _profile.wCall,
    });
    static const OpClass classes[] = {
        OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv,
        OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv,
        OpClass::Load, OpClass::Store, OpClass::Branch,
        OpClass::Call,
    };

    const uint64_t footprint = 1ULL << _profile.footprintLog2;

    // Shared streaming arrays (16-32 KB each): the program's "data
    // structures".  Their aggregate footprint fits UL1 so steady-state
    // streaming misses stay in the second level, as in real codes.
    _streams.clear();
    for (uint32_t a = 0; a < kNumStreamArrays; ++a) {
        StreamArray arr;
        arr.size = 1u << 12; // 4 KB
        arr.stride = _rng.chance(0.7) ? 4 : 8;
        uint64_t maxBase =
            footprint > arr.size ? footprint - arr.size : 0;
        arr.base = kDataBase +
                   alignDown(static_cast<uint64_t>(_rng.range(
                                 0, static_cast<int64_t>(maxBase))),
                             64);
        arr.pos = 0;
        _streams.push_back(arr);
    }

    for (uint32_t i = 0; i < n; ++i) {
        StaticSlot &slot = _slots[i];
        slot.cls = classes[mix.sample(_rng)];

        if (slot.cls == OpClass::Branch) {
            // Real-code branch statistics: backward branches are
            // loop back-edges (mostly taken); forward branches guard
            // code that usually executes (mostly not taken).  A
            // strongly-taken forward branch would skip its span and
            // inflate the dynamic branch share far past the static
            // mix.
            bool strong =
                _rng.chance(_profile.stronglyBiasedFraction);
            bool backward = _rng.chance(0.45);
            if (backward && i > 16) {
                // Loop bodies of 16-256 micro-ops.
                uint32_t span = static_cast<uint32_t>(
                    std::min<uint64_t>(i, 16 + _rng.below(240)));
                slot.takenTarget = i - span;
                slot.biasTaken =
                    strong ? 0.96 : _profile.weakBias;
            } else {
                uint32_t span = 2 + _rng.below(24);
                slot.takenTarget = (i + span) % n;
                slot.biasTaken =
                    strong ? 0.04 : 1.0 - _profile.weakBias;
            }
        } else if (slot.cls == OpClass::Call) {
            // Callee entries are planted later; remember a raw draw.
            slot.calleeEntry = _rng.below(n);
        } else if (isMemOp(slot.cls)) {
            slot.streaming = _rng.chance(_profile.streamingFraction);
            slot.accessSize = isFpOp(slot.cls) ? 8
                              : (_rng.chance(0.25) ? 8 : 4);
            if (slot.streaming)
                slot.streamArray = _rng.below(kNumStreamArrays);
        }
    }

    // Plant function entries and their terminating Return slots.  A
    // call site jumps to entry e; the walker then proceeds
    // sequentially until it hits the Return slot planted at
    // e + bodyLen.  Bodies respect the profile's minimum length (the
    // paper relies on no call/return pair executing within 1-2 cycles
    // for RSB safety, Sec. 4.5).
    uint32_t numFunctions =
        std::max(4u, n / 512u);
    std::vector<uint32_t> entries;
    entries.reserve(numFunctions);
    for (uint32_t f = 0; f < numFunctions; ++f) {
        uint32_t body = _profile.minFunctionBody +
                        _rng.below(_profile.maxFunctionBody -
                                   _profile.minFunctionBody + 1);
        uint32_t entry = _rng.below(n > body + 2 ? n - body - 2 : 1);
        uint32_t retPos = entry + body;
        StaticSlot &ret = _slots[retPos];
        ret = StaticSlot{};
        ret.cls = OpClass::Return;
        // Function bodies must not contain control flow that escapes
        // before the Return; neutralize branches/calls inside.
        for (uint32_t j = entry; j < retPos; ++j) {
            if (_slots[j].cls == OpClass::Branch ||
                _slots[j].cls == OpClass::Call ||
                _slots[j].cls == OpClass::Return) {
                _slots[j].cls = OpClass::IntAlu;
            }
        }
        entries.push_back(entry);
    }

    // Rewrite call sites to target real function entries; call slots
    // that ended up inside a function body were neutralized above.
    for (auto &slot : _slots) {
        if (slot.cls == OpClass::Call)
            slot.calleeEntry =
                entries[slot.calleeEntry % entries.size()];
    }

    // Branch targets must not jump into the middle of a function body
    // (the walker would then run into a Return with an empty stack;
    // handled gracefully, but we keep control flow mostly sane by
    // redirecting such targets to the slot after the Return).  A body
    // ends at the first Return at or after its entry -- a later,
    // overlapping function may have neutralized the one planted for
    // it -- and the loop below changes no op class, so each end is
    // found once, up front.
    std::vector<uint32_t> bodyEnds;
    bodyEnds.reserve(entries.size());
    for (uint32_t entry : entries) {
        uint32_t j = entry;
        while (j < _slots.size() && _slots[j].cls != OpClass::Return)
            ++j;
        bodyEnds.push_back(j);
    }
    for (auto &slot : _slots) {
        if (slot.cls != OpClass::Branch)
            continue;
        for (size_t e = 0; e < entries.size(); ++e) {
            if (slot.takenTarget >= entries[e] &&
                slot.takenTarget <= bodyEnds[e])
                slot.takenTarget = (bodyEnds[e] + 1) % _slots.size();
        }
    }
}

RegId
SyntheticTraceGenerator::pickSource(const std::deque<RegId> &recent,
                                    bool fp)
{
    const uint32_t bankBase = fp ? isa::kNumIntRegs : 0;
    const uint32_t bankSize =
        fp ? isa::kNumFpRegs : isa::kNumIntRegs;
    if (recent.empty() || _rng.chance(_profile.freshSrcProb)) {
        return static_cast<RegId>(bankBase + _rng.below(bankSize));
    }
    // Dependency distance: 1 + Geometric(p) micro-ops back.
    uint32_t d = 1 + _rng.geometric(_profile.depDistGeomP);
    d = std::min<uint32_t>(d, static_cast<uint32_t>(recent.size()));
    return recent[recent.size() - d];
}

RegId
SyntheticTraceGenerator::pickIntSource()
{
    return pickSource(_recentIntDst, false);
}

RegId
SyntheticTraceGenerator::pickFpSource()
{
    return pickSource(_recentFpDst, true);
}

uint64_t
SyntheticTraceGenerator::pickMemAddr(StaticSlot &slot)
{
    uint64_t addr = 0;
    if (slot.streaming) {
        StreamArray &arr = _streams[slot.streamArray];
        addr = arr.base + arr.pos;
        arr.pos += arr.stride;
        if (arr.pos >= arr.size)
            arr.pos = 0;
    } else {
        // Three-level locality pyramid: hot / warm / cold regions.
        double u = _rng.uniform();
        uint64_t region = 0;
        if (u < _profile.hotProb) {
            region = 1ULL << _profile.hotBytesLog2;
        } else if (u < _profile.hotProb + _profile.warmProb) {
            region = 1ULL << _profile.warmBytesLog2;
        } else {
            region = 1ULL << _profile.footprintLog2;
        }
        addr = kDataBase +
               static_cast<uint64_t>(
                   _rng.range(0, static_cast<int64_t>(region - 8)));
    }
    return alignDown(addr, slot.accessSize);
}

MicroOp
SyntheticTraceGenerator::emitAt(uint32_t pos)
{
    StaticSlot &slot = _slots[pos];
    MicroOp op;
    op.seqNum = _emitted + 1;
    op.pc = kCodeBase + static_cast<uint64_t>(pos) * 4;
    // A Return reached by fall-through (no matching call on the
    // stack) executes as plain ALU work: real programs never execute
    // a ret that was not paired with a call, and unmatched returns
    // would flood the RSB with false mispredictions.
    op.opClass = (slot.cls == OpClass::Return && _callStack.empty())
                     ? OpClass::IntAlu
                     : slot.cls;

    auto pushIntDst = [this](RegId r) {
        _recentIntDst.push_back(r);
        if (_recentIntDst.size() > kRecentDepth)
            _recentIntDst.pop_front();
    };
    auto pushFpDst = [this](RegId r) {
        _recentFpDst.push_back(r);
        if (_recentFpDst.size() > kRecentDepth)
            _recentFpDst.pop_front();
    };
    auto nextIntReg = [this]() {
        RegId r = static_cast<RegId>(_nextIntDst % isa::kNumIntRegs);
        ++_nextIntDst;
        return r;
    };
    auto nextFpReg = [this]() {
        RegId r = static_cast<RegId>(isa::kFirstFpReg +
                                     _nextFpDst % isa::kNumFpRegs);
        ++_nextFpDst;
        return r;
    };

    switch (op.opClass) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        op.src1 = pickIntSource();
        if (_rng.chance(_profile.secondSrcProb))
            op.src2 = pickIntSource();
        op.dst = nextIntReg();
        pushIntDst(op.dst);
        break;

      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        op.src1 = pickFpSource();
        if (_rng.chance(_profile.secondSrcProb))
            op.src2 = pickFpSource();
        op.dst = nextFpReg();
        pushFpDst(op.dst);
        break;

      case OpClass::Load: {
        op.src1 = pickIntSource(); // address base register
        op.memSize = slot.accessSize;
        if (!_recentStoreAddrs.empty() &&
            _rng.chance(_profile.storeForwardProb)) {
            // Spill/reload: read an address stored very recently.
            size_t idx = _recentStoreAddrs.size() - 1 -
                         _rng.below(static_cast<uint32_t>(
                             _recentStoreAddrs.size()));
            op.memAddr =
                alignDown(_recentStoreAddrs[idx], slot.accessSize);
        } else {
            op.memAddr = pickMemAddr(slot);
        }
        bool fpDest = isFpOp(slot.cls) ||
                      (_profile.wFpAdd + _profile.wFpMul > 0.0 &&
                       _rng.chance(0.3));
        if (fpDest) {
            op.dst = nextFpReg();
            pushFpDst(op.dst);
        } else {
            op.dst = nextIntReg();
            pushIntDst(op.dst);
        }
        break;
      }

      case OpClass::Store: {
        op.src1 = pickIntSource(); // address base register
        op.src2 = pickIntSource(); // data register
        op.memSize = slot.accessSize;
        op.memAddr = pickMemAddr(slot);
        _recentStoreAddrs.push_back(op.memAddr);
        if (_recentStoreAddrs.size() > kRecentStores)
            _recentStoreAddrs.pop_front();
        break;
      }

      case OpClass::Branch: {
        op.src1 = pickIntSource(); // condition register
        op.taken = _rng.chance(slot.biasTaken);
        op.target = kCodeBase +
                    static_cast<uint64_t>(slot.takenTarget) * 4;
        break;
      }

      case OpClass::Call: {
        op.taken = true;
        op.target = kCodeBase +
                    static_cast<uint64_t>(slot.calleeEntry) * 4;
        break;
      }

      case OpClass::Return: {
        op.taken = true;
        // Target resolved by the walker (top of call stack).
        break;
      }

      case OpClass::Nop:
      default:
        break;
    }

    return op;
}

std::optional<MicroOp>
SyntheticTraceGenerator::next()
{
    if (_maxInsts != 0 && _emitted >= _maxInsts)
        return std::nullopt;

    MicroOp op = emitAt(_pos);

    // Advance the walker.
    const uint32_t n = static_cast<uint32_t>(_slots.size());
    switch (op.opClass) {
      case OpClass::Branch:
        _pos = op.taken ? _slots[_pos].takenTarget : (_pos + 1) % n;
        break;
      case OpClass::Call:
        if (_callStack.size() < kMaxCallDepth) {
            _callStack.push_back((_pos + 1) % n);
            _pos = _slots[_pos].calleeEntry;
        } else {
            // Deep recursion in the synthetic CFG: treat as a plain
            // jump without pushing, keeping the stack bounded.
            _pos = _slots[_pos].calleeEntry;
        }
        break;
      case OpClass::Return:
        if (!_callStack.empty()) {
            _pos = _callStack.back();
            _callStack.pop_back();
        } else {
            // Return reached by fall-through without a matching call
            // (synthetic CFG artifact): continue sequentially.
            _pos = (_pos + 1) % n;
        }
        op.target = kCodeBase + static_cast<uint64_t>(_pos) * 4;
        break;
      default:
        _pos = (_pos + 1) % n;
        break;
    }

    ++_emitted;
    return op;
}

} // namespace trace
} // namespace iraw
