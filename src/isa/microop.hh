/**
 * @file
 * The micro-operation record: the unit the trace generator produces
 * and the pipeline consumes.  This is a trace-driven model, so each
 * record carries its resolved outcome (memory address, branch target
 * and direction) alongside its register operands.
 */

#ifndef IRAW_ISA_MICROOP_HH
#define IRAW_ISA_MICROOP_HH

#include <cstdint>
#include <string>

#include "isa/op_class.hh"
#include "isa/registers.hh"

namespace iraw {
namespace isa {

/**
 * One dynamic micro-operation.  The four 64-bit fields come first and
 * the six byte-wide fields after them, so the record packs into 40
 * bytes with no interior padding: it is the in-memory trace form
 * (TraceBuffer holds one per micro-op) and the payload of every
 * instruction-queue entry.
 */
struct MicroOp
{
    uint64_t seqNum = 0;  //!< dynamic sequence number (1-based)
    uint64_t pc = 0;      //!< virtual program counter
    /** Memory-op address (valid iff isMemOp(opClass)). */
    uint64_t memAddr = 0;
    /** Control-op target (valid iff isControlOp(opClass)). */
    uint64_t target = 0;

    OpClass opClass = OpClass::Nop;

    RegId dst = kInvalidReg;  //!< destination register (if any)
    RegId src1 = kInvalidReg; //!< first source (if any)
    RegId src2 = kInvalidReg; //!< second source (if any)

    uint8_t memSize = 0; //!< access size in bytes (1/2/4/8), mem ops
    bool taken = false;  //!< control-op direction

    bool hasDst() const { return isValidReg(dst); }
    bool hasSrc1() const { return isValidReg(src1); }
    bool hasSrc2() const { return isValidReg(src2); }
    bool isLoad() const { return opClass == OpClass::Load; }
    bool isStore() const { return opClass == OpClass::Store; }
    bool isBranch() const { return isControlOp(opClass); }
    bool isNop() const { return opClass == OpClass::Nop; }

    /** Number of valid source registers. */
    uint32_t
    numSrcs() const
    {
        return (hasSrc1() ? 1u : 0u) + (hasSrc2() ? 1u : 0u);
    }

    /** Textual rendering, e.g. "12: IntAlu r3 <- r1, r2". */
    std::string toString() const;

    /** Structural validity (operand/outcome fields match the class). */
    bool wellFormed() const;
};

/*
 * The store keeps every trace as decoded MicroOps.  A sharded
 * sweep's fork parent holds the whole store, so each byte here is
 * paid once per stored micro-op in its resident set: at the old
 * 56-byte layout the sweep_sharded benchmark's peak RSS rose ~40%.
 */
static_assert(sizeof(MicroOp) <= 40,
              "MicroOp grew past 40 bytes: reorder or shrink fields");

/** Convenience factory: a pipeline-drain NOP (Sec. 4.2). */
MicroOp makeNop(uint64_t seqNum, uint64_t pc);

} // namespace isa
} // namespace iraw

#endif // IRAW_ISA_MICROOP_HH
