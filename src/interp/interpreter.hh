/**
 * @file
 * Functional interpreter for the mini-IR. Executes one core's program
 * against a shared SparseMemory, emitting commit events the timing
 * and persistence models consume. Supports control snapshots at
 * region boundaries and resumption from them, which is how the
 * recovery engine re-enters the oldest unpersisted region.
 */

#ifndef CWSP_INTERP_INTERPRETER_HH
#define CWSP_INTERP_INTERPRETER_HH

#include <string>
#include <vector>

#include "interp/commit.hh"
#include "interp/machine_state.hh"
#include "ir/ir.hh"
#include "sim/logging.hh"

namespace cwsp::interp {

/**
 * The ALU semantics, defined once: the value binary ALU opcode @p op
 * (Add..CmpSlt) computes from operand @p a (register a) and @p b
 * (register b, or the immediate). The interpreter's step() and
 * runBatch() pass each opcode as a constant, so this switch folds
 * into their dispatch; the recovery slice's Apply evaluates through
 * it too.
 */
[[gnu::always_inline]] inline Word
aluValue(ir::Opcode op, Word a, Word b)
{
    using Op = ir::Opcode;
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Mul: return a * b;
      case Op::DivU: return b == 0 ? 0 : a / b;
      case Op::RemU: return b == 0 ? a : a % b;
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl: return a << (b & 63);
      case Op::Shr: return a >> (b & 63);
      case Op::CmpEq: return a == b ? 1 : 0;
      case Op::CmpNe: return a != b ? 1 : 0;
      case Op::CmpUlt: return a < b ? 1 : 0;
      case Op::CmpSlt:
        return static_cast<std::int64_t>(a) <
                       static_cast<std::int64_t>(b)
                   ? 1
                   : 0;
      default:
        cwsp_panic("aluValue on non-ALU opcode ", ir::opcodeName(op));
    }
}

/** Outcome of one interpreter step. */
enum class StepResult : std::uint8_t {
    Ok,       ///< executed one instruction
    Finished, ///< main returned
};

/**
 * One hardware thread executing the module's code.
 *
 * step() executes any instruction and reports each of its commits to
 * a sink; it is the reference every faster loop is held to. A caller
 * whose sink ignores register-only commits (the timing scheme, the
 * commit-stream recorder, the I/O collectors, a sink-less functional
 * run) calls runBatch() before each step(): it executes the next run
 * of single-cycle register-only instructions with no sink at all, and
 * the caller accounts the whole run at once.
 */
class Interpreter
{
  public:
    /**
     * @param module  compiled (or plain) program; must be laid out.
     * @param memory  shared architectural memory.
     * @param core    core id, selects stack/checkpoint areas.
     */
    Interpreter(const ir::Module &module, SparseMemory &memory,
                CoreId core);

    /** Begin executing @p entry with @p args (spilled per the ABI). */
    void start(const std::string &entry, const std::vector<Word> &args,
               CommitSink &sink);

    /** Execute the next instruction. */
    StepResult step(CommitSink &sink);

    /**
     * Execute up to @p limit consecutive single-cycle register-only
     * instructions — MovImm, Mov, Nop, the binary ALU ops, Br and
     * CondBr — without calling any sink, and return how many ran
     * (0 when the next instruction is anything else, or after main
     * returned). Each one is a whole step() that would commit one Alu
     * or Branch event and nothing else; committed() counts them.
     */
    std::uint64_t runBatch(std::uint64_t limit);

    bool finished() const { return finished_; }
    Word returnValue() const { return returnValue_; }

    /** Number of instructions committed so far. */
    std::uint64_t committed() const { return committed_; }

    CoreId core() const { return core_; }
    const ir::Module &module() const { return *module_; }
    SparseMemory &memory() { return *memory_; }

    /**
     * Snapshot the control state (all frames). Valid to call from a
     * Boundary commit callback: the snapshot resumes *at* the
     * boundary instruction so re-entry re-commits it.
     */
    ControlSnapshot snapshot() const;

    /**
     * Append the frames snapshot() would return to @p out, without a
     * temporary ControlSnapshot (commit-stream recording flattens
     * every boundary's snapshot into one Frame vector).
     */
    void appendSnapshot(std::vector<Frame> &out) const;

    /**
     * Snapshot the control state between steps, with no index rewind:
     * resumption continues at the next unexecuted instruction. Used
     * for battery-backed schemes whose residual energy persists the
     * execution context, making recovery an exact continuation.
     */
    ControlSnapshot exactSnapshot() const;

    /**
     * Replace the control state with @p snap and poison the top
     * frame's registers (except the frame pointer); the recovery
     * slice must rebuild every live-in. Used by the recovery engine.
     */
    void restoreForRecovery(const ControlSnapshot &snap);

    /**
     * Replace the control state with @p snap keeping every register
     * value exactly (no poisoning). Used by idempotence property
     * tests that re-execute regions with known-good register state.
     */
    void restoreExact(const ControlSnapshot &snap);

    /** Direct register access on the top frame (recovery/tests). */
    Word reg(ir::Reg r) const;
    void setReg(ir::Reg r, Word value);

    /** The instruction the top frame will execute next. */
    const ir::Instr &currentInstr() const { return fetch(); }

    /**
     * Skip the pending atomic instruction, installing @p dst_value as
     * its result without touching memory. Used when recovery resumes
     * past an atomic that already persisted before the failure.
     */
    void skipAtomic(Word dst_value);

    /** Current frame depth (1 = main only). */
    std::size_t depth() const { return frames_.size(); }

    /** Current function of the top frame. */
    ir::FuncId currentFunction() const;

  private:
    const ir::Module *module_;
    SparseMemory *memory_;
    CoreId core_;
    std::vector<Frame> frames_;
    bool finished_ = false;
    bool atomicPrepared_ = false;
    Word returnValue_ = 0;
    std::uint64_t committed_ = 0;

    /**
     * The instructions of @p frame's current block: the one fetch
     * step() and runBatch() share (runBatch holds it in a local and
     * refetches only on a branch).
     */
    const ir::Instr *
    code(const Frame &frame) const
    {
        return module_->function(frame.func)
            .block(frame.block)
            .instrs()
            .data();
    }

    /** The instruction the top frame will execute next. */
    const ir::Instr &
    fetch() const
    {
        const Frame &f = frames_.back();
        return code(f)[f.index];
    }

    void doStore(Addr addr, Word value, bool is_ckpt, CommitSink &sink,
                 CommitInfo &info);
};

/**
 * Convenience: run @p entry to completion functionally (no timing),
 * with an instruction cap to catch runaway programs. @p sink, when
 * given, observes every commit, one step at a time; without one, no
 * commit is observed and register-only runs execute as batches.
 *
 * @return main's return value.
 */
Word runToCompletion(const ir::Module &module, SparseMemory &memory,
                     const std::string &entry,
                     const std::vector<Word> &args,
                     std::uint64_t max_instrs = 100'000'000,
                     CommitSink *sink = nullptr);

} // namespace cwsp::interp

#endif // CWSP_INTERP_INTERPRETER_HH
