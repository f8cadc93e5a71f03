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

namespace cwsp::interp {

/** Outcome of one interpreter step. */
enum class StepResult : std::uint8_t {
    Ok,       ///< executed one instruction
    Finished, ///< main returned
};

/** One hardware thread executing the module's code. */
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

    /** Pointer to the instruction the top frame will execute next. */
    const ir::Instr &fetch() const;

    void doStore(Addr addr, Word value, bool is_ckpt, CommitSink &sink,
                 CommitInfo &info);
};

/**
 * Convenience: run @p entry to completion functionally (no timing),
 * with an instruction cap to catch runaway programs. @p sink, when
 * given, observes every commit (a NullCommitSink otherwise).
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
