#include "interp/interpreter.hh"

#include "sim/logging.hh"

namespace cwsp::interp {

namespace {

Word
aluOp(ir::Opcode op, Word a, Word b)
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
        cwsp_panic("aluOp on non-ALU opcode");
    }
}

} // namespace

Interpreter::Interpreter(const ir::Module &module, SparseMemory &memory,
                         CoreId core)
    : module_(&module), memory_(&memory), core_(core)
{
    cwsp_assert(module.laidOut(), "module must be laid out");
}

void
Interpreter::start(const std::string &entry,
                   const std::vector<Word> &args, CommitSink &sink)
{
    ir::FuncId fid = module_->findFunction(entry);
    if (fid == ir::kNoFunc)
        cwsp_fatal("entry function ", entry, " not found");
    const ir::Function &f = module_->function(fid);
    cwsp_assert(args.size() == f.numParams(),
                "argument count mismatch for ", entry);

    frames_.clear();
    finished_ = false;
    atomicPrepared_ = false;
    returnValue_ = 0;

    Frame frame;
    frame.func = fid;
    frame.regs.fill(kPoison);
    for (std::size_t i = 0; i < args.size(); ++i)
        frame.regs[i] = args[i];
    frame.regs[ir::kNumRegs - 1] = framePointer(core_, 0);
    frames_.push_back(frame);

    // ABI: arguments are spilled into the entry frame's checkpoint
    // slots so the entry region's recovery slice can restore them.
    for (std::size_t i = 0; i < args.size(); ++i) {
        CommitInfo info;
        info.kind = CommitKind::Store;
        info.core = core_;
        info.isCheckpoint = true;
        doStore(ckptSlotAddr(core_, 0, static_cast<ir::Reg>(i)),
                args[i], true, sink, info);
    }
}

const ir::Instr &
Interpreter::fetch() const
{
    const Frame &f = frames_.back();
    return module_->function(f.func).block(f.block).instrs()[f.index];
}

void
Interpreter::doStore(Addr addr, Word value, bool is_ckpt,
                     CommitSink &sink, CommitInfo &info)
{
    memory_->write(addr, value);
    info.addr = addr;
    info.storeValue = value;
    info.isCheckpoint = is_ckpt;
    sink.onCommit(info);
}

StepResult
Interpreter::step(CommitSink &sink)
{
    cwsp_assert(!finished_, "step() after main returned");
    Frame &f = frames_.back();
    const ir::Function &func = module_->function(f.func);
    const ir::Instr &i = func.block(f.block).instrs()[f.index];
    ++committed_;

    CommitInfo info;
    info.core = core_;
    info.func = f.func;

    using Op = ir::Opcode;
    switch (i.op) {
      case Op::MovImm:
        f.regs[i.dst] = static_cast<Word>(i.imm);
        ++f.index;
        info.kind = CommitKind::Alu;
        sink.onCommit(info);
        break;
      case Op::Mov:
        f.regs[i.dst] = f.regs[i.a];
        ++f.index;
        info.kind = CommitKind::Alu;
        sink.onCommit(info);
        break;
      case Op::Load: {
        Addr addr = wordAlign(f.regs[i.a] + static_cast<Word>(i.imm));
        f.regs[i.dst] = memory_->read(addr);
        ++f.index;
        info.kind = CommitKind::Load;
        info.addr = addr;
        sink.onCommit(info);
        break;
      }
      case Op::Store: {
        Addr addr = wordAlign(f.regs[i.b] + static_cast<Word>(i.imm));
        ++f.index;
        info.kind = CommitKind::Store;
        doStore(addr, f.regs[i.a], false, sink, info);
        break;
      }
      case Op::Br:
        f.block = i.target0;
        f.index = 0;
        info.kind = CommitKind::Branch;
        sink.onCommit(info);
        break;
      case Op::CondBr:
        f.block = f.regs[i.a] != 0 ? i.target0 : i.target1;
        f.index = 0;
        info.kind = CommitKind::Branch;
        sink.onCommit(info);
        break;
      case Op::Ret: {
        Word value = i.a == ir::kNoReg ? 0 : f.regs[i.a];
        ir::Reg dst = f.returnDst;
        frames_.pop_back();
        if (frames_.empty()) {
            finished_ = true;
            returnValue_ = value;
        } else {
            Frame &caller = frames_.back();
            if (dst != ir::kNoReg)
                caller.regs[dst] = value;
            ++caller.index; // move past the call instruction
        }
        info.kind = CommitKind::CallRet;
        sink.onCommit(info);
        break;
      }
      case Op::Call: {
        const ir::Function &callee = module_->function(i.callee);
        cwsp_assert(i.args.size() == callee.numParams(),
                    "call arity mismatch");
        cwsp_assert(frames_.size() < 256, "call depth overflow");
        Frame next;
        next.func = i.callee;
        next.regs.fill(kPoison);
        next.returnDst = i.dst;
        std::size_t depth = frames_.size();
        for (std::size_t k = 0; k < i.args.size(); ++k)
            next.regs[k] = f.regs[i.args[k]];
        next.regs[ir::kNumRegs - 1] = framePointer(core_, depth);
        frames_.push_back(next);
        info.kind = CommitKind::CallRet;
        sink.onCommit(info);
        // ABI argument spill into the callee's checkpoint slots.
        for (std::size_t k = 0; k < i.args.size(); ++k) {
            CommitInfo spill;
            spill.kind = CommitKind::Store;
            spill.core = core_;
            spill.func = i.callee;
            doStore(
                ckptSlotAddr(core_, depth, static_cast<ir::Reg>(k)),
                frames_.back().regs[k], true, sink, spill);
        }
        break;
      }
      case Op::AtomicAdd:
      case Op::AtomicXchg:
      case Op::AtomicCas: {
        Addr addr = wordAlign(f.regs[i.b] + static_cast<Word>(i.imm));
        if (!atomicPrepared_) {
            // Phase 1: announce the atomic so the timing model can
            // drain prior persists and reserve the persist-path slot
            // before the value becomes architecturally visible.
            atomicPrepared_ = true;
            --committed_; // not an instruction retire
            info.kind = CommitKind::AtomicPrepare;
            info.addr = addr;
            info.isCas = i.op == Op::AtomicCas;
            sink.onCommit(info);
            break;
        }
        atomicPrepared_ = false;
        Word old = memory_->read(addr);
        Word next;
        switch (i.op) {
          case Op::AtomicAdd:
            next = old + f.regs[i.a];
            break;
          case Op::AtomicXchg:
            next = f.regs[i.a];
            break;
          default: // AtomicCas: dst holds the expected value
            next = old == f.regs[i.dst] ? f.regs[i.a] : old;
            break;
        }
        f.regs[i.dst] = old;
        ++f.index;
        info.kind = CommitKind::Atomic;
        info.isCas = i.op == Op::AtomicCas;
        doStore(addr, next, false, sink, info);
        // Fuse the atomic's transition checkpoints and the post-
        // atomic boundary into this step: the MC persists the whole
        // unit failure-atomically (crash analysis clamps their
        // durability to the atomic's admission), so no crash point
        // may separate their commit records from the atomic's.
        while (!finished_) {
            const ir::Instr &nxt = fetch();
            if (nxt.op == Op::Checkpoint) {
                step(sink);
            } else if (nxt.op == Op::RegionBoundary) {
                step(sink);
                break;
            } else {
                break;
            }
        }
        break;
      }
      case Op::Fence:
        ++f.index;
        info.kind = CommitKind::Fence;
        sink.onCommit(info);
        break;
      case Op::RegionBoundary:
        ++f.index;
        info.kind = CommitKind::Boundary;
        info.staticRegion = static_cast<ir::StaticRegionId>(i.imm);
        sink.onCommit(info);
        break;
      case Op::Checkpoint: {
        std::size_t depth = frames_.size() - 1;
        ++f.index;
        info.kind = CommitKind::Store;
        doStore(ckptSlotAddr(core_, depth, i.a), f.regs[i.a], true,
                sink, info);
        break;
      }
      case Op::IoWrite:
        ++f.index;
        info.kind = CommitKind::Io;
        info.addr = static_cast<Addr>(i.imm); // device id
        info.storeValue = f.regs[i.a];
        sink.onCommit(info);
        break;
      case Op::Nop:
        ++f.index;
        info.kind = CommitKind::Alu;
        sink.onCommit(info);
        break;
      default:
        if (ir::isBinaryAlu(i.op)) {
            Word b = i.bIsImm ? static_cast<Word>(i.imm) : f.regs[i.b];
            f.regs[i.dst] = aluOp(i.op, f.regs[i.a], b);
            ++f.index;
            info.kind = CommitKind::Alu;
            sink.onCommit(info);
        } else {
            cwsp_panic("unhandled opcode in interpreter");
        }
        break;
    }
    return finished_ ? StepResult::Finished : StepResult::Ok;
}

ControlSnapshot
Interpreter::snapshot() const
{
    ControlSnapshot snap;
    appendSnapshot(snap.frames);
    return snap;
}

void
Interpreter::appendSnapshot(std::vector<Frame> &out) const
{
    // Rewind the top frame so resumption re-commits the current
    // (boundary) instruction: step() advanced index before the sink
    // callback ran.
    cwsp_assert(!frames_.empty(), "snapshot with no frames");
    cwsp_assert(frames_.back().index > 0, "snapshot not inside a block");
    out.insert(out.end(), frames_.begin(), frames_.end());
    --out.back().index;
}

ControlSnapshot
Interpreter::exactSnapshot() const
{
    ControlSnapshot snap;
    snap.frames = frames_;
    return snap;
}

void
Interpreter::restoreForRecovery(const ControlSnapshot &snap)
{
    frames_ = snap.frames;
    finished_ = false;
    atomicPrepared_ = false;
    Frame &top = frames_.back();
    Word fp = framePointer(core_, frames_.size() - 1);
    for (std::size_t r = 0; r < ir::kNumRegs; ++r)
        top.regs[r] = kPoison;
    top.regs[ir::kNumRegs - 1] = fp;
}

void
Interpreter::skipAtomic(Word dst_value)
{
    Frame &f = frames_.back();
    const ir::Instr &i = fetch();
    cwsp_assert(ir::isAtomic(i.op), "skipAtomic on non-atomic");
    f.regs[i.dst] = dst_value;
    ++f.index;
}

void
Interpreter::restoreExact(const ControlSnapshot &snap)
{
    frames_ = snap.frames;
    finished_ = false;
    atomicPrepared_ = false;
}

Word
Interpreter::reg(ir::Reg r) const
{
    return frames_.back().regs[r];
}

void
Interpreter::setReg(ir::Reg r, Word value)
{
    frames_.back().regs[r] = value;
}

ir::FuncId
Interpreter::currentFunction() const
{
    return frames_.back().func;
}

Word
runToCompletion(const ir::Module &module, SparseMemory &memory,
                const std::string &entry, const std::vector<Word> &args,
                std::uint64_t max_instrs, CommitSink *sink)
{
    NullCommitSink discard;
    CommitSink &to = sink ? *sink : discard;
    Interpreter interp(module, memory, 0);
    interp.start(entry, args, to);
    while (!interp.finished()) {
        if (interp.committed() >= max_instrs)
            cwsp_fatal("instruction budget exceeded in ", entry);
        interp.step(to);
    }
    return interp.returnValue();
}

} // namespace cwsp::interp
