#include "core/recovery_engine.hh"

#include "sim/logging.hh"

namespace cwsp::core {

namespace {

/**
 * Apply one slice op. Returns false only for a LoadSlot whose memory
 * value disagrees with the stamped slot image (stale slot).
 */
bool
applyRsOp(interp::Interpreter &interp, const ir::RsOp &op,
          std::size_t frame_depth,
          const std::map<Addr, SlotImageEntry> *slot_image)
{
    switch (op.kind) {
      case ir::RsOp::Kind::LoadSlot: {
        Addr slot = interp::ckptSlotAddr(interp.core(), frame_depth,
                                         op.slot);
        Word v = interp.memory().read(slot);
        if (slot_image) {
            auto it = slot_image->find(slot);
            if (it != slot_image->end() && it->second.value != v)
                return false;
        }
        interp.setReg(op.dst, v);
        return true;
      }
      case ir::RsOp::Kind::SetImm:
        interp.setReg(op.dst, static_cast<Word>(op.imm));
        return true;
      case ir::RsOp::Kind::Apply: {
        Word a = interp.reg(op.srcA);
        Word b = op.bIsImm ? static_cast<Word>(op.imm)
                           : interp.reg(op.srcB);
        Word r = 0;
        switch (op.op) {
          case ir::Opcode::Add: r = a + b; break;
          case ir::Opcode::Sub: r = a - b; break;
          case ir::Opcode::Mul: r = a * b; break;
          case ir::Opcode::And: r = a & b; break;
          case ir::Opcode::Or: r = a | b; break;
          case ir::Opcode::Xor: r = a ^ b; break;
          case ir::Opcode::Shl: r = a << (b & 63); break;
          case ir::Opcode::Shr: r = a >> (b & 63); break;
          case ir::Opcode::Mov: r = a; break;
          default:
            cwsp_panic("unsupported opcode in recovery slice");
        }
        interp.setReg(op.dst, r);
        return true;
      }
    }
    cwsp_panic("unreachable recovery-slice op kind");
}

} // namespace

bool
runRecoverySlice(interp::Interpreter &interp,
                 const ir::RecoverySlice &slice,
                 const std::map<Addr, SlotImageEntry> *slot_image)
{
    std::size_t depth = interp.depth() - 1;
    for (const auto &op : slice.ops) {
        if (!applyRsOp(interp, op, depth, slot_image))
            return false;
    }
    return true;
}

ResumeStatus
prepareResume(interp::Interpreter &interp, const ResumePoint &rp,
              const RecordingView &recording, const ir::Module &module,
              sim::TraceBuffer *trace, Tick when,
              interp::CommitSink *boundary_sink,
              const std::map<Addr, SlotImageEntry> *slot_image)
{
    cwsp_assert(rp.hasWork, "prepareResume on an idle core");
    if (rp.restart)
        return ResumeStatus::NeedRestart;

    auto it = recording.snapshots->find(rp.region);
    cwsp_assert(it != recording.snapshots->end(),
                "no control snapshot for resume region ", rp.region,
                " (snapshot ring too small?)");
    interp.restoreForRecovery(it->second);

    const ir::Function &func = module.function(rp.func);
    cwsp_assert(rp.staticRegion < func.recoverySlices().size(),
                "resume region has no recovery slice");
    const ir::RecoverySlice &slice =
        func.recoverySlices()[rp.staticRegion];
    if (!runRecoverySlice(interp, slice, slot_image))
        return ResumeStatus::SlotFault;
    if (trace) {
        auto lane = sim::coreLane(interp.core());
        trace->record(sim::TraceEventKind::RecoverySlice, lane, when,
                      0, slice.ops.size(), rp.staticRegion);
        trace->record(sim::TraceEventKind::RecoveryResume, lane, when,
                      0, rp.region, 0);
    }

    if (rp.resumeAfterAtomic) {
        // The region's atomic persisted before the failure and must
        // not re-execute. Step over the boundary, then install the
        // atomic's result from its post-atomic checkpoint slot
        // (persisted failure-atomically with the atomic itself).
        interp::NullCommitSink null_sink;
        interp::CommitSink &sink =
            boundary_sink ? *boundary_sink
                          : static_cast<interp::CommitSink &>(
                                null_sink);
        cwsp_assert(interp.currentInstr().op ==
                        ir::Opcode::RegionBoundary,
                    "atomic resume must sit at the region boundary");
        interp.step(sink);
        const ir::Instr &atomic = interp.currentInstr();
        cwsp_assert(ir::isAtomic(atomic.op),
                    "atomic region does not start with an atomic");
        Addr slot = interp::ckptSlotAddr(
            interp.core(), interp.depth() - 1, atomic.dst);
        interp.skipAtomic(interp.memory().read(slot));
    }
    return ResumeStatus::Resumed;
}

} // namespace cwsp::core
