#include "core/commit_stream.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace cwsp::core {

namespace {

using interp::CommitKind;

/**
 * Records every commit, flattening boundary snapshots and collapsing
 * runs of constant-cost single-commit steps into batch ops as they
 * arrive (one pass, no uncompacted intermediate).
 */
class StreamRecordSink final : public interp::CommitSink
{
  public:
    StreamRecordSink(CommitStream &stream, mem::Hierarchy &tags)
        : stream_(stream), tags_(tags)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        ++stream_.commits;
        if (info.kind == CommitKind::Load ||
            info.kind == CommitKind::Store ||
            info.kind == CommitKind::Atomic) {
            // The demand access the scheme makes for this commit.
            Addr victims[mem::tag_outcome::kMaxVictims];
            const mem::TagOutcome t =
                tags_.walk(info.core, lineAlign(info.addr),
                           info.kind != CommitKind::Load, victims);
            stream_.outcomes.push_back(t);
            stream_.victims.insert(stream_.victims.end(), victims,
                                   victims +
                                       mem::tag_outcome::victims(t));
        }
        const bool new_step = newStep_;
        newStep_ = false;
        // A held CallRet's step was a single commit iff this commit
        // starts the next step; only then is its cost a fixed 2.
        if (pending_) {
            pending_ = false;
            if (new_step)
                appendBatch(CommitStream::kBatch2);
            else
                stream_.ops.push_back(pendingOp_);
        }
        if (new_step && (info.kind == CommitKind::Alu ||
                         info.kind == CommitKind::Branch)) {
            appendBatch(CommitStream::kBatch1);
            return;
        }

        CommitStream::Op op;
        op.addr = info.addr;
        op.value = info.storeValue;
        op.func = info.func;
        op.kind = static_cast<std::uint8_t>(info.kind);
        if (new_step)
            op.flags |= CommitStream::kFlagNewStep;
        if (info.isCheckpoint)
            op.flags |= CommitStream::kFlagCkpt;
        // A Call followed by argument spills shares its step with them
        // and cannot batch; a bare CallRet (Ret / spill-free Call) can.
        // Which one this is shows with the next commit.
        if (new_step && info.kind == CommitKind::CallRet) {
            pendingOp_ = op;
            pending_ = true;
            return;
        }
        if (info.kind == CommitKind::Boundary) {
            op.aux = info.staticRegion;
            // Same snapshot a recording run takes: rewound to
            // re-commit the boundary instruction on resume.
            CommitStream::SnapRef ref;
            ref.begin = static_cast<std::uint32_t>(stream_.frames.size());
            interp_->appendSnapshot(stream_.frames);
            ref.count = static_cast<std::uint32_t>(stream_.frames.size() -
                                                   ref.begin);
            stream_.snapRefs.push_back(ref);
        }
        stream_.ops.push_back(op);
    }

    /** End of stream: a held CallRet was its step's only commit. */
    void
    finish()
    {
        if (pending_)
            appendBatch(CommitStream::kBatch2);
        pending_ = false;
    }

    void setInterpreter(interp::Interpreter *interp) { interp_ = interp; }
    void markNewStep() { newStep_ = true; }

  private:
    CommitStream &stream_;
    mem::Hierarchy &tags_;
    interp::Interpreter *interp_ = nullptr;
    bool newStep_ = false;
    bool pending_ = false;
    CommitStream::Op pendingOp_;

    /** Extend the trailing batch of kind @p bk, or start one. */
    void
    appendBatch(std::uint8_t bk)
    {
        if (!stream_.ops.empty() && stream_.ops.back().kind == bk) {
            ++stream_.ops.back().aux;
            return;
        }
        CommitStream::Op b;
        b.kind = bk;
        b.flags = CommitStream::kFlagNewStep;
        b.aux = 1;
        stream_.ops.push_back(b);
    }
};

} // namespace

CommitStream
recordCommitStream(const ir::Module &module, const std::string &entry,
                   const std::vector<Word> &args,
                   const mem::HierarchyConfig &geometry,
                   std::uint64_t max_instrs,
                   std::uint64_t expected_instrs,
                   interp::SparseMemory *final_memory)
{
    CommitStream stream;
    stream.module = &module;
    stream.entry = entry;
    stream.args = args;
    stream.geometry = mem::tagGeometryKey(geometry);
    if (expected_instrs != 0) {
        // Batching leaves about 0.4 ops per step (memory, boundary and
        // spill commits stay explicit); cap so an inflated hint cannot
        // balloon memory.
        constexpr std::uint64_t kMaxOpReserve = std::uint64_t{1} << 22;
        stream.ops.reserve(static_cast<std::size_t>(std::min(
            expected_instrs * 2 / 5, kMaxOpReserve)));
        stream.outcomes.reserve(stream.ops.capacity());
    }

    // Only the tag half of this hierarchy ever runs.
    mem::Hierarchy tags(geometry, 1);
    interp::SparseMemory memory;
    interp::Interpreter interp(module, memory, 0);
    StreamRecordSink sink(stream, tags);
    sink.setInterpreter(&interp);
    // start()'s argument-spill stores run before the step loop, so
    // they carry no new-step flag: replay applies them before the
    // first crash check, exactly as the interpreted path does.
    interp.start(entry, args, sink);
    while (!interp.finished()) {
        sink.markNewStep();
        interp.step(sink);
        if (++stream.steps > max_instrs)
            cwsp_fatal("instruction budget exceeded (", max_instrs,
                       ") while recording ", entry);
    }
    sink.finish();
    stream.returnValue = interp.returnValue();
    if (final_memory)
        *final_memory = std::move(memory);

    stream.ops.shrink_to_fit();
    stream.frames.shrink_to_fit();
    stream.snapRefs.shrink_to_fit();
    stream.outcomes.shrink_to_fit();
    stream.victims.shrink_to_fit();
    return stream;
}

CommitStream
recordCommitStream(const ir::Module &module, const std::string &entry,
                   const std::vector<Word> &args,
                   std::uint64_t max_instrs,
                   std::uint64_t expected_instrs)
{
    return recordCommitStream(module, entry, args,
                              mem::defaultHierarchy(), max_instrs,
                              expected_instrs);
}

} // namespace cwsp::core
