/**
 * @file
 * What a run records for crash analysis, and how crash handling reads
 * it. A recording is an append-only log (store, region and device-op
 * records in commit order) plus the boundary-snapshot window: the
 * control snapshots of each core's last few regions, which the
 * recording driver adds and erases as the run goes on.
 *
 * Crash handling (computeCrashState, prepareResume) reads a recording
 * through a RecordingView, which owns nothing. A from-scratch epoch's
 * view reads its own RecordingBundle whole. A SimCheckpoint's view
 * reads a prefix of its capture pass's shared log, so a pass's
 * checkpoints hold one log between them instead of a copy each.
 */

#ifndef CWSP_CORE_RECORDING_HH
#define CWSP_CORE_RECORDING_HH

#include <cstddef>
#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "arch/scheme.hh"
#include "interp/machine_state.hh"

namespace cwsp::core {

/** Control snapshots per dynamic region id. */
using SnapshotMap = std::map<RegionId, interp::ControlSnapshot>;

/** The persistence log of one recording, in commit order. */
struct RecordingLog
{
    std::vector<arch::StoreRecord> stores;
    std::vector<arch::RegionEvent> regions;
    std::vector<arch::IoRecord> io;

    /** Heap bytes the three logs hold. */
    std::size_t
    bytes() const
    {
        return stores.capacity() * sizeof(arch::StoreRecord) +
               regions.capacity() * sizeof(arch::RegionEvent) +
               io.capacity() * sizeof(arch::IoRecord);
    }
};

/** Everything one epoch recorded: its log and snapshot window. */
struct RecordingBundle : RecordingLog
{
    SnapshotMap snapshots;
};

/**
 * The store records a crash instant reads, in commit order: a prefix
 * of a store log, then a tail kept apart. A from-scratch epoch reads
 * its whole log with no tail. A checkpoint reads its capture pass's
 * shared log up to the oldest record the scheme could still change,
 * then its own copy of the rest, as the capture instant saw it
 * (ReplayCache stamps a region's stores at the region's next
 * boundary, after the capture).
 */
class StoreLogView
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = arch::StoreRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = const arch::StoreRecord *;
        using reference = const arch::StoreRecord &;

        iterator() = default;
        iterator(pointer at, pointer jump_at, pointer jump_to)
            : at_(at), jumpAt_(jump_at), jumpTo_(jump_to)
        {
        }

        reference operator*() const { return *at_; }
        pointer operator->() const { return at_; }

        iterator &
        operator++()
        {
            if (++at_ == jumpAt_)
                at_ = jumpTo_;
            return *this;
        }

        iterator
        operator++(int)
        {
            iterator was = *this;
            ++*this;
            return was;
        }

        bool operator==(const iterator &o) const { return at_ == o.at_; }

      private:
        pointer at_ = nullptr;
        pointer jumpAt_ = nullptr; ///< head's end, when a tail follows
        pointer jumpTo_ = nullptr;
    };

    StoreLogView() = default;
    StoreLogView(const std::vector<arch::StoreRecord> &all) : head_(all) {}
    StoreLogView(std::span<const arch::StoreRecord> head,
                 std::span<const arch::StoreRecord> tail)
        : head_(head), tail_(tail)
    {
    }

    std::size_t size() const { return head_.size() + tail_.size(); }

    const arch::StoreRecord &
    operator[](std::size_t i) const
    {
        return i < head_.size() ? head_[i] : tail_[i - head_.size()];
    }

    iterator
    begin() const
    {
        if (head_.empty()) // == end() when the tail is empty too
            return iterator(tail_.empty() ? head_.data() : tail_.data(),
                            nullptr, nullptr);
        return iterator(head_.data(),
                        tail_.empty() ? nullptr : headEnd(),
                        tail_.data());
    }

    iterator
    end() const
    {
        if (tail_.empty())
            return iterator(headEnd(), nullptr, nullptr);
        return iterator(tail_.data() + tail_.size(), nullptr, nullptr);
    }

    /** The records as one vector (a copy). */
    std::vector<arch::StoreRecord>
    copy() const
    {
        std::vector<arch::StoreRecord> out;
        out.reserve(size());
        out.insert(out.end(), head_.begin(), head_.end());
        out.insert(out.end(), tail_.begin(), tail_.end());
        return out;
    }

  private:
    const arch::StoreRecord *headEnd() const
    {
        return head_.data() + head_.size();
    }

    std::span<const arch::StoreRecord> head_;
    std::span<const arch::StoreRecord> tail_;
};

/**
 * A recording as crash handling reads it. Views are built where they
 * are used, from a recording that no longer grows: they point into
 * its vectors.
 */
struct RecordingView
{
    StoreLogView stores;
    std::span<const arch::RegionEvent> regions;
    std::span<const arch::IoRecord> io;
    const SnapshotMap *snapshots = nullptr;

    /** All of @p bundle. */
    static RecordingView
    of(const RecordingBundle &bundle)
    {
        return RecordingView{bundle.stores, bundle.regions, bundle.io,
                             &bundle.snapshots};
    }
};

} // namespace cwsp::core

#endif // CWSP_CORE_RECORDING_HH
