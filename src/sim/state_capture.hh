/**
 * @file
 * Flat-buffer state serialization for simulator checkpoints. A
 * component writes its complete mutable state as a sequence of POD
 * values / arrays into one contiguous byte buffer (StateWriter) and
 * later restores it from the same sequence (StateReader). The
 * protocol is positional: capture and restore must visit fields in
 * the same order, which both live in the same method pair of each
 * component, so the compiler keeps them in lockstep.
 *
 * No type tags, no alignment padding: the buffer is a private
 * arena-to-arena transport between two identically configured
 * component trees, never a persistent interchange format. A size
 * mismatch (reading past the end) is a simulator bug and asserts.
 */

#ifndef CWSP_SIM_STATE_CAPTURE_HH
#define CWSP_SIM_STATE_CAPTURE_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace cwsp::sim {

/** Appends POD values / arrays to a byte buffer. */
class StateWriter
{
  public:
    explicit StateWriter(std::vector<std::uint8_t> &buf) : buf_(buf) {}

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state capture is memcpy-based");
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    /** Fixed-length array whose length both sides already know. */
    template <typename T>
    void
    array(const T *p, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state capture is memcpy-based");
        const auto *b = reinterpret_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n * sizeof(T));
    }

    /** Length-prefixed array (u64 count, then the elements). */
    template <typename T>
    void
    sizedArray(const T *p, std::size_t n)
    {
        pod<std::uint64_t>(n);
        array(p, n);
    }

    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> &buf_;
};

/** Reads back the sequence a StateWriter produced. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state capture is memcpy-based");
        cwsp_assert(pos_ + sizeof(T) <= size_,
                    "state restore past end of capture buffer");
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    template <typename T>
    void
    array(T *p, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state capture is memcpy-based");
        cwsp_assert(pos_ + n * sizeof(T) <= size_,
                    "state restore past end of capture buffer");
        // An empty array may have no storage: memcpy from or to a
        // null pointer is undefined even for zero bytes.
        if (n != 0)
            std::memcpy(p, data_ + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
    }

    /** Count prefix of a sizedArray; caller then calls array(). */
    std::uint64_t count() { return pod<std::uint64_t>(); }

    bool exhausted() const { return pos_ == size_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace cwsp::sim

#endif // CWSP_SIM_STATE_CAPTURE_HH
