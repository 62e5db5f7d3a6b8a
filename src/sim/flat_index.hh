/**
 * @file
 * Open-addressed key -> uint32 index for the simulator's request paths.
 *
 * Every hot per-request table (the CN's outstanding-request map, the
 * MN's inflight reassembly map and dedup ring, the TLB's CAM) maps a
 * small key to a slot in a pooled array. FlatIndex is that map as one
 * contiguous power-of-two table: linear probing, Fibonacci hashing of
 * the key's 64-bit hash (top bits pick the home slot), and
 * backward-shift erase, so there are no tombstones and a probe chain
 * never outlives the entries that formed it. The table stays at most
 * half full and doubles when an insert would pass that; sized for its
 * peak up front, it never allocates after construction.
 *
 * The index stores values, not bodies: owners keep their records in a
 * pooled array and the index maps a key to the record's position.
 * Iteration is deliberately not offered — callers that must visit
 * every entry walk their own pool in its (deterministic) order.
 */

#ifndef CLIO_SIM_FLAT_INDEX_HH
#define CLIO_SIM_FLAT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace clio {

/** Identity hash for integer keys (the index mixes the bits itself). */
struct FlatIdentityHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return key;
    }
};

/** Open-addressed `Key -> uint32` map (see file comment). */
template <typename Key, typename Hash = FlatIdentityHash>
class FlatIndex
{
  public:
    /** Returned by find() for an absent key; never a storable value. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** @param expected entries the table holds without growing. */
    explicit FlatIndex(std::uint32_t expected = 8)
    {
        const std::uint64_t want =
            std::max<std::uint64_t>(4, 2 * std::uint64_t{expected});
        resize(static_cast<std::uint32_t>(std::bit_ceil(want)));
    }

    /** Value stored under `key`, or kNone. */
    std::uint32_t
    find(const Key &key) const
    {
        for (std::uint32_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.value == kNone)
                return kNone;
            if (s.key == key)
                return s.value;
        }
    }

    /** Insert `key -> value` unless `key` is present (the stored value
     * is then left alone). @return whether it was inserted. */
    bool
    insert(const Key &key, std::uint32_t value)
    {
        clio_assert(value != kNone, "FlatIndex value collides with kNone");
        if (2 * (std::uint64_t{size_} + 1) > slots_.size())
            resize(static_cast<std::uint32_t>(2 * slots_.size()));
        std::uint32_t i = home(key);
        for (; slots_[i].value != kNone; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return false;
        }
        slots_[i] = Slot{key, value};
        size_++;
        return true;
    }

    /** Remove `key`. @return whether it was present. */
    bool
    erase(const Key &key)
    {
        std::uint32_t i = home(key);
        for (; slots_[i].value != kNone; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                break;
        }
        if (slots_[i].value == kNone)
            return false;
        // Backward shift: pull each later chain member whose home is
        // not in (i, j] into the hole, so lookups that used to probe
        // past the erased slot still find their entry.
        for (std::uint32_t j = (i + 1) & mask_; slots_[j].value != kNone;
             j = (j + 1) & mask_) {
            const std::uint32_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].value = kNone;
        size_--;
        return true;
    }

    /** Drop every entry, keeping the table's capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.value = kNone;
        size_ = 0;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Table length (a power of two; test hook for probe geometry). */
    std::uint32_t
    tableSize() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Home slot of `key` in the current table (test hook). */
    std::uint32_t
    home(const Key &key) const
    {
        return static_cast<std::uint32_t>(
            (Hash{}(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    }

  private:
    struct Slot
    {
        Key key{};
        /** kNone marks an empty slot. */
        std::uint32_t value = kNone;
    };

    /** Rebuild at `n` slots (a power of two >= 4), re-placing every
     * entry in old-table order. */
    void
    resize(std::uint32_t n)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(n));
        size_ = 0;
        for (const Slot &s : old) {
            if (s.value != kNone)
                insert(s.key, s.value);
        }
    }

    std::vector<Slot> slots_;
    std::uint32_t mask_ = 0;
    std::uint32_t shift_ = 64;
    std::uint32_t size_ = 0;
};

} // namespace clio

#endif // CLIO_SIM_FLAT_INDEX_HH
