/**
 * @file
 * On-chip TLB model (§4.2): a fixed-size content-addressable store of
 * recently used PTEs with LRU replacement. Lookup is a single fast-path
 * cycle; a miss costs exactly one DRAM bucket fetch from the hash page
 * table.
 *
 * Layout: the CAM is modeled as a fixed array of `capacity` entries
 * allocated at construction, an exact-LRU list threaded through the
 * entries by index, and an open-addressed (pid, vpn) -> entry index
 * sized for `capacity` keys. Hits, misses and eviction order are those
 * of a textbook LRU; no operation allocates.
 */

#ifndef CLIO_PAGETABLE_TLB_HH
#define CLIO_PAGETABLE_TLB_HH

#include <cstdint>
#include <vector>

#include "pagetable/pte.hh"
#include "sim/flat_index.hh"
#include "sim/types.hh"

namespace clio {

/** Fixed-capacity fully-associative LRU TLB. */
class Tlb
{
  public:
    explicit Tlb(std::uint32_t capacity);

    /**
     * Look up (pid, vpn); promotes the entry to MRU on hit.
     * @return cached copy of the PTE, or nullptr on miss. The pointer
     *         stays valid until the next mutating call.
     */
    const Pte *lookup(ProcId pid, std::uint64_t vpn);

    /** Insert (or overwrite) an entry, evicting LRU when full. */
    void insert(const Pte &pte);

    /**
     * Update a cached entry in place if it exists (used when a PTE
     * changes, keeping TLB and page table consistent, §4.2).
     */
    void update(const Pte &pte);

    /** Drop one entry if cached (rfree / remap). */
    void invalidate(ProcId pid, std::uint64_t vpn);

    /** Drop every entry of one process (address space teardown). */
    void invalidateProcess(ProcId pid);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return index_.size(); }

    /** @{ Index geometry (test hooks, for building colliding keys):
     * home slot of (pid, vpn) and the index's table length. */
    std::uint32_t
    indexHome(ProcId pid, std::uint64_t vpn) const
    {
        return index_.home(Key{pid, vpn});
    }
    std::uint32_t indexSlots() const { return index_.tableSize(); }
    /** @} */

    /** @{ Hit/miss counters for stats and benches. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    struct Key
    {
        ProcId pid;
        std::uint64_t vpn;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::uint64_t
        operator()(const Key &k) const
        {
            // Mix pid into the vpn with a 64-bit multiply-shift.
            std::uint64_t x = k.vpn * 0x9E3779B97F4A7C15ull + k.pid;
            x ^= x >> 32;
            return x;
        }
    };

    /** Terminates the LRU list and the free chain. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One CAM entry; `prev`/`next` link the LRU list (or, for a free
     * entry, `next` links the free chain). */
    struct Entry
    {
        Pte pte;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Unlink entry `e` from the LRU list. */
    void unlink(std::uint32_t e);
    /** Link entry `e` at the MRU end. */
    void pushMru(std::uint32_t e);
    /** Move linked entry `e` to the MRU end. */
    void promote(std::uint32_t e);
    /** Drop entry `e`: unlink, unindex, return it to the free chain. */
    void release(std::uint32_t e);

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    FlatIndex<Key, KeyHash> index_;
    std::uint32_t mru_ = kNil;
    std::uint32_t lru_ = kNil;
    std::uint32_t free_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace clio

#endif // CLIO_PAGETABLE_TLB_HH
