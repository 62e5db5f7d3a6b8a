/**
 * @file
 * Clio-KV (§6): a key-value store running at the MN as a computation
 * offload, with atomic-write / read-committed consistency.
 *
 * Data layout inside the offload's remote address space:
 *  - a bucket array holding each bucket's first slot inline
 *    (bucket_count × kSlotBytes), so an operation starts at its slot
 *    with no head-pointer read;
 *  - slots, each holding a next pointer (chaining the bucket's
 *    overflow slots) and 7 entries of {32-bit key tag, 32-bit block
 *    length, VA of the key-value block};
 *  - key-value blocks {klen, vlen, key bytes, value bytes} carved out
 *    of slab pages (4 MB huge pages sub-allocated by the offload, so
 *    rallocs are rare and amortized).
 *
 * An offload engine is held across every dependent DRAM access, so
 * each operation makes as few as it can. A get hit reads its slot,
 * then header, key and value in one burst sized by the entry's block
 * length (2 accesses). A put writes its block in one burst, reads the
 * slot, checks a tag-matching block's header and key in one burst and
 * flips the entry (4 for an overwrite). A get miss reads each slot of
 * its bucket's chain (1 until the bucket overflows its inline slot).
 *
 * A CN-side partitioner (ClioKvClient) spreads keys across MNs; all
 * requests for one partition go to the same MN, whose ordered
 * execution of Clio ops delivers the consistency level (§6).
 */

#ifndef CLIO_APPS_KV_STORE_HH
#define CLIO_APPS_KV_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "offload/descriptor.hh"
#include "offload/offload.hh"
#include "clib/client.hh"

namespace clio {

/** KV request opcodes carried in the offload argument. */
enum class KvOp : std::uint8_t { kGet = 0, kPut = 1, kDelete = 2 };

/** Serialize a KV request into offload argument bytes. */
std::vector<std::uint8_t> kvEncode(KvOp op, const std::string &key,
                                   const std::string &value = {});

/** The MN-side offload module. */
class ClioKvOffload : public Offload
{
  public:
    /** @param bucket_count hash buckets (power of two recommended). */
    explicit ClioKvOffload(std::uint32_t bucket_count = 4096);

    /** Deployment descriptor (hash + chain walker + slab allocator). */
    static OffloadDescriptor descriptor(std::uint32_t id);

    void init(OffloadVm &vm) override;
    OffloadResult invoke(OffloadVm &vm,
                         const std::vector<std::uint8_t> &arg) override;

    /** @{ Stats for tests/benches. */
    std::uint64_t gets() const { return gets_; }
    std::uint64_t puts() const { return puts_; }
    std::uint64_t deletes() const { return deletes_; }
    std::uint64_t slabsAllocated() const { return slabs_; }
    /** @} */

    static std::uint64_t hashKey(std::string_view key);

    /** Maximum key length: lets the FPGA fetch header + key in one
     * speculative DRAM burst. */
    static constexpr std::uint64_t kMaxKeyBytes = 64;

  private:
    static constexpr std::uint32_t kEntriesPerSlot = 7;
    static constexpr std::uint64_t kSlotBytes =
        8 + kEntriesPerSlot * 16; // next + {tag, len, addr} entries
    static constexpr std::uint64_t kSlabBytes = 4 * MiB;
    /** Header and the longest key: the smallest block burst. */
    static constexpr std::uint64_t kKeyBurstBytes = 8 + kMaxKeyBytes;

    struct Entry
    {
        std::uint32_t tag = 0;  ///< upper half of the key's hash
        std::uint32_t len = 0;  ///< block length, 8 + klen + vlen
        std::uint64_t addr = 0; ///< block VA; 0 marks a free entry
    };

    struct Slot
    {
        std::uint64_t next = 0;
        Entry entries[kEntriesPerSlot];
    };
    static_assert(sizeof(Entry) == 16 && sizeof(Slot) == kSlotBytes);

    static std::uint32_t
    tagOf(std::uint64_t h)
    {
        return static_cast<std::uint32_t>(h >> 32);
    }

    /** VA of the bucket's inline first slot. */
    VirtAddr
    bucketSlot(std::uint64_t h) const
    {
        return bucket_array_ + (h % bucket_count_) * kSlotBytes;
    }

    /** Allocate `n` bytes from the current slab (new slab as needed).
     * @return 0 on allocation failure. */
    std::uint64_t slabAlloc(OffloadVm &vm, std::uint64_t n);

    /** Does the block whose first kKeyBurstBytes (at least) are in
     * `burst` hold `key`, as `entry` describes it? The stored key
     * length must equal the key's, the key bytes must compare equal,
     * and 8 + klen + vlen must equal the entry's length, so a
     * foreign, corrupt or mismatched block never matches. */
    static bool holdsKey(const Entry &entry, std::string_view key,
                         const std::uint8_t *burst);

    /** holdsKey() on the block `entry` points at, fetching its
     * header and key in one speculative burst (slabAlloc keeps it in
     * bounds). */
    static bool blockHoldsKey(OffloadVm &vm, const Entry &entry,
                              std::string_view key);

    OffloadResult get(OffloadVm &vm, std::string_view key);
    OffloadResult put(OffloadVm &vm, std::string_view key,
                      std::string_view value);
    OffloadResult del(OffloadVm &vm, std::string_view key);

    std::uint32_t bucket_count_;
    VirtAddr bucket_array_ = 0;

    /** Slab cursor (offload-local registers, not remote memory). */
    VirtAddr slab_base_ = 0;
    std::uint64_t slab_used_ = 0;

    /** Put's block staging buffer, reused across calls so a put
     * builds its block without a heap allocation. */
    std::vector<std::uint8_t> block_buf_;

    std::uint64_t gets_ = 0;
    std::uint64_t puts_ = 0;
    std::uint64_t deletes_ = 0;
    std::uint64_t slabs_ = 0;
};

/**
 * CN-side Clio-KV client: partitions keys across MNs (the paper's
 * CN-side load balancer) and invokes the per-MN offload.
 */
class ClioKvClient
{
  public:
    /** @param offload_id id under which ClioKvOffload was registered
     *  on every MN in `mns`. */
    ClioKvClient(ClioClient &client, std::vector<NodeId> mns,
                 std::uint32_t offload_id);

    bool put(const std::string &key, const std::string &value);
    std::optional<std::string> get(const std::string &key);
    bool del(const std::string &key);

    /** Batched multi-get: keys are grouped per owning MN and each
     * group ships as chained kGet stages (independent, no binds), so a
     * batch costs one round trip per MN per max_chain_depth keys
     * instead of one per key. Results align with `keys`. */
    std::vector<std::optional<std::string>>
    mget(const std::vector<std::string> &keys);

    /** MN serving a key (test hook). */
    NodeId mnForKey(const std::string &key) const;

  private:
    ClioClient &client_;
    std::vector<NodeId> mns_;
    std::uint32_t offload_id_;
};

} // namespace clio

#endif // CLIO_APPS_KV_STORE_HH
