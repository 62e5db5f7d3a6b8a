/**
 * @file
 * Clio-KV (§6): a key-value store running at the MN as a computation
 * offload, with atomic-write / read-committed consistency.
 *
 * Data layout inside the offload's remote address space:
 *  - a bucket array (one 8-byte head pointer per bucket);
 *  - chains of slots, each holding a next pointer and 7 entries of
 *    {64-bit key fingerprint, VA of the key-value block};
 *  - key-value blocks {klen, vlen, key bytes, value bytes} carved out
 *    of slab pages (4 MB huge pages sub-allocated by the offload, so
 *    rallocs are rare and amortized).
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

    static std::uint64_t hashKey(const std::string &key);

    /** Maximum key length: lets the FPGA fetch header + key in one
     * speculative DRAM burst. */
    static constexpr std::uint64_t kMaxKeyBytes = 64;

  private:
    static constexpr std::uint32_t kEntriesPerSlot = 7;
    static constexpr std::uint64_t kSlotBytes =
        8 + kEntriesPerSlot * 16; // next + {fp, addr} entries
    static constexpr std::uint64_t kSlabBytes = 4 * MiB;

    struct Entry
    {
        std::uint64_t fp = 0;
        std::uint64_t addr = 0;
    };

    struct Slot
    {
        std::uint64_t next = 0;
        Entry entries[kEntriesPerSlot];
    };

    /** Allocate `n` bytes from the current slab (new slab as needed).
     * @return 0 on allocation failure. */
    std::uint64_t slabAlloc(OffloadVm &vm, std::uint64_t n);

    bool readSlot(OffloadVm &vm, std::uint64_t addr, Slot &slot);
    bool writeSlot(OffloadVm &vm, std::uint64_t addr, const Slot &slot);

    /** Does the block at `addr` hold `key`? One speculative burst
     * fetches its header and key together; a stored key length over
     * kMaxKeyBytes (a foreign or corrupt block) never matches.
     * @param value_len when non-null, receives the value's length. */
    static bool blockHoldsKey(OffloadVm &vm, std::uint64_t addr,
                              const std::string &key,
                              std::uint32_t *value_len = nullptr);

    OffloadResult get(OffloadVm &vm, const std::string &key);
    OffloadResult put(OffloadVm &vm, const std::string &key,
                      const std::string &value);
    OffloadResult del(OffloadVm &vm, const std::string &key);

    std::uint32_t bucket_count_;
    VirtAddr bucket_array_ = 0;

    /** Slab cursor (offload-local registers, not remote memory). */
    VirtAddr slab_base_ = 0;
    std::uint64_t slab_used_ = 0;

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
