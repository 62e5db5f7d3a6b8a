/**
 * @file
 * Replicated remote memory (§8): the paper leaves failure handling to
 * services built on Clio and suggests offering "primitives like
 * replicated writes for users to build their own services". This is
 * that primitive: a region mirrored across two MNs, with writes going
 * to both replicas and reads served by the primary, failing over to
 * the backup when the primary stops answering.
 *
 * Consistency: writes complete when BOTH replicas ack (write-all);
 * reads are served by one replica (read-one). Combined with Clio's
 * per-request ordering this gives linearizable single-writer
 * semantics; multi-writer applications coordinate with rlock as
 * usual.
 *
 * Self-healing: regions announce themselves to a ReplicaRegistry
 * (implemented by the cluster's health plane) when one is attached to
 * their client. When the controller declares a replica's MN dead it
 * calls markMnDead() and later drives beginResync() — an asynchronous
 * chunked copy from the survivor onto a replacement MN that runs as
 * ordinary simulator events, concurrently with foreground traffic.
 * During resync, reads stay on the survivor (degraded mode) and
 * writes mirror into the already-copied prefix of the target, so the
 * region is consistent the instant the last chunk lands; the swap to
 * fully-redundant happens only then. The correctness of
 * mirror-from-read-issue is anchored on the client's T2 ordering: a
 * mirror issued after a chunk's copy-write lands after it (WAW on the
 * target VA). A write that overlaps a chunk whose survivor read is
 * still in flight queues behind that read (WAR), so the read returns
 * the pre-write bytes and the copy-write is issued after the mirror:
 * the write's bytes are kept and laid over the chunk before it is
 * copied.
 */

#ifndef CLIO_CLIB_REPLICATION_HH
#define CLIO_CLIB_REPLICATION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "clib/client.hh"
#include "clib/queue.hh"

namespace clio {

class ReplicatedRegion;

/**
 * Controller-side registry of replicated regions. Implemented by the
 * cluster health plane; declared here so clib stays independent of
 * the cluster layer. Regions register at construction (when their
 * client carries a registry) and unregister at destroy()/destruction.
 */
class ReplicaRegistry
{
  public:
    virtual ~ReplicaRegistry() = default;
    virtual void addRegion(ReplicatedRegion *region) = 0;
    virtual void removeRegion(ReplicatedRegion *region) = 0;
};

/** A fixed-size region mirrored on two memory nodes. */
class ReplicatedRegion
{
  public:
    /**
     * Allocate `size` bytes on two distinct MNs.
     * @param primary_mn / @param backup_mn target boards.
     * ok() reports whether both allocations succeeded.
     */
    ReplicatedRegion(ClioClient &client, std::uint64_t size,
                     NodeId primary_mn, NodeId backup_mn);
    ~ReplicatedRegion();

    ReplicatedRegion(const ReplicatedRegion &) = delete;
    ReplicatedRegion &operator=(const ReplicatedRegion &) = delete;

    bool ok() const { return primary_ != 0 && backup_ != 0; }
    std::uint64_t size() const { return size_; }

    /** Offset-addressed write to BOTH replicas (completes when both
     * ack; a replica that exhausts retries marks itself failed).
     * While a resync runs, the write additionally mirrors into the
     * already-copied prefix of the resync target. */
    Status write(std::uint64_t offset, const void *src,
                 std::uint64_t len);

    /** Offset-addressed read from the primary, failing over to the
     * backup when the primary is marked or becomes unreachable. */
    Status read(std::uint64_t offset, void *dst, std::uint64_t len);

    /** @{ Health introspection. */
    bool primaryAlive() const { return primary_alive_; }
    bool backupAlive() const { return backup_alive_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t resyncs() const { return resyncs_; }
    bool degraded() const { return !primary_alive_ || !backup_alive_; }
    bool bothDead() const { return !primary_alive_ && !backup_alive_; }
    /** Both replicas healthy and no copy in flight. */
    bool fullyRedundant() const
    {
        return primary_alive_ && backup_alive_ && !resync_.active;
    }
    bool resyncActive() const { return resync_.active; }
    NodeId primaryMn() const { return primary_mn_; }
    NodeId backupMn() const { return backup_mn_; }
    VirtAddr primaryVa() const { return primary_; }
    VirtAddr backupVa() const { return backup_; }
    ClioClient &client() { return client_; }
    /** @} */

    /**
     * Re-replicate after a replica died: allocate a fresh copy on
     * `replacement_mn` (a restarted or spare board, distinct from the
     * survivor's MN), stream the surviving replica's bytes into it,
     * and swap it in for the dead slot. No-op (kOk) when both replicas
     * are healthy; kRetryExceeded when both are dead (nothing left to
     * copy from) or a controller resync is already running; kTimeout
     * when the SURVIVOR dies mid-copy or a replica's MN is declared
     * dead meanwhile (the half-copied replacement is abandoned, never
     * marked healthy); otherwise the status of the failing alloc or
     * copy-write. The dead replica's old VA is NOT
     * freed — its board lost that state when it crashed. Synchronous:
     * it runs beginResync() and pumps the simulation until it ends.
     */
    Status heal(NodeId replacement_mn);

    /** @{ Controller hooks (health plane). */

    /** Mark any replica living on MN `mn` dead (board declared dead by
     * the failure detector). Aborts an active resync whose source or
     * target sits on that MN. */
    void markMnDead(NodeId mn);

    /**
     * Start an asynchronous controller-driven re-replication onto
     * `replacement_mn`: alloc, then a chunked read→write pipeline of
     * CLibConfig::resync_chunk_bytes per step, advanced by completion
     * events (no pumping). `done(status)` fires exactly once from an
     * event context: kOk once the copy is swapped in, kTimeout when
     * the survivor died or a replica's MN was declared dead mid-copy,
     * else the failing alloc's or copy-write's status. @return false
     * when not applicable (healthy, both dead, already resyncing, or
     * replacement == survivor's MN).
     */
    bool beginResync(NodeId replacement_mn,
                     std::function<void(Status)> done);
    /** @} */

    /** Release both replicas (and unregister from the registry). */
    void destroy();

  private:
    /** Resync tags on resync_cq_. */
    static constexpr std::uint64_t kTagAlloc = 0;
    static constexpr std::uint64_t kTagRead = 1;
    static constexpr std::uint64_t kTagWrite = 2;

    /** Drain-hook target: advance the resync state machine. */
    void pumpResync();
    /** Issue the read of the next chunk (or finish when done). */
    void issueResyncRead();
    void finishResync(Status status);

    ClioClient &client_;
    std::uint64_t size_ = 0;
    VirtAddr primary_ = 0;
    VirtAddr backup_ = 0;
    NodeId primary_mn_ = 0;
    NodeId backup_mn_ = 0;
    bool primary_alive_ = true;
    bool backup_alive_ = true;
    std::uint64_t failovers_ = 0;
    std::uint64_t resyncs_ = 0;
    bool registered_ = false;

    /** Asynchronous resync state (one chunk in flight at a time; the
     * concurrency cap across regions lives in the health plane). */
    struct Resync
    {
        bool active = false;
        /** Set when the source/target died mid-copy; the state machine
         * fails at the next completion. */
        bool aborting = false;
        NodeId target_mn = kNoNode;
        VirtAddr target_va = 0;
        std::uint64_t chunk = 0;
        /** Next offset whose read has NOT been issued yet. Writes at
         * offsets below this mirror into the target (see file docs). */
        std::uint64_t read_issued_end = 0;
        /** Chunk currently in flight. */
        std::uint64_t cur_off = 0;
        std::uint64_t cur_len = 0;
        /** Its survivor read is outstanding (no copy-write yet). */
        bool reading = false;
        /** The part of a foreground write that overlapped the chunk
         * while `reading`, at its offset in the region. */
        struct Patch
        {
            std::uint64_t off = 0;
            std::vector<std::uint8_t> bytes;
        };
        /** Laid over `buf`, in write order, before the copy-write. */
        std::vector<Patch> patches;
        std::vector<std::uint8_t> buf;
        std::function<void(Status)> done;
    };
    Resync resync_;
    CompletionQueue resync_cq_;
};

} // namespace clio

#endif // CLIO_CLIB_REPLICATION_HH
