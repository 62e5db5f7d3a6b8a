/**
 * @file
 * CBoard: the Clio memory node device (§3.2, §4, Fig. 3).
 *
 * One CBoard combines:
 *  - a hardware *fast path* (modeled ASIC/FPGA pipeline) that serves
 *    every data access: MAT routing, TLB + hash-page-table translation,
 *    permission check, bounded-cycle page-fault handling, DRAM access,
 *    and response generation. The pipeline is smooth (II = 1): its
 *    occupancy is one datapath word per cycle, and its latency per
 *    request is a bounded, known number of cycles plus at most one
 *    DRAM access for translation;
 *  - a software *slow path* (modeled ARM SoC) that owns metadata:
 *    VA allocation (overflow-free, with retries), VA free, physical
 *    page pre-generation into the async buffer, and shadow copies;
 *  - an *extend path* hosting application offloads (§4.6);
 *  - the two pieces of bounded state the paper allows the MN: the
 *    dedup buffer for retried non-idempotent requests (T4) and the
 *    synchronization unit for rlock/rfence (T3).
 *
 * All data accesses share one core: network requests (per packet),
 * serviceFastPath() (one whole request at the pipeline head) and
 * offload VM accesses run the same per-page translate -> copy -> DRAM
 * loop, and the first two the same request executor and pipeline
 * admission charge.
 *
 * Correctness-affecting operations mutate functional state (real bytes
 * in PhysicalMemory) at packet-arrival order, while the timing model
 * computes when the response is emitted; CLib's ordering layer (T2)
 * guarantees no two dependent requests are concurrently outstanding,
 * which makes this split sound.
 */

#ifndef CLIO_CBOARD_CBOARD_HH
#define CLIO_CBOARD_CBOARD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cboard/dedup_buffer.hh"
#include "mem/frame_allocator.hh"
#include "mem/physical_memory.hh"
#include "net/network.hh"
#include "offload/offload.hh"
#include "offload/runtime.hh"
#include "pagetable/hash_page_table.hh"
#include "pagetable/tlb.hh"
#include "proto/messages.hh"
#include "sim/busy_calendar.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_index.hh"
#include "valloc/va_allocator.hh"

namespace clio {

/** Counters exported by one CBoard. */
struct CBoardStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t fences = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t offload_calls = 0;
    /** Chained offload plans dispatched (subset of offload_calls). */
    std::uint64_t offload_chains = 0;
    std::uint64_t page_faults = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t bad_address = 0;
    std::uint64_t perm_denied = 0;
    std::uint64_t out_of_memory = 0;
    std::uint64_t alloc_retries = 0;
    /** Times this board was crashed by the failure layer. */
    std::uint64_t crashes = 0;
    /** Duplicated request packets dropped by the per-part bitmap. */
    std::uint64_t dup_parts_dropped = 0;
    /** Liveness beacons emitted (health plane). */
    std::uint64_t heartbeats_sent = 0;
    /** Requests rejected for carrying a stale membership epoch. */
    std::uint64_t epoch_fenced = 0;
    /** Locks force-released by the controller's CN-death GC. */
    std::uint64_t locks_reclaimed = 0;
};

/** The hardware memory node. */
class CBoard
{
  public:
    /**
     * Create a CBoard attached to `network`.
     * @param phys_bytes on-board DRAM capacity (0 = cfg.mn_phys_bytes).
     * @param rack rack whose ToR the board's port connects to.
     */
    CBoard(EventQueue &eq, Network &network, const ModelConfig &cfg,
           std::uint64_t phys_bytes = 0, RackId rack = 0);

    NodeId nodeId() const { return node_; }

    /** @{ Component access for tests, benches, and the controller. */
    HashPageTable &pageTable() { return page_table_; }
    Tlb &tlb() { return tlb_; }
    FrameAllocator &frames() { return frames_; }
    PhysicalMemory &memory() { return memory_; }
    VaAllocator &vaAllocator() { return valloc_; }
    DedupBuffer &dedupBuffer() { return dedup_; }
    const CBoardStats &stats() const { return stats_; }
    const ModelConfig &config() const { return cfg_; }
    /** @} */

    /**
     * Deploy an offload with a full descriptor; it gets a fresh PID
     * and empty RAS. @return the offload's PID.
     */
    ProcId registerOffload(OffloadDescriptor desc,
                           std::shared_ptr<Offload> offload);

    /**
     * Register an offload that *shares* an existing address space
     * (Clio-DF style: CN computation and MN offloads on one RAS, §6).
     */
    void registerOffloadShared(OffloadDescriptor desc,
                               std::shared_ptr<Offload> offload,
                               ProcId pid);

    /** The extend-path runtime: registry, engine scheduler, stats. */
    OffloadRuntime &offloadRuntime() { return offload_rt_; }
    const OffloadRuntime &offloadRuntime() const { return offload_rt_; }

    /** Fraction of physical frames in use (controller pressure input,
     * §4.7); counts frames reserved in the async buffer as used. */
    double memoryPressure() const;

    /**
     * Controller hook invoked when a process' VA windows on this MN
     * cannot fit an allocation; should add windows (via vaAllocator())
     * and return true to make the slow path retry once.
     */
    void
    setWindowRequestHook(
        std::function<bool(ProcId, std::uint64_t)> hook)
    {
        window_request_ = std::move(hook);
    }

    /**
     * Windowed mode (multi-MN clusters): every process must allocate
     * inside controller-assigned windows, so VAs handed out by
     * different MNs never collide. The window hook is consulted up
     * front for processes with no windows yet.
     */
    void setWindowedMode(bool on) { windowed_mode_ = on; }

    /**
     * Fast-path timing for one read or write, bypassing the network —
     * used by the on-board traffic generator bench (Fig. 9), Fig. 14,
     * DevBoard and tests. It runs the same executor and per-page core
     * as a network request, with the whole payload as one unit; it
     * skips the MAC, the dedup buffer and response emission. Mutates
     * functional state exactly like a network request would.
     *
     * @param ready tick at which the request is at the pipeline head.
     * @param[out] resp filled with status/data/value.
     * @return tick at which the fast path completes the request.
     */
    Tick serviceFastPath(const RequestMsg &req, Tick ready,
                         ResponseMsg &resp);

    /** @{ Direct slow-path entry points (no network), used by offloads
     * and by the cluster controller during setup/migration. The Tick
     * return is the modeled processing cost (not including the
     * interconnect crossings a network request would pay).
     * @param populate bind physical frames eagerly (Fig. 12's
     *        Clio-Alloc-Phys series). */
    Tick slowPathAlloc(ProcId pid, std::uint64_t size, std::uint8_t perm,
                       ResponseMsg &resp, bool populate = false);
    Tick slowPathFree(ProcId pid, VirtAddr addr, ResponseMsg &resp);
    /** @} */

    /** Invoke a registered offload directly (no network) — the
     * developer-simulator path (§5) and offload unit tests.
     * @param split when non-null, receives the invocation's cost split.
     * @return modeled device time of the invocation. */
    Tick invokeOffloadLocal(std::uint32_t offload_id,
                            const std::vector<std::uint8_t> &arg,
                            OffloadResult &result,
                            OffloadCost *split = nullptr);

    /** Tear down a process: drop VA state, PTEs, frames, TLB entries. */
    void destroyProcess(ProcId pid);

    /** @{ Failure layer (chaos engine). A crashed board ignores every
     * packet (its port should also be marked down in the Network so
     * in-flight traffic is dropped); restart() models a board coming
     * back EMPTY — DRAM, page table, TLB, VA state, dedup buffer, the
     * DRAM calendar and the occupancy watermarks are all
     * reinitialized, registered offloads re-run
     * init(). Durable state is the replication/controller layer's
     * problem, exactly like on real hardware. */
    bool alive() const { return alive_; }
    void crash();
    void restart();
    /** @} */

    /** @{ Health plane. The epoch fence rejects every request stamped
     * with an epoch older than `epoch`: the controller sets it when a
     * board rejoins after being declared dead, so clients that have
     * not yet learned of the new membership cannot write to the
     * zombie's (empty) address space (split-brain prevention). A fence
     * of 0 — the boot/restart value — never fences. */
    void setEpochFence(std::uint64_t epoch) { epoch_fence_ = epoch; }
    std::uint64_t epochFence() const { return epoch_fence_; }
    /** Start emitting liveness beacons to `controller` every `period`
     * ticks, first one at `phase` (staggered per board). Beacons are
     * real packets through the fabric, so rack kills and fault windows
     * genuinely delay or drop them. */
    void startHeartbeats(NodeId controller, Tick period, Tick phase);
    /** Monotonic restart count, carried in heartbeats so the
     * controller can spot a crash+restart inside one lease window. */
    std::uint64_t incarnation() const { return incarnation_; }

    /**
     * Force-release every lock owned by CN `cn` (controller GC after a
     * CN death): the lock word is functionally written back to 0 so
     * surviving clients can acquire it. @return locks released.
     */
    std::uint64_t releaseLocksOwnedBy(NodeId cn);
    /** @} */

  private:
    friend class OffloadVm;

    /** Per-inflight-request reassembly/completion state: one pooled
     * slot, recycled through a free list (its bitmap keeps capacity). */
    struct Inflight
    {
        /** Slot holds a request (false while on the free list). */
        bool live = false;
        /** Request id the slot is indexed under. */
        ReqId id = 0;
        std::uint32_t parts_seen = 0;
        std::uint32_t total_parts = 0;
        /** Max completion tick over per-packet processing. */
        Tick done = 0;
        /** Set when any part failed translation/permission. */
        Status status = Status::kOk;
        /** Set when the dedup buffer suppresses this retried
         * write/atomic: the original's cached result (T4), which the
         * response replays. */
        std::optional<std::uint64_t> replayed;
        /** Per-part seen bitmap: switch-duplicated packets (chaos
         * hook) must not double-count toward total_parts. */
        std::vector<std::uint64_t> seen_bits;
        /** Arrival tick of the most recent packet: an abandoned
         * request (remaining packets lost, client retried under a new
         * id) stops receiving packets, which is what the GC keys on.
         * Long multi-packet transfers keep refreshing it. */
        Tick last_seen = 0;
        std::shared_ptr<const RequestMsg> req;
    };

    /** @{ Inflight slot pool. inflightFor() returns the live slot of
     * `id`, claiming a fresh one on first sight; the reference stays
     * valid until the next inflightFor(). */
    Inflight &inflightFor(ReqId id);
    void releaseInflight(ReqId id);
    void clearInflight();
    /** @} */

    /** Sweep inflight entries abandoned for longer than ~10x a client
     * timeout (their packets were lost; the client retried with a new
     * id). Runs opportunistically every few thousand packets. */
    void gcInflight();

    /** Ingress from the network. */
    void onPacket(Packet pkt);

    /** Self-rescheduling heartbeat emission. */
    void heartbeatTick();

    /** Count one packet of a multi-part request: the first sight sets
     * up the slot; a part already seen (a switch-duplicated packet)
     * is dropped. @return false when the packet must be ignored. */
    bool acceptPart(const Packet &pkt, Inflight &inflight);

    /** Charge the II=1 pipeline for `bytes` crossing the datapath, one
     * word per cycle, starting no earlier than `head`, plus parsing.
     * @return tick at which the request leaves the parser. */
    Tick pipelineAdmit(Tick head, std::uint64_t bytes);

    /** Handle one fast-path packet (read/write slice/atomic/fence).
     * @param resp the request's response when this packet completes
     *        it, else null (only write slices are not last). */
    void fastPathPacket(const Packet &pkt, Inflight &inflight,
                        ResponseMsg *resp);

    /**
     * Execute a read, write, atomic or fence after pipeline admission.
     * A write moves payload [offset, offset + len); `first_part`
     * counts the request. A read fills resp->data (empty on failure),
     * an atomic sets resp->value to the old word.
     * @return completion tick; `status` is set on failure.
     */
    Tick executeFastPath(const RequestMsg &req, std::uint64_t offset,
                         std::uint64_t len, bool first_part, Tick t,
                         Status &status, ResponseMsg *resp);

    /**
     * The per-page access core: translate each page `va` covers, copy
     * bytes between `buf` and DRAM, and charge the DRAM access. Stops
     * at the first failing page with `status` set.
     * @param split when non-null, each page's translate and DRAM time
     *        are added to it (the deltas sum to the return - t).
     * @return tick at which the last page's access completes, or at
     *         which the failing page's translation ended.
     */
    Tick accessPages(ProcId pid, VirtAddr va, std::uint8_t *buf,
                     std::uint64_t len, bool is_write, Tick t,
                     Status &status, OffloadCost *split = nullptr);

    /** Translate one VA; handles TLB, page fault, permission.
     * @return PTE copy, or nullopt with `status` set; advances `t` by
     * the modeled translation time. */
    std::optional<Pte> translateOne(ProcId pid, VirtAddr va,
                                    bool is_write, Tick &t,
                                    Status &status);

    /** Charge one DRAM access of `bytes` issued at tick `t`: it
     * occupies the DRAM for DMA setup + transfer in the earliest free
     * gap of `dram_` at or after `t`, and completes access latency
     * after its setup. @return the completion tick. */
    Tick memoryAccess(Tick t, std::uint64_t bytes, bool is_write);

    /** Handle a slow-path request (alloc/free) end to end. */
    void slowPathPacket(const Packet &pkt);

    /** Handle an extend-path (offload) request. */
    void extendPathPacket(const Packet &pkt);

    /** Send a response message back to `dst` at tick `when`. */
    void respondAt(Tick when, NodeId dst, ReqId req_id,
                   std::shared_ptr<ResponseMsg> resp);

    /** Boot-time async-buffer pre-fill (ctor and restart()). */
    void bootstrapAsyncBuffer();

    /** Schedule an async-buffer refill if one is not already pending. */
    void maybeScheduleRefill();

    /** Pop a pre-generated frame for a page fault; sets `t` to when a
     * frame is available (waits for refill when dry). Returns nullopt
     * only when physical memory is truly exhausted. */
    std::optional<PhysAddr> popFreeFrame(Tick &t);

    EventQueue &eq_;
    Network &net_;
    ModelConfig cfg_;
    NodeId node_;
    /** DRAM capacity, kept so restart() can rebuild the components. */
    std::uint64_t phys_bytes_ = 0;
    /** Cleared by crash(), set again by restart(). */
    bool alive_ = true;

    PhysicalMemory memory_;
    FrameAllocator frames_;
    HashPageTable page_table_;
    Tlb tlb_;
    VaAllocator valloc_;
    DedupBuffer dedup_;
    AsyncFreePageBuffer async_buffer_;

    /** DRAM occupancy calendar (timing model). Offload calls book
     * their accesses at future logical ticks when they are admitted;
     * an access issued later but at an earlier tick (another engine,
     * the fast path) fills the gaps before those bookings rather than
     * queueing behind the latest one. */
    BusyCalendar dram_;
    /** @{ Resource-occupancy watermarks (timing model). */
    Tick pipeline_free_ = 0;  ///< fast-path pipeline (II=1 occupancy)
    Tick atomic_free_ = 0;    ///< synchronization unit serialization
    Tick arm_free_ = 0;       ///< slow-path ARM worker serialization
    Tick gate_open_ = 0;      ///< rfence gate: ops start after this
    Tick last_op_done_ = 0;   ///< watermark of latest op completion
    /** @} */

    /** Async-buffer refill bookkeeping. */
    bool refill_pending_ = false;
    Tick refill_done_ = 0;
    /** Max frames the buffer reserves (≤ capacity; bounded by a
     * quarter of physical memory for small configurations). */
    std::uint32_t reserve_cap_ = 0;

    /** Inflight requests: id -> slot in inflight_slots_. */
    FlatIndex<ReqId> inflight_;
    std::vector<Inflight> inflight_slots_;
    std::vector<std::uint32_t> inflight_free_;
    std::uint64_t packets_since_gc_ = 0;

    /** Recycling ring for response messages (one per completed
     * request; alive ~one RTT until the CN's completion fires). */
    MessagePool<ResponseMsg> resp_pool_;

    /** Extend-path runtime (registry + engine scheduler). Deployments
     * are durable configuration: they survive crash()/restart(), which
     * re-runs init() via OffloadRuntime::reinit(). */
    OffloadRuntime offload_rt_;

    std::function<bool(ProcId, std::uint64_t)> window_request_;
    bool windowed_mode_ = false;

    /** @{ Health-plane state. Lock ownership is an ordered map so the
     * CN-death GC iterates (and thus writes memory) in a deterministic
     * order; keyed (pid, lock VA), value = owning CN's node. */
    std::map<std::pair<ProcId, VirtAddr>, NodeId> lock_owners_;
    std::uint64_t epoch_fence_ = 0;
    std::uint64_t incarnation_ = 0;
    NodeId hb_controller_ = 0;
    Tick hb_period_ = 0;
    std::uint64_t hb_seq_ = 0;
    bool hb_running_ = false;
    /** @} */

    CBoardStats stats_;
};

} // namespace clio

#endif // CLIO_CBOARD_CBOARD_HH
