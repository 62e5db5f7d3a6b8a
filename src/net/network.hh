/**
 * @file
 * Datacenter network model: a two-tier leaf/spine fabric.
 *
 * Every node (CN NIC or CBoard port) belongs to one rack and connects
 * to that rack's ToR (leaf) switch by a full-duplex link. Racks are
 * joined by aggregation links to a spine: a cross-rack packet
 * traverses source ToR -> uplink -> spine -> downlink -> destination
 * ToR, paying serialization and bounded queueing at each hop. With
 * every node in rack 0 (the default) no aggregation hop exists and
 * the model degenerates to the paper's single-ToR topology (§3.2:
 * CNs and CBoards all connect to one ToR).
 *
 * The model captures the effects the paper's transport design reacts
 * to: per-link serialization (bandwidth), propagation and switching
 * delay, output-queue contention at every switch stage (incast!),
 * random loss/corruption/reordering for fault injection, and optional
 * lossless (PFC-like) back-pressure instead of tail drop.
 *
 * Queue accounting: a packet occupies a switch output queue from its
 * admission until `out_done` — the instant its last byte leaves the
 * output port — NOT until delivery (which additionally includes the
 * final link propagation plus jitter/reorder delay). Occupancy is
 * kept as a per-stage FIFO of departure times in one contiguous,
 * recycled buffer, drained lazily, which is equivalent to scheduling
 * one drain event per packet at its `out_done` without the event
 * overhead.
 *
 * Lossless (PFC-like) mode is bounded-queue back-pressure: when an
 * output queue along the path is full at submission time, the packet
 * is held at the source NIC (its `tx_start` is delayed) until the
 * queue has room; stalls are counted in NetStats. Queues never grow
 * unbounded in either mode.
 *
 * Control-plane lane: packets flagged Packet::priority (liveness
 * heartbeats) model an 802.1p-style strict-priority class — they
 * neither wait for nor occupy NIC/switch data queues, so a bulk
 * transfer serializing on a node's link cannot delay its beacons past
 * a failure-detector lease. They still pay serialization, propagation
 * and switching latency, and remain subject to loss, corruption,
 * jitter, reordering, and the chaos fault hook.
 */

#ifndef CLIO_NET_NETWORK_HH
#define CLIO_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {

/** Aggregate network statistics (per Network instance). */
struct NetStats
{
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_random = 0;
    std::uint64_t dropped_queue = 0;     ///< ToR output tail drops
    std::uint64_t dropped_agg_queue = 0; ///< uplink/downlink tail drops
    /** Dropped because an endpoint node or rack ToR was marked down
     * (at submission, or at delivery for packets already in flight). */
    std::uint64_t dropped_down = 0;
    /** Dropped by the installed fault hook. */
    std::uint64_t dropped_fault = 0;
    /** Extra deliveries scheduled by the fault hook. */
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t reordered = 0;
    std::uint64_t bytes_delivered = 0;
    /** Packets that crossed the spine (src and dst in different racks). */
    std::uint64_t cross_rack = 0;
    /** Lossless mode: sends whose tx_start was delayed because an
     * output queue along the path was full (PFC-like back-pressure). */
    std::uint64_t pfc_stalls = 0;
    /** Total ticks of back-pressure delay added to tx_start. */
    std::uint64_t pfc_stall_ticks = 0;
    /** Peak ToR output-queue occupancy observed at any packet's
     * arrival at the queue; never exceeds switch_queue_packets in
     * either mode (lossless admission delay / lossy tail drop). */
    std::uint32_t peak_queue_depth = 0;
    /** Packets that took the strict-priority control lane (heartbeats;
     * Packet::priority) and bypassed NIC/switch data queues. */
    std::uint64_t priority_bypass = 0;
};

/** Switch stage a packet is traversing when the fault hook fires. */
enum class NetStage : std::uint8_t {
    kTor,    ///< destination ToR output port (every packet)
    kAggUp,  ///< source rack's uplink toward the spine (cross-rack)
    kAggDown ///< destination rack's downlink from the spine (cross-rack)
};

/** What the fault hook decided for one packet at one stage. */
struct FaultVerdict
{
    bool drop = false;
    bool corrupt = false;
    /** Deliver a second copy of the packet (after reorder_delay). */
    bool duplicate = false;
    /** Extra delivery delay added by this stage. */
    Tick extra_delay = 0;
};

/** The leaf/spine-switched network connecting every node of a cluster. */
class Network
{
  public:
    using RxHandler = std::function<void(Packet)>;

    /**
     * Deterministic fault-injection hook, consulted once per switch
     * stage a packet traverses (kTor always; kAggUp/kAggDown only for
     * cross-rack packets, in path order). When no hook is installed
     * the send path performs exactly the same RNG draws as before, so
     * installing chaos never perturbs fault-free seeds.
     */
    using FaultHook = std::function<FaultVerdict(const Packet &, NetStage)>;

    Network(EventQueue &eq, const NetConfig &cfg, std::uint64_t seed);

    /**
     * Attach a node; returns its NodeId.
     * @param rx   ingress handler invoked at delivery time.
     * @param link_bandwidth_bps 0 = use the config default.
     * @param rack rack (leaf switch) the node's link terminates at.
     */
    NodeId addNode(RxHandler rx, std::uint64_t link_bandwidth_bps = 0,
                   RackId rack = 0);

    /**
     * Transmit a packet from pkt.src to pkt.dst. Serialization starts
     * when the source link is free (and, in lossless mode, when every
     * output queue along the path has room); delivery happens via the
     * event queue after switch traversal (or never, if dropped).
     */
    void send(Packet pkt);

    /**
     * Estimated backlog, in ticks, of the ToR output port that feeds
     * `node`'s ingress link — i.e. how far ahead of now that port's
     * egress is booked (diagnostic / congestion-observability hook).
     * This measures contention at the switch output, not load on the
     * node's own egress link.
     */
    Tick switchEgressBacklog(NodeId node) const;

    /** Rack of a node. */
    RackId rackOf(NodeId node) const;

    /** @{ Failure domains. A down node (dead NIC/board port) or a down
     * rack (dead ToR) drops every packet to or from it — both packets
     * submitted later and packets already in flight at delivery time. */
    void setNodeDown(NodeId node, bool down);
    bool nodeDown(NodeId node) const;
    void setRackDown(RackId rack, bool down);
    bool rackDown(RackId rack) const;
    /** @} */

    /** Install / clear the fault-injection hook. */
    void setFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }
    void clearFaultHook() { fault_hook_ = nullptr; }

    /** Number of racks seen so far (max rack id + 1; >= 1). */
    std::uint32_t rackCount() const
    {
        return static_cast<std::uint32_t>(racks_.size() ? racks_.size()
                                                        : 1);
    }

    const NetStats &stats() const { return stats_; }
    void resetStats() { stats_ = NetStats{}; }

    const NetConfig &config() const { return cfg_; }

  private:
    /**
     * FIFO of departure times over one contiguous buffer: live entries
     * are buf[head, end), so indexing and binary search see a plain
     * sorted array. Popping advances `head`; a push into a full buffer
     * first slides the live tail to the front when at least half the
     * buffer is dead, so the buffer stays within a small multiple of
     * the peak occupancy and steady-state traffic never allocates.
     */
    class DepartureFifo
    {
      public:
        bool empty() const { return head_ == buf_.size(); }
        std::size_t size() const { return buf_.size() - head_; }
        Tick front() const { return buf_[head_]; }
        Tick operator[](std::size_t i) const { return buf_[head_ + i]; }
        const Tick *begin() const { return buf_.data() + head_; }
        const Tick *end() const { return buf_.data() + buf_.size(); }

        void
        pop_front()
        {
            if (++head_ == buf_.size()) {
                buf_.clear();
                head_ = 0;
            }
        }

        void
        push_back(Tick t)
        {
            if (buf_.size() == buf_.capacity() && 2 * head_ >= buf_.size()) {
                buf_.erase(buf_.begin(),
                           buf_.begin() + static_cast<std::ptrdiff_t>(head_));
                head_ = 0;
            }
            buf_.push_back(t);
        }

      private:
        std::vector<Tick> buf_;
        std::size_t head_ = 0;
    };

    /**
     * One switch output stage (a ToR output port, a rack uplink, or a
     * rack downlink): when its egress is next idle, plus the departure
     * times of every packet committed to it and not yet departed.
     * `drain.size()` IS the committed occupancy; entries <= now are
     * popped lazily (equivalent to a drain event at each out_done).
     */
    struct Stage
    {
        /** When the stage's egress link becomes idle. */
        Tick free = 0;
        /** Departure (out_done) times of committed packets, FIFO.
         * Non-decreasing because egress serialization is FIFO. */
        DepartureFifo drain;
    };

    struct Port
    {
        RxHandler rx;
        std::uint64_t bandwidth_bps;
        /** ticksPerByte(bandwidth_bps), precomputed: serialization is
         * two multiplies per packet instead of two 64-bit divisions. */
        Tick ticks_per_byte;
        /** When the node's egress link becomes idle. */
        Tick tx_free = 0;
        RackId rack = 0;
        /** Marked down by the failure layer (dead NIC / board port). */
        bool down = false;
        /** The ToR output port toward this node. */
        Stage out;
    };

    /** Leaf<->spine plumbing of one rack. */
    struct Rack
    {
        Stage up;   ///< leaf -> spine aggregation link
        Stage down; ///< spine -> leaf aggregation link
        /** Marked down by the failure layer (dead ToR). */
        bool tor_down = false;
    };

    /** Pop departures that already happened (occupancy bookkeeping). */
    static void lazyDrain(Stage &stage, Tick now);
    /** Earliest time `stage` (capacity `cap`) has room for one more
     * committed packet; `now` when it already has room. */
    static Tick admitTime(const Stage &stage, std::uint32_t cap,
                          Tick now);

    /** Schedule one delivery of `pkt` at `deliver` (down-state is
     * re-checked when the event fires, so packets in flight when a
     * node or rack dies are lost, like on real hardware). */
    void scheduleDelivery(Tick deliver, Packet pkt);

    EventQueue &eq_;
    NetConfig cfg_;
    Rng rng_;
    Tick agg_ticks_per_byte_;
    std::vector<Port> ports_;
    std::vector<Rack> racks_;
    FaultHook fault_hook_;
    NetStats stats_;
};

} // namespace clio

#endif // CLIO_NET_NETWORK_HH
