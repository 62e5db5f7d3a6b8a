/**
 * @file
 * Unit tests for the network model, MTU splitting, the CN transport
 * (CNode) and its admission windows, and the Go-Back-N reference
 * transport (tests/support).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "chaos/fault_plan.hh"
#include "clib/cnode.hh"
#include "cluster/cluster.hh"
#include "net/network.hh"
#include "proto/wire.hh"
#include "sim/rng.hh"
#include "support/go_back_n.hh"

namespace clio {
namespace {

NetConfig
quietNet()
{
    NetConfig cfg;
    cfg.switch_jitter_mean = 0; // deterministic timing tests
    return cfg;
}

Packet
makePacket(NodeId src, NodeId dst, std::uint32_t wire_bytes,
           ReqId id = 1)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.req_id = id;
    pkt.wire_bytes = wire_bytes;
    return pkt;
}

TEST(Network, DeliversWithFixedLatency)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    Tick delivered_at = 0;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet) { delivered_at = eq.now(); });

    net.send(makePacket(a, b, 100));
    eq.runAll();
    // serialization (2 stages) + 2 props + switch.
    const Tick ser = 100 * ticksPerByte(quietNet().link_bandwidth_bps);
    const Tick expected = 2 * ser + 2 * quietNet().link_propagation +
                          quietNet().switch_latency;
    EXPECT_EQ(delivered_at, expected);
    EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, EgressSerializationQueues)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    std::vector<Tick> arrivals;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet) { arrivals.push_back(eq.now()); });

    // Two back-to-back packets: the second waits for the first's
    // serialization on the source link.
    net.send(makePacket(a, b, 1500, 1));
    net.send(makePacket(a, b, 1500, 2));
    eq.runAll();
    ASSERT_EQ(arrivals.size(), 2u);
    const Tick ser = 1500 * ticksPerByte(quietNet().link_bandwidth_bps);
    EXPECT_EQ(arrivals[1] - arrivals[0], ser);
}

TEST(Network, LossAndCorruptionStatistics)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.loss_rate = 0.3;
    cfg.corrupt_rate = 0.2;
    Network net(eq, cfg, 7);
    int received = 0, corrupted = 0;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet pkt) {
        received++;
        corrupted += pkt.corrupted ? 1 : 0;
    });
    for (int i = 0; i < 2000; i++)
        net.send(makePacket(a, b, 100, static_cast<ReqId>(i)));
    eq.runAll();
    EXPECT_NEAR(net.stats().dropped_random, 600, 80);
    EXPECT_EQ(received, 2000 - static_cast<int>(
                                   net.stats().dropped_random));
    EXPECT_NEAR(corrupted, 0.2 * received, 80);
}

TEST(Network, SwitchEgressBacklogVisible)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([](Packet) {});
    for (int i = 0; i < 10; i++)
        net.send(makePacket(a, b, 1500, static_cast<ReqId>(i)));
    EXPECT_GT(net.switchEgressBacklog(b), 0u);
    eq.runAll();
    EXPECT_EQ(net.switchEgressBacklog(b), 0u);
}

// Regression: a queue slot is freed when the packet's last byte
// leaves the switch output port (out_done), NOT at delivery. The old
// accounting held the slot through the final link propagation plus
// the (here: huge) reorder delay, so a paced stream far below the
// port rate still tail-dropped on a small queue.
TEST(Network, QueueSlotFreedAtEgressNotAtDelivery)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.lossless = false;
    cfg.switch_queue_packets = 2;
    cfg.reorder_rate = 1.0; // every delivery delayed way past out_done
    cfg.reorder_delay = 500 * kMicrosecond;
    Network net(eq, cfg, 1);
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([](Packet) {});

    // One packet every 5 us: an out_done-accounted queue is empty at
    // each send (egress takes ~2.7 us), a delivery-accounted one
    // holds ~100 phantom packets and drops nearly everything.
    for (int i = 0; i < 50; i++) {
        const Tick at = static_cast<Tick>(i) * 5 * kMicrosecond;
        eq.schedule(at, [&net, a, b, i] {
            net.send(makePacket(a, b, 1500, static_cast<ReqId>(i + 1)));
        });
    }
    eq.runAll();
    EXPECT_EQ(net.stats().dropped_queue, 0u);
    EXPECT_EQ(net.stats().delivered, 50u);
    EXPECT_EQ(net.stats().reordered, 50u);
}

// Regression: lossless mode is bounded-queue back-pressure, not
// "skip the drop and let the queue grow". A 4-into-1 incast on a
// 4-packet queue must (a) stall senders, (b) never exceed the queue
// bound, (c) still deliver every packet.
TEST(Network, LosslessBackPressureBoundsQueue)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.lossless = true;
    cfg.switch_queue_packets = 4;
    Network net(eq, cfg, 1);
    std::vector<NodeId> srcs;
    for (int k = 0; k < 4; k++)
        srcs.push_back(net.addNode(nullptr));
    NodeId dst = net.addNode([](Packet) {});

    ReqId id = 1;
    for (int k = 0; k < 4; k++) {
        for (int i = 0; i < 25; i++)
            net.send(makePacket(srcs[k], dst, 1500, id++));
    }
    eq.runAll();
    EXPECT_EQ(net.stats().sent, 100u);
    EXPECT_EQ(net.stats().delivered, 100u);
    EXPECT_EQ(net.stats().dropped_queue, 0u);
    EXPECT_GT(net.stats().pfc_stalls, 0u);
    EXPECT_GT(net.stats().pfc_stall_ticks, 0u);
    EXPECT_LE(net.stats().peak_queue_depth, 4u);
}

TEST(Wire, PacketCountMatchesMtu)
{
    const std::uint32_t mtu = 1500;
    const std::uint32_t payload_per = mtu - kPacketHeaderBytes;
    EXPECT_EQ(packetCount(0, mtu), 1u);
    EXPECT_EQ(packetCount(1, mtu), 1u);
    EXPECT_EQ(packetCount(payload_per, mtu), 1u);
    EXPECT_EQ(packetCount(payload_per + 1, mtu), 2u);
    EXPECT_EQ(packetCount(10 * payload_per, mtu), 10u);
}

TEST(Wire, SplitCoversPayloadExactly)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    std::vector<Packet> got;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet pkt) { got.push_back(pkt); });

    auto msg = std::make_shared<RequestMsg>();
    const std::uint64_t payload = 5000;
    sendSplit(eq, net, 0, a, b, 42, MsgType::kWrite, payload, msg);
    eq.runAll();
    ASSERT_EQ(got.size(), packetCount(payload, quietNet().mtu));
    std::uint64_t covered = 0;
    for (const auto &pkt : got) {
        EXPECT_EQ(pkt.req_id, 42u);
        EXPECT_EQ(pkt.total_parts, got.size());
        EXPECT_EQ(pkt.payload_offset, covered);
        covered += pkt.payload_len;
    }
    EXPECT_EQ(covered, payload);
}

TEST(Wire, FutureSplitIsOneEventInPartOrder)
{
    // Jitter on: the split must make the same RNG draws, in the same
    // order, as back-to-back direct sends at `when`.
    const NetConfig cfg;
    ASSERT_GT(cfg.switch_jitter_mean, 0u);
    const std::uint32_t payload_per = cfg.mtu - kPacketHeaderBytes;
    const std::uint64_t payload = 10 * payload_per;
    const Tick when = 5 * kMicrosecond;

    EventQueue eq;
    Network net(eq, cfg, 7);
    std::vector<Packet> got;
    std::vector<Tick> got_at;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet pkt) {
        got.push_back(pkt);
        got_at.push_back(eq.now());
    });
    sendSplit(eq, net, when, a, b, 42, MsgType::kWrite, payload,
              std::make_shared<RequestMsg>());
    EXPECT_EQ(eq.pending(), 1u);
    std::uint64_t sent_after_split = 0;
    eq.schedule(when, [&] { sent_after_split = net.stats().sent; });
    eq.runAll();
    EXPECT_EQ(sent_after_split, 10u);
    ASSERT_EQ(got.size(), 10u);
    for (std::uint32_t part = 0; part < 10; part++)
        EXPECT_EQ(got[part].part, part);

    // Twin network, same seed: ten direct sends at `when`.
    EventQueue twin_eq;
    Network twin(twin_eq, cfg, 7);
    std::vector<Tick> twin_at;
    NodeId ta = twin.addNode(nullptr);
    NodeId tb =
        twin.addNode([&](Packet) { twin_at.push_back(twin_eq.now()); });
    twin_eq.schedule(when, [&] {
        for (std::uint32_t part = 0; part < 10; part++) {
            Packet pkt = makePacket(ta, tb, cfg.mtu, 42);
            pkt.part = part;
            pkt.total_parts = 10;
            twin.send(std::move(pkt));
        }
    });
    twin_eq.runAll();
    EXPECT_EQ(got_at, twin_at);
}

TEST(CNode, RetryGetsFreshIdKeepsOriginal)
{
    // Total loss for the first attempt; capture ids at the MN.
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = 1.0;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto handle = client.rreadAsync(4 * MiB, nullptr, 8);
    // Drain: every attempt is lost; request eventually fails.
    cluster.run();
    EXPECT_TRUE(handle->done);
    // Every failure on the way out was a timeout (total loss), so the
    // exhausted request surfaces kTimeout, not kRetryExceeded.
    EXPECT_EQ(handle->status, Status::kTimeout);
    EXPECT_EQ(cluster.cn(0).stats().retries, cfg.clib.max_retries);
    EXPECT_EQ(cluster.cn(0).stats().timeouts, cfg.clib.max_retries + 1);
}

TEST(CNode, CwndGrowsOnGoodRtt)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const NodeId mn = cluster.mn(0).nodeId();
    const double before = cluster.cn(0).cwnd(mn);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 0;
    for (int i = 0; i < 50; i++)
        client.rread(addr, &v, 8);
    EXPECT_GT(cluster.cn(0).cwnd(mn), before);
}

TEST(CNode, RttHistogramPopulated)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    for (int i = 0; i < 20; i++)
        client.rwrite(addr, &v, 8);
    EXPECT_GE(cluster.cn(0).rttHistogram().count(), 20u);
    EXPECT_GT(cluster.cn(0).rttHistogram().median(), kMicrosecond);
}

// ----------------------------------------------------------------
// CNode admission: request bytes per MN, response bytes per CN
// ----------------------------------------------------------------

TEST(CNode, RequestByteWindowIsPerMn)
{
    // A 64 KiB write fills MN A's request-byte window on its own. A
    // 16 B read from the same CN to MN B charges nothing against it,
    // so it leaves the CN in the same tick as the write instead of
    // waiting for the write's response.
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    const ModelConfig &cfg = cluster.config();
    ClioClient &client = cluster.createClient(0);
    const NodeId mn_a = cluster.mn(0).nodeId();
    const NodeId mn_b = cluster.mn(1).nodeId();
    auto alloc_a = client.rallocAsync(4 * MiB, kPermReadWrite, false, mn_a);
    auto alloc_b = client.rallocAsync(4 * MiB, kPermReadWrite, false, mn_b);
    ASSERT_TRUE(client.rpoll({alloc_a, alloc_b}));
    const VirtAddr a = alloc_a->value;
    const VirtAddr b = alloc_b->value;
    ASSERT_EQ(client.mnFor(a), mn_a);
    ASSERT_EQ(client.mnFor(b), mn_b);

    EventQueue &eq = cluster.eventQueue();
    const std::uint64_t sent_before = cluster.network().stats().sent;
    const std::vector<std::uint8_t> data(64 * KiB, 0x3C);
    std::uint8_t got[16] = {};
    HandlePtr write = client.rwriteAsync(a, data.data(), data.size());
    HandlePtr read = client.rreadAsync(b, got, sizeof(got));
    eq.runUntilTime(eq.now() + cfg.clib.send_overhead +
                    cfg.clib.nic_latency);
    EXPECT_EQ(cluster.network().stats().sent - sent_before,
              packetCount(data.size(), cfg.net.mtu) +
                  packetCount(0, cfg.net.mtu));
    ASSERT_TRUE(eq.runUntil([&] { return read->done; }));
    EXPECT_FALSE(write->done);
    EXPECT_TRUE(client.rpoll({write, read}));
}

TEST(CNode, RetryExhaustionReleasesRequestBytes)
{
    // Writes to an MN that a FaultPlan killed exhaust their retries.
    // A 64 KiB write fills the MN's request-byte window alone, so the
    // fresh write after the MN restarts is only admitted if every
    // byte the failed writes charged was released.
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    const Tick crash_at = eq.now() + kMicrosecond;
    FaultPlan plan;
    plan.crashMn(crash_at, 0).restartMn(crash_at + 20 * kMillisecond, 0);
    FaultInjector injector(cluster, plan, 1);
    injector.arm();
    eq.runUntilTime(crash_at);
    ASSERT_FALSE(cluster.mnAlive(0));

    const std::vector<std::uint8_t> data(64 * KiB, 0x77);
    HandlePtr w1 = client.rwriteAsync(addr, data.data(), data.size());
    HandlePtr w2 =
        client.rwriteAsync(addr + 64 * KiB, data.data(), data.size());
    ASSERT_TRUE(eq.runUntil([&] { return w1->done && w2->done; }));
    EXPECT_EQ(w1->status, Status::kTimeout);
    EXPECT_EQ(w2->status, Status::kTimeout);
    EXPECT_EQ(cluster.cn(0).stats().failures, 2u);

    cluster.run(); // past the restart: the board is back, empty
    ASSERT_TRUE(cluster.mnAlive(0));
    const VirtAddr fresh = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(fresh, 0u);
    HandlePtr w3 = client.rwriteAsync(fresh, data.data(), data.size());
    cluster.run();
    ASSERT_TRUE(w3->done) << "fresh write never admitted";
    EXPECT_EQ(w3->status, Status::kOk);
}

TEST(CNode, CrashRestartReleasesRequestBytes)
{
    // A CN crash fails its in-flight and queued writes; after restart
    // a fresh 64 KiB write (a full request-byte window on its own) is
    // admitted, so the crash released every charged byte.
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    const std::vector<std::uint8_t> data(64 * KiB, 0x21);
    std::vector<HandlePtr> writes;
    for (int i = 0; i < 3; i++)
        writes.push_back(
            client.rwriteAsync(addr + i * 64 * KiB, data.data(), data.size()));
    eq.runUntilTime(eq.now() + 10 * kMicrosecond);
    ASSERT_FALSE(writes[0]->done);
    cluster.crashCn(0);
    cluster.run();
    for (const HandlePtr &w : writes)
        EXPECT_EQ(w->status, Status::kTimeout);

    cluster.restartCn(0);
    HandlePtr fresh = client.rwriteAsync(addr, data.data(), data.size());
    cluster.run();
    ASSERT_TRUE(fresh->done) << "fresh write never admitted";
    EXPECT_EQ(fresh->status, Status::kOk);
    EXPECT_EQ(cluster.cn(0).stats().timeouts, 0u);
}

// ----------------------------------------------------------------
// Go-Back-N reference transport
// ----------------------------------------------------------------

struct GbnPair
{
    EventQueue eq;
    Network net;
    std::vector<std::vector<std::uint8_t>> a_got, b_got;
    std::unique_ptr<GbnEndpoint> a, b;

    explicit GbnPair(NetConfig cfg, std::uint64_t seed = 1)
        : net(eq, cfg, seed)
    {
        a = std::make_unique<GbnEndpoint>(
            eq, net,
            [this](NodeId, std::vector<std::uint8_t> m) {
                a_got.push_back(std::move(m));
            });
        b = std::make_unique<GbnEndpoint>(
            eq, net,
            [this](NodeId, std::vector<std::uint8_t> m) {
                b_got.push_back(std::move(m));
            });
    }
};

std::vector<std::uint8_t>
blob(std::size_t n, std::uint8_t tag)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; i++)
        out[i] = static_cast<std::uint8_t>(tag + i * 7);
    return out;
}

TEST(GoBackN, DeliversInOrderLossless)
{
    GbnPair pair(quietNet());
    for (int i = 0; i < 10; i++)
        pair.a->send(pair.b->nodeId(), blob(3000, static_cast<std::uint8_t>(i)));
    pair.eq.runAll();
    ASSERT_EQ(pair.b_got.size(), 10u);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(pair.b_got[static_cast<std::size_t>(i)],
                  blob(3000, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(pair.a->stats().data_retransmitted, 0u);
}

TEST(GoBackN, RecoversFromLoss)
{
    auto cfg = quietNet();
    cfg.loss_rate = 0.15;
    GbnPair pair(cfg, 23);
    for (int i = 0; i < 20; i++)
        pair.a->send(pair.b->nodeId(), blob(5000, static_cast<std::uint8_t>(i)));
    pair.eq.runAll();
    ASSERT_EQ(pair.b_got.size(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(pair.b_got[static_cast<std::size_t>(i)],
                  blob(5000, static_cast<std::uint8_t>(i)));
    // Loss forces go-back-N retransmissions.
    EXPECT_GT(pair.a->stats().data_retransmitted, 0u);
}

TEST(GoBackN, BidirectionalFlows)
{
    GbnPair pair(quietNet());
    pair.a->send(pair.b->nodeId(), blob(100, 1));
    pair.b->send(pair.a->nodeId(), blob(200, 2));
    pair.eq.runAll();
    ASSERT_EQ(pair.b_got.size(), 1u);
    ASSERT_EQ(pair.a_got.size(), 1u);
    EXPECT_EQ(pair.a_got[0], blob(200, 2));
}

TEST(GoBackN, StateGrowsWithFlowsUnlikeClio)
{
    // The Fig. 22 argument: GBN state scales with flows and inflight
    // data; Clio's MN transport state does not exist at all.
    auto cfg = quietNet();
    EventQueue eq;
    Network net(eq, cfg, 5);
    GbnEndpoint hub(eq, net, nullptr, 16, 100 * kMicrosecond);
    std::vector<std::unique_ptr<GbnEndpoint>> peers;
    for (int i = 0; i < 8; i++) {
        peers.push_back(
            std::make_unique<GbnEndpoint>(eq, net, nullptr));
    }
    const std::uint64_t before = hub.stateBytes();
    for (auto &peer : peers)
        hub.send(peer->nodeId(), blob(8000, 9));
    // Before any delivery, per-flow retransmission buffers are held.
    EXPECT_GT(hub.stateBytes(), before + 8 * 8000);
    EXPECT_EQ(hub.flowCount(), 8u);
    eq.runAll();
}

} // namespace
} // namespace clio
