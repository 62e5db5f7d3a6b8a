/**
 * @file
 * End-to-end integration tests: CLib -> transport -> network -> CBoard
 * fast/slow path and back, exercising the paper's correctness
 * guarantees (T1-T4), page faults, permissions, and latency sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "apps/kv_store.hh"
#include "apps/runner.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

ModelConfig
baseConfig()
{
    return ModelConfig::prototype();
}

TEST(Integration, AllocWriteReadRoundTrip)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);

    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 13 + 7);

    EXPECT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);

    std::vector<std::uint8_t> out(4096, 0);
    EXPECT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
}

TEST(Integration, ByteGranularityAccess)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    // Single-byte writes at odd offsets (R1: byte granularity).
    const std::uint8_t b1 = 0xAA, b2 = 0x55;
    EXPECT_EQ(client.rwrite(addr + 3, &b1, 1), Status::kOk);
    EXPECT_EQ(client.rwrite(addr + 4, &b2, 1), Status::kOk);
    std::uint8_t out[2] = {};
    EXPECT_EQ(client.rread(addr + 3, out, 2), Status::kOk);
    EXPECT_EQ(out[0], b1);
    EXPECT_EQ(out[1], b2);
}

TEST(Integration, FirstTouchPageFaultsCounted)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0); // 4 pages
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 0u);

    std::uint64_t v = 1;
    // Touch each page once -> one fault each; second touches -> none.
    for (int p = 0; p < 4; p++)
        client.rwrite(addr + p * 4 * MiB, &v, sizeof(v));
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 4u);
    for (int p = 0; p < 4; p++)
        client.rwrite(addr + p * 4 * MiB + 8, &v, sizeof(v));
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 4u);
}

TEST(Integration, UnallocatedAddressRejected)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    std::uint64_t v = 0;
    EXPECT_EQ(client.rread(123 * MiB, &v, sizeof(v)),
              Status::kBadAddress);
    EXPECT_GE(cluster.mn(0).stats().bad_address, 1u);
}

TEST(Integration, PermissionEnforced)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr ro = client.ralloc(4 * MiB, kPermRead).value_or(0);
    ASSERT_NE(ro, 0u);
    std::uint64_t v = 7;
    EXPECT_EQ(client.rwrite(ro, &v, sizeof(v)), Status::kPermDenied);
    // Read of a never-written read-only page returns zeros.
    EXPECT_EQ(client.rread(ro, &v, sizeof(v)), Status::kOk);
    EXPECT_EQ(v, 0u);
    EXPECT_GE(cluster.mn(0).stats().perm_denied, 1u);
}

TEST(Integration, ProcessIsolation)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &alice = cluster.createClient(0);
    ClioClient &bob = cluster.createClient(0);

    const VirtAddr a = alice.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(a, 0u);
    std::uint64_t secret = 0xC0FFEE;
    ASSERT_EQ(alice.rwrite(a, &secret, sizeof(secret)), Status::kOk);

    // Bob cannot touch Alice's VA: it is unallocated in *his* RAS
    // (same numeric address, different address space, R5).
    std::uint64_t stolen = 0;
    EXPECT_EQ(bob.rread(a, &stolen, sizeof(stolen)),
              Status::kBadAddress);

    // And Bob allocating the same numeric VA sees his own data only.
    const VirtAddr b = bob.ralloc(4 * MiB).value_or(0);
    EXPECT_EQ(b, a); // separate RASs may hand out the same VA
    std::uint64_t bv = 0;
    EXPECT_EQ(bob.rread(b, &bv, sizeof(bv)), Status::kOk);
    EXPECT_EQ(bv, 0u);
    std::uint64_t av = 0;
    EXPECT_EQ(alice.rread(a, &av, sizeof(av)), Status::kOk);
    EXPECT_EQ(av, secret);
}

TEST(Integration, FreeThenAccessFails)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 9;
    ASSERT_EQ(client.rwrite(addr, &v, sizeof(v)), Status::kOk);
    ASSERT_EQ(client.rfree(addr), Status::kOk);
    EXPECT_EQ(client.rread(addr, &v, sizeof(v)), Status::kBadAddress);
    // Frames were reclaimed: a fresh allocation reuses them and the
    // fault handler zero-binds, so old data never leaks.
    const VirtAddr addr2 = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t leak = 1;
    EXPECT_EQ(client.rread(addr2, &leak, sizeof(leak)), Status::kOk);
    EXPECT_EQ(leak, 0u);
}

TEST(Integration, LargeMultiPacketWrite)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    // 64 KB write -> dozens of MTU packets (T1 split/reassembly).
    std::vector<std::uint8_t> data(64 * KiB);
    Rng rng(3);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);

    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
}

TEST(Integration, CrossPageAccess)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0); // 2 pages
    // Write straddling the 4 MB page boundary.
    std::vector<std::uint8_t> data(8192, 0xEE);
    const VirtAddr at = addr + 4 * MiB - 4096;
    ASSERT_EQ(client.rwrite(at, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(8192);
    ASSERT_EQ(client.rread(at, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 2u);
}

TEST(Integration, AsyncDependentOrdering)
{
    // T2: WAW to the same page must execute in order even when issued
    // asynchronously back to back.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t v1 = 111, v2 = 222, v3 = 333;
    auto h1 = client.rwriteAsync(addr, &v1, sizeof(v1));
    auto h2 = client.rwriteAsync(addr, &v2, sizeof(v2));
    auto h3 = client.rwriteAsync(addr, &v3, sizeof(v3));
    EXPECT_GE(client.stats().ordering_stalls, 2u);
    ASSERT_TRUE(client.rpoll({h1, h2, h3}));

    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, sizeof(out)), Status::kOk);
    EXPECT_EQ(out, v3); // program order preserved
}

TEST(Integration, AsyncIndependentParallel)
{
    // Independent pages may be outstanding concurrently (no stalls).
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(32 * MiB).value_or(0); // 8 pages

    std::vector<HandlePtr> handles;
    std::vector<std::uint64_t> vals(8);
    for (int p = 0; p < 8; p++) {
        vals[static_cast<std::size_t>(p)] = 1000 + p;
        handles.push_back(client.rwriteAsync(
            addr + p * 4 * MiB, &vals[static_cast<std::size_t>(p)],
            sizeof(std::uint64_t)));
    }
    EXPECT_EQ(client.stats().ordering_stalls, 0u);
    ASSERT_TRUE(client.rpoll(handles));
    for (int p = 0; p < 8; p++) {
        std::uint64_t out = 0;
        client.rread(addr + p * 4 * MiB, &out, sizeof(out));
        EXPECT_EQ(out, vals[static_cast<std::size_t>(p)]);
    }
}

TEST(Integration, RawDependencyReadSeesWrite)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 0xDADA;
    std::uint64_t out = 0;
    auto hw = client.rwriteAsync(addr, &v, sizeof(v));
    auto hr = client.rreadAsync(addr, &out, sizeof(out)); // RAW: queued
    ASSERT_TRUE(client.rpoll({hw, hr}));
    EXPECT_EQ(out, v);
}

TEST(Integration, ReleaseWaitsForAll)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    std::uint64_t v = 5;
    for (int i = 0; i < 4; i++)
        client.rwriteAsync(addr + i * 4 * MiB, &v, sizeof(v));
    EXPECT_GT(client.outstanding(), 0u);
    client.rrelease();
    EXPECT_EQ(client.outstanding(), 0u);
}

TEST(Integration, AtomicsSemantics)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    // FAA from 0.
    auto old1 = client.rfaa(addr, 5);
    ASSERT_TRUE(old1.ok());
    EXPECT_EQ(*old1, 0u);
    auto old2 = client.rfaa(addr, 3);
    EXPECT_EQ(*old2, 5u);

    // CAS success and failure.
    auto h = client.atomicAsync(addr, AtomicOp::kCompareSwap, 8, 100);
    ASSERT_TRUE(client.rpoll(h));
    EXPECT_EQ(h->value, 8u); // old value, matched -> swapped
    std::uint64_t now_val = 0;
    client.rread(addr, &now_val, sizeof(now_val));
    EXPECT_EQ(now_val, 100u);

    h = client.atomicAsync(addr, AtomicOp::kCompareSwap, 8, 999);
    ASSERT_TRUE(client.rpoll(h));
    EXPECT_EQ(h->value, 100u); // mismatch -> no swap
    client.rread(addr, &now_val, sizeof(now_val));
    EXPECT_EQ(now_val, 100u);
}

TEST(Integration, LockMutualExclusion)
{
    Cluster cluster(baseConfig(), 2, 1);
    ClioClient &c1 = cluster.createClient(0);
    ClioClient &c2 = cluster.createClient(1);

    const VirtAddr lock = c1.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(lock, 0u);
    // c2 shares the RAS in spirit: for this test both use c1's pid via
    // the same lock VA in c1's space -- instead, c2 gets its own lock
    // word and we exercise acquire/release semantics per client.
    ASSERT_TRUE(c1.rlock(lock));
    // Lock is held: a bounded re-acquire attempt must fail...
    EXPECT_FALSE(c1.rlock(lock, 3));
    // ...until released.
    c1.runlock(lock);
    EXPECT_TRUE(c1.rlock(lock, 3));
    c1.runlock(lock);
    (void)c2;
}

TEST(Integration, FenceCompletes)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwriteAsync(addr, &v, sizeof(v));
    EXPECT_EQ(client.rfence(), Status::kOk);
    EXPECT_EQ(cluster.mn(0).stats().fences, 1u);
    std::uint64_t out = 0;
    client.rread(addr, &out, sizeof(out));
    EXPECT_EQ(out, 1u);
}

TEST(Integration, LossyNetworkDataIntegrity)
{
    // T4 + request-level retry: with 10% packet loss, every operation
    // still completes correctly (retries with fresh ids).
    auto cfg = baseConfig();
    cfg.net.loss_rate = 0.10;
    // 10% loss is far beyond what PFC-backed deployments see; give
    // the transport enough retries that no op is surfaced as failed.
    cfg.clib.max_retries = 8;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    Rng rng(77);
    std::vector<std::uint64_t> mirror(256, 0);
    for (int i = 0; i < 256; i++) {
        const std::uint64_t value = rng.next();
        mirror[static_cast<std::size_t>(i)] = value;
        ASSERT_EQ(client.rwrite(addr + i * 64, &value, sizeof(value)),
                  Status::kOk);
    }
    for (int i = 0; i < 256; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addr + i * 64, &out, sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, mirror[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(cluster.cn(0).stats().retries, 0u);
}

TEST(Integration, CorruptionTriggersNackAndRetry)
{
    auto cfg = baseConfig();
    cfg.net.corrupt_rate = 0.08;
    cfg.clib.max_retries = 8;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    std::vector<std::uint8_t> data(8 * KiB);
    Rng rng(5);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (int i = 0; i < 30; i++) {
        ASSERT_EQ(client.rwrite(addr + i * 8 * KiB % (4 * MiB),
                                data.data(), data.size()),
                  Status::kOk);
    }
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    // Corruption was detected somewhere (request NACK or response
    // retry).
    EXPECT_GT(cluster.cn(0).stats().nacks + cluster.cn(0).stats().retries,
              0u);
}

TEST(Integration, ReorderedPacketsPlacedCorrectly)
{
    // T1: out-of-order data placement within multi-packet writes.
    auto cfg = baseConfig();
    cfg.net.reorder_rate = 0.3;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    std::vector<std::uint8_t> data(32 * KiB);
    Rng rng(9);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    EXPECT_GT(cluster.network().stats().reordered, 0u);
}

TEST(Integration, DedupSuppressesReplayedWrite)
{
    // T4: a retry must not undo a later write. Inject a hand-crafted
    // duplicate ("the original arriving late after a retry") directly
    // into the network and verify the MN suppresses it.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t a = 0xAAAA, b = 0xBBBB;
    ASSERT_EQ(client.rwrite(addr, &a, sizeof(a)), Status::kOk);
    ASSERT_EQ(client.rwrite(addr, &b, sizeof(b)), Status::kOk);

    // Replay the FIRST write as a "retry" (fresh id, original orig_id).
    auto replay = std::make_shared<RequestMsg>();
    replay->type = MsgType::kWrite;
    replay->pid = client.pid();
    replay->req_id = 0xDEAD0001;
    // The original id of write A, as CNode assigned it: CN node id in
    // the high bits, sequence 2 (1 = the alloc).
    replay->orig_req_id =
        (static_cast<ReqId>(cluster.cn(0).nodeId()) << 40) | 2;
    replay->src = cluster.cn(0).nodeId();
    replay->dst = mn.nodeId();
    replay->addr = addr;
    replay->size = sizeof(a);
    replay->data.resize(sizeof(a));
    std::memcpy(replay->data.data(), &a, sizeof(a));

    Packet pkt;
    pkt.src = replay->src;
    pkt.dst = replay->dst;
    pkt.req_id = replay->req_id;
    pkt.type = MsgType::kWrite;
    pkt.payload_len = sizeof(a);
    pkt.wire_bytes = kPacketHeaderBytes + sizeof(a);
    pkt.msg = replay;
    cluster.network().send(std::move(pkt));
    cluster.run();

    EXPECT_GE(mn.dedupBuffer().suppressed(), 1u);
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, sizeof(out)), Status::kOk);
    EXPECT_EQ(out, b); // replay did NOT clobber the later write
}

TEST(Integration, DedupReplaysCachedAtomicResult)
{
    // T4: a retried atomic whose original already executed is not
    // re-executed, and its response carries the ORIGINAL's result.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    ASSERT_EQ(client.rfaa(addr, 5).value_or(99), 0u);
    ASSERT_EQ(client.rfaa(addr, 3).value_or(99), 5u);

    // A sniffer node receives the replay's response.
    std::vector<std::shared_ptr<const ResponseMsg>> seen;
    const NodeId sniffer = cluster.network().addNode([&seen](Packet pkt) {
        seen.push_back(
            std::static_pointer_cast<const ResponseMsg>(pkt.msg));
    });

    // Replay the SECOND fetch-add as a retry: fresh id, the original
    // id as CNode assigned it (sequence 3: 1 = alloc, 2 = first rfaa).
    auto replay = std::make_shared<RequestMsg>();
    replay->type = MsgType::kAtomic;
    replay->aop = AtomicOp::kFetchAdd;
    replay->arg0 = 3;
    replay->pid = client.pid();
    replay->req_id = 0xDEAD0002;
    replay->orig_req_id =
        (static_cast<ReqId>(cluster.cn(0).nodeId()) << 40) | 3;
    replay->src = sniffer;
    replay->dst = mn.nodeId();
    replay->addr = addr;
    replay->size = 8;

    Packet pkt;
    pkt.src = sniffer;
    pkt.dst = replay->dst;
    pkt.req_id = replay->req_id;
    pkt.type = MsgType::kAtomic;
    pkt.wire_bytes = requestWireBytes(*replay);
    pkt.msg = replay;
    cluster.network().send(std::move(pkt));
    cluster.run();

    EXPECT_EQ(mn.dedupBuffer().suppressed(), 1u);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0]->status, Status::kOk);
    EXPECT_EQ(seen[0]->value, 5u); // the original's old value
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, sizeof(out)), Status::kOk);
    EXPECT_EQ(out, 8u); // the replay did not add again
}

TEST(Integration, DedupReplaysOffloadReply)
{
    // T4 for the extend path: a retried offload call whose original
    // already executed replays the original's WHOLE reply. A Clio-KV
    // get retried this way must return the stored bytes, not an empty
    // payload under kOk.
    constexpr std::uint32_t kKv = 1;
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    mn.registerOffload(ClioKvOffload::descriptor(kKv),
                       std::make_shared<ClioKvOffload>());

    ASSERT_TRUE(
        client.rcall(mn.nodeId(), kKv, kvEncode(KvOp::kPut, "k", "hello"))
            .ok());
    const Result<OffloadReply> get =
        client.rcall(mn.nodeId(), kKv, kvEncode(KvOp::kGet, "k"));
    ASSERT_TRUE(get.ok());
    ASSERT_EQ(get->value, 1u);

    // A sniffer node receives the replay's response.
    std::vector<std::shared_ptr<const ResponseMsg>> seen;
    const NodeId sniffer = cluster.network().addNode([&seen](Packet pkt) {
        seen.push_back(
            std::static_pointer_cast<const ResponseMsg>(pkt.msg));
    });

    // Replay the get as a retry: fresh id, the original id as CNode
    // assigned it (sequence 2: 1 = the put).
    auto replay = std::make_shared<RequestMsg>();
    replay->type = MsgType::kOffload;
    replay->pid = client.pid();
    replay->req_id = 0xDEAD0003;
    replay->orig_req_id =
        (static_cast<ReqId>(cluster.cn(0).nodeId()) << 40) | 2;
    replay->src = sniffer;
    replay->dst = mn.nodeId();
    replay->offload_id = kKv;
    replay->offload_arg = kvEncode(KvOp::kGet, "k");

    Packet pkt;
    pkt.src = sniffer;
    pkt.dst = replay->dst;
    pkt.req_id = replay->req_id;
    pkt.type = MsgType::kOffload;
    pkt.wire_bytes = requestWireBytes(*replay);
    pkt.msg = replay;
    cluster.network().send(std::move(pkt));
    cluster.run();

    EXPECT_EQ(mn.dedupBuffer().suppressed(), 1u);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0]->req_id, 0xDEAD0003u);
    EXPECT_EQ(seen[0]->status, Status::kOk);
    EXPECT_EQ(seen[0]->value, 1u);
    EXPECT_EQ(seen[0]->err_code, 0u);
    EXPECT_EQ(std::string(seen[0]->data.begin(), seen[0]->data.end()),
              "hello");
}

TEST(Integration, LatencyMatchesPaperBallpark)
{
    // §7.1: 16 B reads ~2.5 us median end to end on the prototype.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwrite(addr, &v, sizeof(v)); // warm (fault + TLB)

    LatencyHistogram hist;
    std::uint8_t buf[16];
    for (int i = 0; i < 200; i++) {
        const Tick t0 = cluster.eventQueue().now();
        ASSERT_EQ(client.rread(addr, buf, 16), Status::kOk);
        hist.record(cluster.eventQueue().now() - t0);
    }
    const double median_us = ticksToUs(hist.median());
    EXPECT_GT(median_us, 1.0);
    EXPECT_LT(median_us, 4.0);
    // Bounded tail (no page faults, smooth pipeline): p99 < 2x median.
    EXPECT_LT(ticksToUs(hist.p99()), 2 * median_us);
}

TEST(Integration, MultiMnDistinctSpaces)
{
    Cluster cluster(baseConfig(), 2, 3);
    ClioClient &client = cluster.createClient(0);

    // Allocate several regions; with windowed mode they never collide
    // even when placed on different MNs.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 6; i++) {
        const VirtAddr a = client.ralloc(4 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        for (VirtAddr prev : addrs)
            EXPECT_NE(a, prev);
        addrs.push_back(a);
    }
    // Round-trip through every region (may live on different MNs).
    for (std::size_t i = 0; i < addrs.size(); i++) {
        std::uint64_t v = 4242 + i;
        ASSERT_EQ(client.rwrite(addrs[i], &v, sizeof(v)), Status::kOk);
    }
    for (std::size_t i = 0; i < addrs.size(); i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addrs[i], &out, sizeof(out)), Status::kOk);
        EXPECT_EQ(out, 4242 + i);
    }
}

TEST(Integration, MigrationPreservesData)
{
    auto cfg = baseConfig();
    cfg.mn_phys_bytes = 64 * MiB; // small MNs: 16 frames each
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);

    // Fill a region on some MN.
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    const std::uint32_t src_mn = cluster.mnIndexOf(client.mnFor(addr));
    std::vector<std::uint64_t> vals(4);
    for (int p = 0; p < 4; p++) {
        vals[static_cast<std::size_t>(p)] = 0x1000 + p;
        ASSERT_EQ(client.rwrite(addr + p * 4 * MiB,
                                &vals[static_cast<std::size_t>(p)], 8),
                  Status::kOk);
    }

    const VirtAddr region_start =
        addr / cfg.dist.region_size * cfg.dist.region_size;
    auto report =
        cluster.migrateRegion(client.pid(), src_mn, region_start);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.pages_moved, 4u);
    EXPECT_NE(report.dst_mn, src_mn);
    EXPECT_GT(report.duration, 0u);

    // Client now routes to the new MN and data is intact.
    EXPECT_EQ(cluster.mnIndexOf(client.mnFor(addr)), report.dst_mn);
    for (int p = 0; p < 4; p++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addr + p * 4 * MiB, &out, sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, vals[static_cast<std::size_t>(p)]);
    }
}

TEST(Integration, PressureBalancing)
{
    auto cfg = baseConfig();
    cfg.dist.region_size = 16 * MiB; // small regions for the test
    cfg.mn_phys_bytes = 64 * MiB;
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);

    // Write until one MN is under pressure.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 6; i++) {
        const VirtAddr a = client.ralloc(8 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        std::uint64_t v = 777 + i;
        ASSERT_EQ(client.rwrite(a, &v, sizeof(v)), Status::kOk);
        ASSERT_EQ(client.rwrite(a + 4 * MiB, &v, sizeof(v)), Status::kOk);
        addrs.push_back(a);
    }
    cluster.balancePressure();
    // Whatever moved, all data is still correct.
    for (int i = 0; i < 6; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addrs[static_cast<std::size_t>(i)], &out,
                               sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, 777u + static_cast<unsigned>(i));
    }
}

/** Minimal offload used to exercise the extend path. */
class EchoAddOffload : public Offload
{
  public:
    OffloadResult
    invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg) override
    {
        // arg: 8-byte little-endian value; stores value+1 at a fresh
        // allocation and echoes it back.
        OffloadResult res;
        if (arg.size() != 8) {
            res.status = Status::kOffloadError;
            return res;
        }
        std::uint64_t v = 0;
        std::memcpy(&v, arg.data(), 8);
        const VirtAddr slot = vm.alloc(4 * MiB);
        if (!slot) {
            res.status = Status::kOffloadError;
            return res;
        }
        vm.write64(slot, v + 1);
        auto out = vm.read64(slot);
        res.value = out.value_or(0);
        res.data.resize(8);
        std::memcpy(res.data.data(), &res.value, 8);
        vm.chargeCycles(10);
        return res;
    }
};

TEST(Integration, OffloadInvocation)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload({.id = 7, .name = "echo-add"},
                                  std::make_shared<EchoAddOffload>());

    std::vector<std::uint8_t> arg(8);
    const std::uint64_t v = 41;
    std::memcpy(arg.data(), &v, 8);
    const Result<OffloadReply> reply =
        client.rcall(cluster.mn(0).nodeId(), 7, arg);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->value, 42u);
    ASSERT_EQ(reply->data.size(), 8u);
    EXPECT_EQ(cluster.mn(0).stats().offload_calls, 1u);
    // Unknown offload id is rejected.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 99, arg).status(),
              Status::kOffloadError);
}

TEST(Integration, ThroughputReachesLineRateWithAsync)
{
    // §7.1 Fig. 8 sanity: async 1 KB reads from enough concurrency
    // approach the 10 Gbps port limit.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(64 * MiB).value_or(0);
    std::vector<std::uint8_t> chunk(1024, 0x5A);
    for (int p = 0; p < 16; p++)
        client.rwrite(addr + p * 4 * MiB, chunk.data(), chunk.size());

    const Tick t0 = cluster.eventQueue().now();
    std::vector<std::uint8_t> bufs(16 * 1024);
    std::uint64_t bytes = 0;
    std::vector<HandlePtr> handles;
    for (int round = 0; round < 64; round++) {
        for (int p = 0; p < 16; p++) {
            handles.push_back(client.rreadAsync(
                addr + p * 4 * MiB, bufs.data() + p * 1024, 1024));
            bytes += 1024;
        }
        client.rpoll(handles);
        handles.clear();
    }
    const Tick elapsed = cluster.eventQueue().now() - t0;
    const double gbps =
        static_cast<double>(bytes) * 8.0 / ticksToSeconds(elapsed) / 1e9;
    EXPECT_GT(gbps, 4.0); // within reach of the 10 Gbps port
    EXPECT_LT(gbps, 10.0);
}

TEST(Integration, ConcurrentBulkWritesDoNotTimeOut)
{
    // Write incast on a lossless fabric: 4 processes on each of 2 CNs
    // run closed loops of 64 KiB writes into one MN. Eight such writes
    // queued on the MN's 10 Gbps link take longer than one write's
    // size-scaled timeout, so unless each CN bounds the request bytes
    // it has outstanding to the MN, writes time out (and are retried)
    // while still queued in the switch.
    constexpr std::uint32_t kCns = 2;
    constexpr std::uint32_t kProcsPerCn = 4;
    constexpr std::uint64_t kXfer = 64 * KiB;
    constexpr int kWritesPerProc = 40;
    const ModelConfig cfg = baseConfig();
    ASSERT_TRUE(cfg.net.lossless);
    ClusterSpec spec;
    spec.cns_per_rack = kCns;
    Cluster cluster(cfg, spec);

    struct Proc
    {
        ClioClient *client = nullptr;
        VirtAddr base = 0;
        int left = kWritesPerProc;
        HandlePtr last;
    };
    std::vector<Proc> procs(kCns * kProcsPerCn);
    for (std::size_t i = 0; i < procs.size(); i++) {
        procs[i].client = &cluster.createClient(i % kCns);
        procs[i].base = procs[i].client->ralloc(4 * MiB).value_or(0);
        ASSERT_NE(procs[i].base, 0u);
    }

    const std::vector<std::uint8_t> data(kXfer, 0xB7);
    std::vector<Status> results;
    ClosedLoopRunner runner(cluster.eventQueue());
    for (Proc &p : procs) {
        runner.addActor([&p, &data, &results] {
            if (p.last)
                results.push_back(p.last->status);
            if (p.left == 0)
                return ActorStep::done();
            const VirtAddr at = p.base + (p.left-- % 64) * kXfer;
            p.last = p.client->rwriteAsync(at, data.data(), data.size());
            return ActorStep::wait(p.last);
        });
    }
    runner.run();

    ASSERT_EQ(results.size(), procs.size() * kWritesPerProc);
    EXPECT_EQ(std::count(results.begin(), results.end(), Status::kOk),
              static_cast<std::ptrdiff_t>(results.size()));
    for (std::uint32_t c = 0; c < kCns; c++) {
        EXPECT_EQ(cluster.cn(c).stats().timeouts, 0u) << "CN " << c;
        EXPECT_EQ(cluster.cn(c).stats().retries, 0u) << "CN " << c;
    }
}

} // namespace
} // namespace clio
