/**
 * @file
 * Reproducibility: identical configurations and seeds must produce
 * bit-identical simulations — including under fault injection and
 * across every stats counter. This is what makes the figure benches
 * and the fault-injection tests stable.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/kv_store.hh"
#include "chaos/fault_plan.hh"
#include "clib/queue.hh"
#include "cluster/cluster.hh"
#include "offload/chain.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

struct RunResult
{
    std::vector<std::uint8_t> final_data;
    std::uint64_t retries = 0;
    std::uint64_t nacks = 0;
    std::uint64_t reordered = 0;
    std::uint64_t page_faults = 0;
    Tick end_time = 0;
    std::vector<Tick> latencies;
    /** Offload-engine occupancy (chained-offload workload): pins the
     * scheduler's arbitration order in the byte-compare. */
    Tick engine_busy = 0;
    Tick engine_wait = 0;
    /** Folded history of the pinned-history workload (0 elsewhere). */
    std::uint64_t digest = 0;
};

/** FNV-1a over 64-bit words. */
struct HistoryDigest
{
    std::uint64_t value = 1469598103934665603ull;

    void
    fold(std::uint64_t v)
    {
        value = (value ^ v) * 1099511628211ull;
    }

    void
    foldBytes(const std::vector<std::uint8_t> &bytes)
    {
        for (std::uint8_t b : bytes)
            fold(b);
    }
};

RunResult
runWorkload(std::uint64_t seed)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.net.loss_rate = 0.05;
    cfg.net.corrupt_rate = 0.03;
    cfg.net.reorder_rate = 0.15;
    cfg.clib.max_retries = 10;
    Cluster cluster(cfg, 2, 2);
    ClioClient &a = cluster.createClient(0);
    ClioClient &b = cluster.createClient(1);

    const VirtAddr pa = a.ralloc(16 * MiB).value_or(0);
    const VirtAddr pb = b.ralloc(16 * MiB).value_or(0);

    RunResult out;
    Rng rng(seed * 3 + 1);
    for (int i = 0; i < 120; i++) {
        ClioClient &client = (i % 3 == 0) ? b : a;
        const VirtAddr base = (i % 3 == 0) ? pb : pa;
        const VirtAddr at = base + rng.uniformInt(8 * MiB);
        std::uint64_t value = rng.next();
        const Tick t0 = cluster.eventQueue().now();
        if (rng.chance(0.5)) {
            client.rwrite(at, &value, 8);
        } else {
            client.rread(at, &value, 8);
        }
        out.latencies.push_back(cluster.eventQueue().now() - t0);
    }
    out.final_data.resize(64 * KiB);
    a.rread(pa, out.final_data.data(), out.final_data.size());
    out.retries =
        cluster.cn(0).stats().retries + cluster.cn(1).stats().retries;
    out.nacks =
        cluster.cn(0).stats().nacks + cluster.cn(1).stats().nacks;
    out.reordered = cluster.network().stats().reordered;
    out.page_faults = cluster.mn(0).stats().page_faults +
                      cluster.mn(1).stats().page_faults;
    out.end_time = cluster.eventQueue().now();
    return out;
}

/**
 * Append a run's recorded stats to the file named by CLIO_STATS_OUT
 * (no-op when unset). The `determinism` ctest runs this binary twice
 * in fresh processes with the same CLIO_SEED and diffs the two dumps,
 * catching nondeterminism that hides inside one process (ASLR-derived
 * hashing, static init order) which the in-process tests below cannot.
 */
void
dumpStats(const char *tag, std::uint64_t seed, const RunResult &r)
{
    const char *path = std::getenv("CLIO_STATS_OUT");
    if (!path || *path == '\0')
        return;
    std::FILE *f = std::fopen(path, "a");
    ASSERT_NE(f, nullptr) << "cannot open CLIO_STATS_OUT " << path;
    HistoryDigest data_hash;
    data_hash.foldBytes(r.final_data);
    std::fprintf(f,
                 "%s seed=%llu data=%016llx retries=%llu nacks=%llu "
                 "reordered=%llu faults=%llu end=%llu busy=%llu "
                 "wait=%llu",
                 tag, (unsigned long long)seed,
                 (unsigned long long)data_hash.value,
                 (unsigned long long)r.retries, (unsigned long long)r.nacks,
                 (unsigned long long)r.reordered,
                 (unsigned long long)r.page_faults,
                 (unsigned long long)r.end_time,
                 (unsigned long long)r.engine_busy,
                 (unsigned long long)r.engine_wait);
    for (Tick t : r.latencies)
        std::fprintf(f, " %llu", (unsigned long long)t);
    if (r.digest != 0)
        std::fprintf(f, " digest=%016llx", (unsigned long long)r.digest);
    std::fprintf(f, "\n");
    std::fclose(f);
}

/**
 * Multi-rack variant: a 3-rack sharded cluster under the same fault
 * injection, with one shared client forcing cross-spine traffic, so
 * the aggregation-hop code paths are covered by the byte-compare too.
 */
RunResult
runMultiRackWorkload(std::uint64_t seed)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.net.loss_rate = 0.05;
    cfg.net.corrupt_rate = 0.03;
    cfg.net.reorder_rate = 0.15;
    cfg.clib.max_retries = 10;
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);
    ClioClient &a = cluster.createClient(0);
    ClioClient &b = cluster.createClient(1);
    // A rack-2 process in rack 0's RAS: every one of its ops crosses
    // the spine.
    ClioClient &far = cluster.createSharedClient(2, a);

    const VirtAddr pa = a.ralloc(16 * MiB).value_or(0);
    const VirtAddr pb = b.ralloc(16 * MiB).value_or(0);

    RunResult out;
    Rng rng(seed * 5 + 3);
    for (int i = 0; i < 120; i++) {
        ClioClient &client =
            (i % 4 == 0) ? far : ((i % 3 == 0) ? b : a);
        const VirtAddr base = (i % 3 == 0 && i % 4 != 0) ? pb : pa;
        const VirtAddr at = base + rng.uniformInt(8 * MiB);
        std::uint64_t value = rng.next();
        const Tick t0 = cluster.eventQueue().now();
        if (rng.chance(0.5)) {
            client.rwrite(at, &value, 8);
        } else {
            client.rread(at, &value, 8);
        }
        out.latencies.push_back(cluster.eventQueue().now() - t0);
    }
    out.final_data.resize(64 * KiB);
    a.rread(pa, out.final_data.data(), out.final_data.size());
    for (std::uint32_t cn = 0; cn < cluster.cnCount(); cn++) {
        out.retries += cluster.cn(cn).stats().retries;
        out.nacks += cluster.cn(cn).stats().nacks;
    }
    out.reordered = cluster.network().stats().reordered;
    for (std::uint32_t mn = 0; mn < cluster.mnCount(); mn++)
        out.page_faults += cluster.mn(mn).stats().page_faults;
    out.end_time = cluster.eventQueue().now();
    return out;
}

TEST(Determinism, IdenticalSeedsIdenticalRuns)
{
    const std::uint64_t seed = defaultSeed(1234);
    const RunResult r1 = runWorkload(seed);
    const RunResult r2 = runWorkload(seed);
    dumpStats("identical", seed, r1);
    EXPECT_EQ(r1.final_data, r2.final_data);
    EXPECT_EQ(r1.retries, r2.retries);
    EXPECT_EQ(r1.nacks, r2.nacks);
    EXPECT_EQ(r1.reordered, r2.reordered);
    EXPECT_EQ(r1.page_faults, r2.page_faults);
    EXPECT_EQ(r1.end_time, r2.end_time);
    EXPECT_EQ(r1.latencies, r2.latencies);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    const std::uint64_t seed = defaultSeed(1234);
    const RunResult r1 = runWorkload(seed);
    const RunResult r2 = runWorkload(seed + 4444);
    // Fault injection differs, so the timing trace must differ.
    EXPECT_NE(r1.latencies, r2.latencies);
}

TEST(Determinism, MultiRackIdenticalSeedsIdenticalRuns)
{
    const std::uint64_t seed = defaultSeed(4321);
    const RunResult r1 = runMultiRackWorkload(seed);
    const RunResult r2 = runMultiRackWorkload(seed);
    dumpStats("multirack", seed, r1);
    EXPECT_EQ(r1.final_data, r2.final_data);
    EXPECT_EQ(r1.retries, r2.retries);
    EXPECT_EQ(r1.nacks, r2.nacks);
    EXPECT_EQ(r1.reordered, r2.reordered);
    EXPECT_EQ(r1.page_faults, r2.page_faults);
    EXPECT_EQ(r1.end_time, r2.end_time);
    EXPECT_EQ(r1.latencies, r2.latencies);
}

TEST(Determinism, FaultInjectionActuallyFired)
{
    const std::uint64_t seed = defaultSeed(1234);
    const RunResult r = runWorkload(seed);
    dumpStats("faults", seed, r);
    EXPECT_GT(r.retries + r.nacks, 0u);
    EXPECT_GT(r.reordered, 0u);
    EXPECT_GT(r.page_faults, 0u);
}

/**
 * Chaos variant: a 3-rack sharded cluster under an EXPLICIT fault
 * plan — an MN crash + restart plus a packet drop/corrupt/duplicate
 * window — so crash recovery, board restart, shard-map remove/re-add,
 * and the fault-hook RNG stream are all inside the byte-compare.
 */
RunResult
runChaosWorkload(std::uint64_t seed, EventQueueImpl impl)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.event_queue_impl = impl;
    cfg.clib.max_retries = 6;
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);
    ClioClient &a = cluster.createClient(0);

    const std::uint32_t victim = cluster.homeMnOf(a.pid());
    const VirtAddr pa = a.ralloc(8 * MiB).value_or(0);

    FaultPlan plan;
    plan.crashMn(120 * kMicrosecond, victim)
        .restartMn(400 * kMicrosecond, victim);
    PacketFaultWindow w;
    w.start = 0;
    w.end = 600 * kMicrosecond;
    w.drop_rate = 0.03;
    w.corrupt_rate = 0.05;
    w.duplicate_rate = 0.05;
    plan.packetFaults(w);
    FaultInjector injector(cluster, plan, seed + 9);
    injector.arm();

    RunResult out;
    Rng rng(seed * 7 + 5);
    for (int i = 0; i < 120; i++) {
        const VirtAddr at = pa + rng.uniformInt(4 * MiB);
        std::uint64_t value = rng.next();
        const Tick t0 = cluster.eventQueue().now();
        Status st;
        if (rng.chance(0.5)) {
            st = a.rwrite(at, &value, 8);
        } else {
            st = a.rread(at, &value, 8);
        }
        // Record outcome identity too: crash-window ops fail, and the
        // exact failure pattern must replay.
        out.latencies.push_back(cluster.eventQueue().now() - t0);
        out.final_data.push_back(static_cast<std::uint8_t>(st));
    }
    cluster.eventQueue().runUntilTime(
        std::max(cluster.eventQueue().now(), plan.horizon()) +
        kMillisecond);
    out.retries = cluster.cn(0).stats().retries;
    out.nacks = cluster.cn(0).stats().nacks +
                cluster.cn(0).stats().timeouts;
    // Fold every injected-fault counter into one replay-checked sum.
    out.reordered = cluster.network().stats().dropped_fault +
                    cluster.network().stats().duplicated +
                    cluster.network().stats().corrupted +
                    injector.stats().drops + injector.stats().corrupts +
                    injector.stats().duplicates;
    for (std::uint32_t mn = 0; mn < cluster.mnCount(); mn++)
        out.page_faults += cluster.mn(mn).stats().page_faults;
    out.end_time = cluster.eventQueue().now();
    return out;
}

TEST(Determinism, ChaosIdenticalSeedsIdenticalRuns)
{
    const std::uint64_t seed = defaultSeed(1234);
    const RunResult r1 = runChaosWorkload(seed, EventQueueImpl::kDefault);
    const RunResult r2 = runChaosWorkload(seed, EventQueueImpl::kDefault);
    dumpStats("chaos", seed, r1);
    EXPECT_EQ(r1.final_data, r2.final_data); // per-op status bytes
    EXPECT_EQ(r1.retries, r2.retries);
    EXPECT_EQ(r1.nacks, r2.nacks);
    EXPECT_EQ(r1.reordered, r2.reordered);
    EXPECT_EQ(r1.page_faults, r2.page_faults);
    EXPECT_EQ(r1.end_time, r2.end_time);
    EXPECT_EQ(r1.latencies, r2.latencies);
    // The plan really fired: at least one op failed inside the crash
    // window and at least one packet-level fault was injected.
    EXPECT_NE(r1.final_data,
              std::vector<std::uint8_t>(r1.final_data.size(),
                                        std::uint8_t{0}));
    EXPECT_GT(r1.reordered, 0u);
}

/**
 * Chained-offload variant: Clio-KV deployed through the typed
 * registry, concurrent chained multi-get plans racing for the two
 * offload engines. The engine scheduler's busy/wait tick totals go
 * into the compare, so arbitration order itself is pinned across runs
 * and across both event-queue engines. No packet faults here: the
 * chaos workloads cover retries, and a clean network keeps the
 * congestion window open so the chains genuinely overlap and the
 * arbiter has queueing to decide every round.
 */
RunResult
runChainedOffloadWorkload(std::uint64_t seed, EventQueueImpl impl)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.event_queue_impl = impl;
    cfg.offload.engines = 2;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const NodeId mn = cluster.mn(0).nodeId();
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(1),
                                  std::make_shared<ClioKvOffload>(256));

    Rng rng(seed * 11 + 7);
    RunResult out;
    ClioKvClient kv(client, {mn}, 1);
    for (int i = 0; i < 40; i++) {
        const std::string key = "key-" + std::to_string(i);
        kv.put(key, key + "=" + std::to_string(rng.next() % 1000));
    }
    for (int round = 0; round < 25; round++) {
        // Four chained lookup plans in flight at once: more chains
        // than engines, so the arbiter has real queueing to decide.
        const Tick t0 = cluster.eventQueue().now();
        std::vector<HandlePtr> handles;
        for (int c = 0; c < 4; c++) {
            ChainPlan plan;
            for (int s = 0; s < 3; s++) {
                const auto pick = rng.uniformInt(50); // some misses
                plan.stage(1, kvEncode(KvOp::kGet,
                                       "key-" + std::to_string(pick)));
            }
            plan.perStageReplies();
            handles.push_back(client.rcallChainAsync(mn, plan, 4096));
        }
        client.rpoll(handles);
        out.latencies.push_back(cluster.eventQueue().now() - t0);
        for (const HandlePtr &h : handles) {
            out.final_data.push_back(static_cast<std::uint8_t>(h->status));
            for (const OffloadStageReply &stage : h->stages)
                out.final_data.push_back(
                    static_cast<std::uint8_t>(stage.value));
        }
    }
    out.retries = cluster.cn(0).stats().retries;
    out.nacks = cluster.cn(0).stats().nacks;
    out.reordered = cluster.network().stats().reordered;
    out.page_faults = cluster.mn(0).stats().page_faults;
    const EngineSchedulerStats &es =
        cluster.mn(0).offloadRuntime().scheduler().stats();
    out.engine_busy = es.busy_ticks;
    out.engine_wait = es.wait_ticks;
    out.end_time = cluster.eventQueue().now();
    return out;
}

TEST(Determinism, ChainedOffloadIdenticalSeedsIdenticalRuns)
{
    const std::uint64_t seed = defaultSeed(99);
    const RunResult r1 =
        runChainedOffloadWorkload(seed, EventQueueImpl::kDefault);
    const RunResult r2 =
        runChainedOffloadWorkload(seed, EventQueueImpl::kDefault);
    dumpStats("chains", seed, r1);
    EXPECT_EQ(r1.final_data, r2.final_data);
    EXPECT_EQ(r1.retries, r2.retries);
    EXPECT_EQ(r1.engine_busy, r2.engine_busy);
    EXPECT_EQ(r1.engine_wait, r2.engine_wait);
    EXPECT_EQ(r1.end_time, r2.end_time);
    EXPECT_EQ(r1.latencies, r2.latencies);
    // The workload exercised real contention: engines actually queued.
    EXPECT_GT(r1.engine_busy, 0u);
    EXPECT_GT(r1.engine_wait, 0u);
}

TEST(Determinism, ChainedOffloadWheelHeapIdentical)
{
    const std::uint64_t seed = defaultSeed(99);
    const RunResult wheel =
        runChainedOffloadWorkload(seed, EventQueueImpl::kTimingWheel);
    const RunResult heap =
        runChainedOffloadWorkload(seed, EventQueueImpl::kBinaryHeap);
    EXPECT_EQ(wheel.final_data, heap.final_data);
    EXPECT_EQ(wheel.retries, heap.retries);
    EXPECT_EQ(wheel.engine_busy, heap.engine_busy);
    EXPECT_EQ(wheel.engine_wait, heap.engine_wait);
    EXPECT_EQ(wheel.end_time, heap.end_time);
    EXPECT_EQ(wheel.latencies, heap.latencies);
}

TEST(Determinism, ChaosWheelHeapIdentical)
{
    // The same chaotic schedule must replay byte-identically on BOTH
    // event-queue engines: crash/restart events, fault-hook draws, and
    // retry timers interleave through the queue, so any ordering
    // divergence between the wheel and the heap shows up here.
    const std::uint64_t seed = defaultSeed(1234);
    const RunResult wheel =
        runChaosWorkload(seed, EventQueueImpl::kTimingWheel);
    const RunResult heap =
        runChaosWorkload(seed, EventQueueImpl::kBinaryHeap);
    EXPECT_EQ(wheel.final_data, heap.final_data);
    EXPECT_EQ(wheel.retries, heap.retries);
    EXPECT_EQ(wheel.nacks, heap.nacks);
    EXPECT_EQ(wheel.reordered, heap.reordered);
    EXPECT_EQ(wheel.page_faults, heap.page_faults);
    EXPECT_EQ(wheel.end_time, heap.end_time);
    EXPECT_EQ(wheel.latencies, heap.latencies);
}

constexpr std::uint64_t kPinnedSeed = 20220228;

/**
 * Pinned-history workload: two CNs issue overlapping 64 KiB reads and
 * writes to one MN under loss, corruption and reordering, so
 * multi-part messages flow in both directions at once and get NACKed,
 * timed out and retried. Each op's latency and status, the data read,
 * every NetStats counter and the end tick go into one digest. The
 * executed-event count does not: a host-side change may merge events,
 * but must not move anything simulated.
 */
RunResult
runPinnedBulkWorkload(EventQueueImpl impl)
{
    constexpr std::uint64_t kOp = 64 * KiB;
    constexpr std::uint64_t kRegion = 16 * kOp;
    auto cfg = ModelConfig::prototype();
    cfg.seed = kPinnedSeed;
    cfg.event_queue_impl = impl;
    cfg.net.loss_rate = 0.003;
    cfg.net.corrupt_rate = 0.003;
    cfg.net.reorder_rate = 0.1;
    cfg.clib.max_retries = 10;
    Cluster cluster(cfg, 2, 1);
    EventQueue &eq = cluster.eventQueue();
    ClioClient *clients[] = {&cluster.createClient(0),
                             &cluster.createClient(1)};
    VirtAddr bases[2];
    for (int c = 0; c < 2; c++)
        bases[c] = clients[c]->ralloc(kRegion).value_or(0);

    RunResult out;
    HistoryDigest digest;
    Rng rng(kPinnedSeed);
    CompletionQueue cq(eq);
    for (int round = 0; round < 12; round++) {
        // Each client has one write and one read in flight at once.
        std::vector<std::vector<std::uint8_t>> reads(4);
        const Tick t0 = eq.now();
        for (int op = 0; op < 4; op++) {
            ClioClient &client = *clients[op % 2];
            const VirtAddr at =
                bases[op % 2] + rng.uniformInt(kRegion - kOp + 1);
            HandlePtr h;
            if (op < 2) {
                std::vector<std::uint8_t> data(kOp);
                for (std::uint64_t i = 0; i < kOp; i++)
                    data[i] = static_cast<std::uint8_t>(round * 31 + i * 7);
                h = client.rwriteAsync(at, std::move(data));
            } else {
                reads[op].resize(kOp);
                h = client.rreadAsync(at, reads[op].data(), kOp);
            }
            cq.watch(h, static_cast<std::uint64_t>(op));
        }
        while (cq.outstanding() + cq.ready() > 0) {
            for (const Completion &c : cq.rpoll_cq(4)) {
                out.latencies.push_back(c.completed_at - t0);
                out.final_data.push_back(static_cast<std::uint8_t>(c.status));
                digest.fold(c.tag);
                digest.fold(c.completed_at - t0);
                digest.fold(static_cast<std::uint64_t>(c.status));
                if (c.ok() && c.tag >= 2)
                    digest.foldBytes(reads[c.tag]);
            }
        }
    }
    // Read every region back, one 64 KiB message at a time.
    std::vector<std::uint8_t> back(kOp);
    for (int c = 0; c < 2; c++) {
        for (std::uint64_t off = 0; off < kRegion; off += kOp) {
            const Status st = clients[c]->rread(bases[c] + off,
                                                back.data(), kOp);
            digest.fold(static_cast<std::uint64_t>(st));
            if (st == Status::kOk)
                digest.foldBytes(back);
        }
    }
    for (std::uint32_t cn = 0; cn < 2; cn++) {
        out.retries += cluster.cn(cn).stats().retries;
        out.nacks += cluster.cn(cn).stats().nacks;
    }
    const NetStats &ns = cluster.network().stats();
    for (std::uint64_t v :
         {ns.sent, ns.delivered, ns.dropped_random, ns.dropped_queue,
          ns.dropped_agg_queue, ns.dropped_down, ns.dropped_fault,
          ns.duplicated, ns.corrupted, ns.reordered, ns.bytes_delivered,
          ns.cross_rack, ns.pfc_stalls, ns.pfc_stall_ticks,
          std::uint64_t{ns.peak_queue_depth}, ns.priority_bypass})
        digest.fold(v);
    out.reordered = ns.reordered;
    out.page_faults = cluster.mn(0).stats().page_faults;
    out.end_time = eq.now();
    digest.fold(out.end_time);
    out.digest = digest.value;
    return out;
}

TEST(Determinism, PinnedBulkHistory)
{
    // Recorded when sendSplit still spent one event per packet. Event
    // merging must leave it as is; only a change to what is simulated
    // may move it.
    constexpr std::uint64_t kPinnedDigest = 0x0e76a149092b84b7ull;
    const RunResult wheel =
        runPinnedBulkWorkload(EventQueueImpl::kTimingWheel);
    const RunResult heap = runPinnedBulkWorkload(EventQueueImpl::kBinaryHeap);
    dumpStats("pinned", kPinnedSeed, wheel);
    EXPECT_EQ(wheel.digest, heap.digest);
    EXPECT_EQ(wheel.digest, kPinnedDigest)
        << std::hex << "digest " << wheel.digest;
    // The faults really fired, on multi-part messages.
    EXPECT_GT(wheel.retries, 0u);
    EXPECT_GT(wheel.nacks, 0u);
    EXPECT_GT(wheel.reordered, 0u);
}

} // namespace
} // namespace clio
