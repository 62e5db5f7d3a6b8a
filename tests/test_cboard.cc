/**
 * @file
 * Device-level CBoard tests: fast-path timing determinism, dedup
 * buffer semantics, fence gating, out-of-memory behaviour, offload VM
 * isolation, async-buffer refill, and slow-path cost model.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "cboard/cboard.hh"
#include "cboard/dedup_buffer.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

struct BoardFixture
{
    EventQueue eq;
    Network net;
    CBoard board;

    explicit BoardFixture(ModelConfig cfg = ModelConfig::prototype(),
                          std::uint64_t phys = 0)
        : net(eq, cfg.net, 3), board(eq, net, cfg, phys)
    {
    }

    /** Map one page for `pid` and return its base VA. */
    VirtAddr
    mapPage(ProcId pid, std::uint64_t vpn, PhysAddr frame)
    {
        board.pageTable().insert(pid, vpn, kPermReadWrite);
        board.pageTable().bindFrame(pid, vpn, frame);
        return vpn * board.config().page_table.page_size;
    }

    RequestMsg
    makeRead(ProcId pid, VirtAddr addr, std::uint64_t size, ReqId id)
    {
        RequestMsg req;
        req.type = MsgType::kRead;
        req.pid = pid;
        req.addr = addr;
        req.size = size;
        req.req_id = id;
        req.orig_req_id = id;
        return req;
    }
};

TEST(CBoardDevice, FastPathTimingIsDeterministic)
{
    // The paper's determinism claim: identical warm requests take an
    // identical, bounded number of ticks.
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    auto req = f.makeRead(1, addr, 64, 1);
    ResponseMsg r0;
    f.board.serviceFastPath(req, 0, r0); // warm the TLB

    std::vector<Tick> durations;
    Tick start = 100 * kMicrosecond;
    for (int i = 0; i < 10; i++) {
        req.req_id = static_cast<ReqId>(i + 2);
        ResponseMsg resp;
        const Tick done = f.board.serviceFastPath(req, start, resp);
        durations.push_back(done - start);
        start += 50 * kMicrosecond; // spaced: no pipeline overlap
    }
    for (std::size_t i = 1; i < durations.size(); i++)
        EXPECT_EQ(durations[i], durations[0]);
}

TEST(CBoardDevice, TlbMissCostsExactlyOneDramAccess)
{
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    auto req = f.makeRead(1, addr, 16, 1);

    ResponseMsg warm_resp;
    f.board.serviceFastPath(req, 0, warm_resp); // includes the miss
    const Tick start = 1 * kMillisecond;
    req.req_id = 2;
    ResponseMsg hit_resp;
    const Tick hit = f.board.serviceFastPath(req, start, hit_resp) -
                     start;

    f.board.tlb().invalidate(1, 1);
    const Tick start2 = 2 * kMillisecond;
    req.req_id = 3;
    ResponseMsg miss_resp;
    const Tick miss = f.board.serviceFastPath(req, start2, miss_resp) -
                      start2;
    EXPECT_EQ(miss - hit, f.board.config().dram.access_latency);
}

TEST(CBoardDevice, ServiceFastPathAgreesWithClusterClient)
{
    // The same requests give the same Status and bytes through
    // serviceFastPath on a fresh board and through a 1-rack cluster
    // client (MTU packets, reassembly, dedup, response emission).
    const ModelConfig cfg = ModelConfig::prototype();
    const std::uint64_t page = cfg.page_table.page_size;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    BoardFixture f(cfg);
    const ProcId pid = client.pid();

    auto board_alloc = [&](std::uint64_t size, std::uint8_t perm) {
        ResponseMsg resp;
        f.board.slowPathAlloc(pid, size, perm, resp);
        EXPECT_EQ(resp.status, Status::kOk);
        return resp.value;
    };
    ReqId next_id = 1;
    auto board_write = [&](VirtAddr addr,
                           const std::vector<std::uint8_t> &bytes) {
        RequestMsg req;
        req.type = MsgType::kWrite;
        req.pid = pid;
        req.addr = addr;
        req.size = bytes.size();
        req.data = bytes;
        req.req_id = req.orig_req_id = next_id++;
        ResponseMsg resp;
        f.board.serviceFastPath(req, 0, resp);
        return resp.status;
    };
    auto board_read = [&](VirtAddr addr, std::uint64_t len) {
        ResponseMsg resp;
        f.board.serviceFastPath(f.makeRead(pid, addr, len, next_id++), 0,
                                resp);
        return resp;
    };

    // Same layout on both sides: 3 pages read-write, 1 page read-only,
    // then 1 page with no mapping after it.
    const VirtAddr rw = client.ralloc(3 * page).value_or(0);
    const VirtAddr ro = client.ralloc(page, kPermRead).value_or(0);
    const VirtAddr tail = client.ralloc(page).value_or(0);
    ASSERT_EQ(board_alloc(3 * page, kPermReadWrite), rw);
    ASSERT_EQ(board_alloc(page, kPermRead), ro);
    ASSERT_EQ(board_alloc(page, kPermReadWrite), tail);
    const std::uint64_t after_tail = tail / page + 1;
    ASSERT_EQ(f.board.pageTable().lookup(pid, after_tail), nullptr);
    ASSERT_EQ(cluster.mn(0).pageTable().lookup(pid, after_tail), nullptr);

    // A multi-packet write spanning a page boundary; both pages fault
    // on first touch.
    std::vector<std::uint8_t> pattern(8 * KiB);
    for (std::size_t i = 0; i < pattern.size(); i++)
        pattern[i] = static_cast<std::uint8_t>(i * 13 + 5);
    const VirtAddr span = rw + page - 4 * KiB;
    EXPECT_EQ(board_write(span, pattern), Status::kOk);
    EXPECT_EQ(client.rwrite(span, pattern.data(), pattern.size()),
              Status::kOk);

    // Read it back across the boundary.
    ResponseMsg r = board_read(span, pattern.size());
    std::vector<std::uint8_t> out(pattern.size());
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(client.rread(span, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(r.data, pattern);
    EXPECT_EQ(out, pattern);

    // First-touch read of the third page: faults, reads zeros.
    r = board_read(rw + 2 * page + 100, 64);
    out.assign(64, 0xFF);
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(client.rread(rw + 2 * page + 100, out.data(), 64),
              Status::kOk);
    EXPECT_EQ(r.data, std::vector<std::uint8_t>(64, 0));
    EXPECT_EQ(out, r.data);

    // Second page unmapped: the read fails with no data, and a write
    // stops at the failing page on both paths.
    const VirtAddr edge = tail + page - 128;
    r = board_read(edge, 256);
    out.assign(256, 0xFF);
    EXPECT_EQ(r.status, Status::kBadAddress);
    EXPECT_EQ(client.rread(edge, out.data(), 256), Status::kBadAddress);
    EXPECT_TRUE(r.data.empty());
    EXPECT_EQ(out, std::vector<std::uint8_t>(256, 0xFF));
    const std::vector<std::uint8_t> ones(256, 1);
    EXPECT_EQ(board_write(edge, ones), Status::kBadAddress);
    EXPECT_EQ(client.rwrite(edge, ones.data(), ones.size()),
              Status::kBadAddress);
    r = board_read(edge, 128);
    out.assign(128, 0xFF);
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(client.rread(edge, out.data(), 128), Status::kOk);
    EXPECT_EQ(r.data, out);

    // Permission denied.
    const std::vector<std::uint8_t> word(8, 7);
    EXPECT_EQ(board_write(ro, word), Status::kPermDenied);
    EXPECT_EQ(client.rwrite(ro, word.data(), word.size()),
              Status::kPermDenied);

    EXPECT_EQ(f.board.stats().page_faults,
              cluster.mn(0).stats().page_faults);
    EXPECT_EQ(f.board.stats().bad_address,
              cluster.mn(0).stats().bad_address);
    EXPECT_EQ(f.board.stats().perm_denied,
              cluster.mn(0).stats().perm_denied);
}

TEST(CBoardDevice, FutureOffloadDramBookingDoesNotDelayEarlierAccess)
{
    // An offload call's timeline is computed when it is admitted, so
    // its DRAM accesses are booked at future ticks. An access issued
    // after that booking but at an earlier tick — the fast path, or
    // another offload's VM — uses the DRAM before it instead of
    // queueing behind it.
    const Tick t = 1 * kMillisecond;
    struct Latencies
    {
        Tick fast_path;
        Tick other_vm;
    };
    auto measure = [&](bool book_future_access) {
        BoardFixture f;
        const std::uint64_t page = f.board.config().page_table.page_size;
        const VirtAddr a1 = f.mapPage(1, 1, 0);
        const VirtAddr a2 = f.mapPage(2, 1, page);
        ResponseMsg warm;
        f.board.serviceFastPath(f.makeRead(1, a1, 64, 1), 0, warm);
        f.board.serviceFastPath(f.makeRead(2, a2, 64, 2), 0, warm);
        std::vector<std::uint8_t> buf(64 * KiB);
        if (book_future_access) {
            OffloadVm late(f.board, 1, t + 50 * kMicrosecond);
            EXPECT_TRUE(late.write(a1, buf.data(), buf.size()));
        }
        ResponseMsg resp;
        const Tick fast =
            f.board.serviceFastPath(f.makeRead(1, a1, 64, 3), t, resp) - t;
        OffloadVm vm(f.board, 2, t);
        EXPECT_TRUE(vm.read(a2, buf.data(), 64));
        return Latencies{fast, vm.cost()};
    };
    const Latencies alone = measure(false);
    const Latencies beside = measure(true);
    EXPECT_EQ(beside.fast_path, alone.fast_path);
    EXPECT_EQ(beside.other_vm, alone.other_vm);
    EXPECT_LT(alone.fast_path, 10 * kMicrosecond);
}

TEST(CBoardDevice, PipelineOccupancyBoundsThroughput)
{
    // Back-to-back 1 KB reads cannot exceed the datapath's bytes per
    // cycle.
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    const int n = 200;
    Tick last = 0;
    for (int i = 0; i < n; i++) {
        auto req = f.makeRead(1, addr, 1024, static_cast<ReqId>(i + 1));
        ResponseMsg resp;
        last = f.board.serviceFastPath(req, 0, resp);
    }
    const double gbps = n * 1024 * 8.0 / ticksToSeconds(last) / 1e9;
    const double ceiling =
        static_cast<double>(f.board.config().fastPathPeakBps()) / 1e9;
    EXPECT_LT(gbps, ceiling);
    EXPECT_GT(gbps, 0.5 * ceiling); // and the pipeline stays busy
}

TEST(CBoardDevice, OutOfMemoryFaultReported)
{
    // 2 frames total; buffer reserves one; touching 3 pages fails.
    auto cfg = ModelConfig::prototype();
    BoardFixture f(cfg, 2 * cfg.page_table.page_size);
    for (std::uint64_t vpn = 1; vpn <= 3; vpn++) {
        std::uint64_t probe = vpn;
        while (f.board.pageTable().freeSlotsInBucket(7, probe) == 0)
            probe += 100;
        f.board.pageTable().insert(7, probe, kPermReadWrite);
        RequestMsg req;
        req.type = MsgType::kWrite;
        req.pid = 7;
        req.addr = probe * cfg.page_table.page_size;
        req.size = 8;
        req.data.resize(8, 1);
        req.req_id = vpn;
        req.orig_req_id = vpn;
        ResponseMsg resp;
        f.board.serviceFastPath(req, 0, resp);
        if (vpn <= 2) {
            EXPECT_EQ(resp.status, Status::kOk);
        } else {
            EXPECT_EQ(resp.status, Status::kOutOfMemory);
        }
    }
    EXPECT_GE(f.board.stats().out_of_memory, 1u);
}

TEST(CBoardDevice, SlowPathCostsScaleWithRetriesAndPages)
{
    BoardFixture f;
    const auto &sp = f.board.config().slow_path;
    ResponseMsg resp;
    const Tick one_page = f.board.slowPathAlloc(1, 4 * MiB, kPermRead,
                                                resp);
    ASSERT_EQ(resp.status, Status::kOk);
    ResponseMsg resp2;
    const Tick many_pages =
        f.board.slowPathAlloc(1, 40 * MiB, kPermRead, resp2);
    ASSERT_EQ(resp2.status, Status::kOk);
    EXPECT_EQ(many_pages - one_page, 9 * sp.valloc_per_page);
}

TEST(CBoardDevice, DestroyProcessReclaimsEverything)
{
    BoardFixture f;
    ResponseMsg resp;
    f.board.slowPathAlloc(5, 40 * MiB, kPermReadWrite, resp, true);
    ASSERT_EQ(resp.status, Status::kOk);
    const std::uint64_t used_before = f.board.frames().usedFrames();
    EXPECT_GT(f.board.pageTable().liveEntries(), 0u);

    f.board.destroyProcess(5);
    EXPECT_EQ(f.board.pageTable().liveEntries(), 0u);
    EXPECT_LT(f.board.frames().usedFrames(), used_before);
    EXPECT_EQ(f.board.vaAllocator().allocatedBytes(5), 0u);
}

/** A successful reply carrying `value` (what an atomic caches). */
ResponseMsg
replyWith(std::uint64_t value)
{
    ResponseMsg reply;
    reply.value = value;
    return reply;
}

/** The cached reply's value of `id`; nullopt when it is not cached. */
std::optional<std::uint64_t>
cachedValue(const DedupBuffer &buf, ReqId id)
{
    const ResponseMsg *hit = buf.find(id);
    if (!hit)
        return std::nullopt;
    return hit->value;
}

TEST(DedupBufferUnit, RecordFindEvict)
{
    DedupBuffer buf(3);
    buf.record(1, replyWith(100));
    buf.record(2, replyWith(200));
    EXPECT_EQ(cachedValue(buf, 1).value_or(0), 100u);
    EXPECT_EQ(cachedValue(buf, 2).value_or(0), 200u);
    EXPECT_FALSE(cachedValue(buf, 3).has_value());
    buf.record(3, replyWith(0));
    buf.record(4, replyWith(0)); // evicts 1 (FIFO ring)
    EXPECT_FALSE(cachedValue(buf, 1).has_value());
    EXPECT_TRUE(cachedValue(buf, 2).has_value());
    EXPECT_EQ(buf.size(), 3u);
    // Duplicate record is idempotent.
    buf.record(2, replyWith(999));
    EXPECT_EQ(cachedValue(buf, 2).value_or(0), 200u);
    EXPECT_EQ(buf.size(), 3u);
}

TEST(DedupBufferUnit, EvictionIsStrictlyFifoAcrossWraparound)
{
    DedupBuffer buf(4);
    EXPECT_EQ(buf.capacity(), 4u);
    // Fill several times over; exactly the last 4 ids must survive.
    for (ReqId id = 1; id <= 25; id++)
        buf.record(id, replyWith(id * 10));
    EXPECT_EQ(buf.size(), 4u);
    for (ReqId id = 1; id <= 21; id++)
        EXPECT_FALSE(cachedValue(buf, id).has_value()) << "id " << id;
    for (ReqId id = 22; id <= 25; id++)
        EXPECT_EQ(cachedValue(buf, id).value_or(0), id * 10) << "id " << id;
}

TEST(DedupBufferUnit, WritesCacheZeroAtomicsCacheResults)
{
    DedupBuffer buf(8);
    buf.record(7, replyWith(0)); // a write: no atomic result
    buf.record(8, replyWith(0xDEADu)); // an atomic: cached return value
    // Both are "found" (execution must be suppressed); only the
    // atomic carries a meaningful replay value.
    ASSERT_TRUE(cachedValue(buf, 7).has_value());
    EXPECT_EQ(*cachedValue(buf, 7), 0u);
    ASSERT_TRUE(cachedValue(buf, 8).has_value());
    EXPECT_EQ(*cachedValue(buf, 8), 0xDEADu);
}

TEST(DedupBufferUnit, CachesTheWholeReply)
{
    // Offload retries replay data, error code and per-stage replies,
    // not only the value register.
    DedupBuffer buf(1);
    ResponseMsg reply = replyWith(3);
    reply.err_code = 9;
    reply.data = {'h', 'i'};
    reply.stages.resize(2);
    reply.stages[1].data = {1, 2, 3};
    buf.record(42, reply);
    const ResponseMsg *hit = buf.find(42);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->value, 3u);
    EXPECT_EQ(hit->err_code, 9u);
    EXPECT_EQ(hit->data, reply.data);
    ASSERT_EQ(hit->stages.size(), 2u);
    EXPECT_EQ(hit->stages[1].data, reply.stages[1].data);
    // The next reply overwrites the slot in full.
    buf.record(43, replyWith(4));
    EXPECT_EQ(buf.find(42), nullptr);
    hit = buf.find(43);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->data.empty());
    EXPECT_TRUE(hit->stages.empty());
    EXPECT_EQ(hit->err_code, 0u);
}

TEST(DedupBufferUnit, SuppressedStatCountsOnlyWhenNoted)
{
    DedupBuffer buf(4);
    buf.record(1, replyWith(11));
    EXPECT_EQ(buf.suppressed(), 0u);
    // A retry hit: the MN replays the cached result and notes it.
    ASSERT_TRUE(cachedValue(buf, 1).has_value());
    buf.noteSuppressed();
    buf.noteSuppressed();
    EXPECT_EQ(buf.suppressed(), 2u);
    // Lookups alone never bump the stat.
    (void)cachedValue(buf, 1);
    (void)cachedValue(buf, 99);
    EXPECT_EQ(buf.suppressed(), 2u);
}

TEST(DedupBufferUnit, CapacityOneKeepsOnlyNewest)
{
    // Degenerate sizing (TIMEOUT x bandwidth rounding down): the ring
    // still works, holding exactly the most recent id.
    DedupBuffer buf(1);
    buf.record(5, replyWith(55));
    EXPECT_EQ(cachedValue(buf, 5).value_or(0), 55u);
    buf.record(6, replyWith(66));
    EXPECT_FALSE(cachedValue(buf, 5).has_value());
    EXPECT_EQ(cachedValue(buf, 6).value_or(0), 66u);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(DedupBufferUnit, RerecordDoesNotMoveEntryInRing)
{
    DedupBuffer buf(3);
    buf.record(1, replyWith(10));
    buf.record(2, replyWith(20));
    buf.record(3, replyWith(30));
    // Re-recording the oldest id neither refreshes its age nor its
    // cached result: it is still the next victim.
    buf.record(1, replyWith(99));
    EXPECT_EQ(cachedValue(buf, 1).value_or(0), 10u);
    buf.record(4, replyWith(40));
    EXPECT_FALSE(cachedValue(buf, 1).has_value());
    EXPECT_EQ(cachedValue(buf, 2).value_or(0), 20u);
    buf.record(2, replyWith(77)); // present: ignored
    buf.record(5, replyWith(50));
    EXPECT_FALSE(cachedValue(buf, 2).has_value());
    EXPECT_EQ(cachedValue(buf, 3).value_or(0), 30u);
    EXPECT_EQ(cachedValue(buf, 4).value_or(0), 40u);
    EXPECT_EQ(cachedValue(buf, 5).value_or(0), 50u);
    EXPECT_EQ(buf.size(), 3u);
}

TEST(DedupBufferUnit, FullRingEvictsOldestFirstAgainstReference)
{
    // Random records with frequent repeats, checked against a FIFO
    // model: a full ring evicts strictly the oldest *first* recording,
    // repeats never move an entry, and an evicted id is never found.
    for (const std::uint32_t capacity : {1u, 3u, 64u, 512u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        DedupBuffer buf(capacity);
        std::deque<ReqId> fifo;
        std::map<ReqId, std::uint64_t> live;
        std::set<ReqId> evicted;
        Rng rng(capacity);
        const ReqId span = 3 * capacity + 2;
        for (int step = 0; step < 20000; step++) {
            // CN-style ids: node in the high bits, sequence below.
            const ReqId id =
                (static_cast<ReqId>(rng.uniformInt(3)) << 40) |
                (1 + rng.uniformInt(span));
            const std::uint64_t result = rng.next();
            buf.record(id, replyWith(result));
            if (live.emplace(id, result).second) {
                fifo.push_back(id);
                evicted.erase(id);
                if (fifo.size() > capacity) {
                    live.erase(fifo.front());
                    evicted.insert(fifo.front());
                    fifo.pop_front();
                }
            }
            ASSERT_EQ(buf.size(), live.size()) << "step " << step;
            const ReqId probe =
                (static_cast<ReqId>(rng.uniformInt(3)) << 40) |
                (1 + rng.uniformInt(span));
            auto it = live.find(probe);
            const auto got = cachedValue(buf, probe);
            ASSERT_EQ(got.has_value(), it != live.end()) << "step " << step;
            if (got) {
                ASSERT_EQ(*got, it->second) << "step " << step;
            }
        }
        for (const ReqId id : evicted)
            EXPECT_FALSE(cachedValue(buf, id).has_value()) << "id " << id;
        for (const auto &[id, result] : live)
            EXPECT_EQ(cachedValue(buf, id).value_or(~result), result);
    }
}

TEST(CBoardDevice, FenceGatesLaterFastPathWork)
{
    // After a fence completes at tick T, requests arriving earlier
    // than T may not start before it (T3 gating).
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwrite(addr, &v, 8);

    // Launch a slow op (big write) async, then a fence, then a read:
    // the read must not complete before the fence.
    std::vector<std::uint8_t> big(256 * KiB, 0xAA);
    auto hw = client.rwriteAsync(addr + 4 * MiB, big.data(), big.size());
    auto hf = client.fenceAsync();
    std::uint64_t out = 0;
    auto hr = client.rreadAsync(addr, &out, 8);
    // The fence is a full barrier in the client ordering layer too,
    // so completion order must be: write, fence, read.
    EventQueue &eq = cluster.eventQueue();
    eq.runUntil([&] { return hr->done; });
    EXPECT_TRUE(hw->done);
    EXPECT_TRUE(hf->done);
    EXPECT_EQ(out, 1u);
}

TEST(CBoardDevice, OffloadAddressSpacesAreIsolated)
{
    // Two offloads get distinct PIDs: identical VAs name different
    // memory (R5 for the extend path).
    class Writer : public Offload
    {
      public:
        VirtAddr slot = 0;
        void
        init(OffloadVm &vm) override
        {
            slot = vm.alloc(4 * MiB);
        }
        OffloadResult
        invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg) override
        {
            OffloadResult res;
            if (arg.size() == 8) {
                std::uint64_t v;
                std::memcpy(&v, arg.data(), 8);
                vm.write64(slot, v);
            }
            res.value = vm.read64(slot).value_or(0);
            return res;
        }
    };
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto w1 = std::make_shared<Writer>();
    auto w2 = std::make_shared<Writer>();
    cluster.mn(0).registerOffload({.id = 10, .name = "writer-1"}, w1);
    cluster.mn(0).registerOffload({.id = 11, .name = "writer-2"}, w2);
    EXPECT_EQ(w1->slot, w2->slot); // same VA, separate spaces

    std::vector<std::uint8_t> arg(8);
    std::uint64_t v1 = 111, v2 = 222;
    std::memcpy(arg.data(), &v1, 8);
    client.rcall(cluster.mn(0).nodeId(), 10, arg);
    std::memcpy(arg.data(), &v2, 8);
    client.rcall(cluster.mn(0).nodeId(), 11, arg);
    // Re-read each offload's value with an empty arg.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 10, {})->value, v1);
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 11, {})->value, v2);
}

TEST(CBoardDevice, AsyncBufferRefillsAfterFaultBurst)
{
    auto cfg = ModelConfig::prototype();
    cfg.mn_phys_bytes = 2 * GiB;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const std::uint64_t page = cfg.page_table.page_size;
    const VirtAddr addr = client.ralloc(200 * page).value_or(0);
    std::uint64_t v = 1;
    for (int i = 0; i < 128; i++)
        client.rwrite(addr + static_cast<std::uint64_t>(i) * page, &v, 8);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 128u);
    // Let background refills drain, then the next fault is cheap.
    cluster.eventQueue().runUntilTime(cluster.eventQueue().now() +
                                      kMillisecond);
    const Tick t0 = cluster.eventQueue().now();
    client.rwrite(addr + 199 * page, &v, 8);
    EXPECT_LT(cluster.eventQueue().now() - t0, 10 * kMicrosecond);
}

TEST(CBoardDevice, BadOffloadIdAndBadFree)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 12345, {}).status(),
              Status::kOffloadError);
    EXPECT_EQ(client.rfree(123 * MiB), Status::kBadAddress);
}

} // namespace
} // namespace clio
