/**
 * @file
 * Per-layer host-cost replays for a traced run. Each replay feeds the
 * inputs the workload generated (its data requests, allocation sizes,
 * KV arguments, latencies and event-queue depth) to one layer's public
 * entry point on a fresh instance, and reports host ns per call. The
 * figures attribute host time to layers without instrumenting them.
 */

#include <algorithm>
#include <map>
#include <utility>

#include "apps/kv_store.hh"
#include "bench.hh"
#include "cboard/cboard.hh"
#include "mem/physical_memory.hh"
#include "net/network.hh"
#include "pagetable/hash_page_table.hh"
#include "pagetable/tlb.hh"
#include "proto/wire.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "valloc/va_allocator.hh"

namespace e2e {

using namespace clio;

namespace {

/** Replays run whole passes over their inputs until this much host
 * time has gone by, so that short input lists still time steadily. */
constexpr std::uint64_t kMinReplayNs = 50'000'000;

/** Calls `pass` (which returns the units of work it did: calls, or
 * bytes) until kMinReplayNs elapsed; @return host ns per unit. */
template <typename Pass>
double
timed(Pass &&pass)
{
    std::uint64_t calls = 0;
    const std::uint64_t t0 = hostNs();
    std::uint64_t t = t0;
    do {
        calls += pass();
        t = hostNs();
    } while (t - t0 < kMinReplayNs);
    return calls ? static_cast<double>(t - t0) / static_cast<double>(calls)
                 : 0.0;
}

/** Dense frame numbers for the distinct pages the ops touch. */
std::map<std::pair<ProcId, std::uint64_t>, std::uint64_t>
framesOf(const std::vector<DataOp> &ops, std::uint64_t page)
{
    std::map<std::pair<ProcId, std::uint64_t>, std::uint64_t> frames;
    for (const DataOp &op : ops)
        frames.emplace(std::make_pair(op.pid, op.va / page), frames.size());
    return frames;
}

/** Physical capacity that holds `pages` frames (at least the default). */
std::uint64_t
capacityFor(const ModelConfig &cfg, std::size_t pages)
{
    return std::max<std::uint64_t>(cfg.mn_phys_bytes,
                                   (pages + 1) * cfg.page_table.page_size);
}

double
replaySim(const std::vector<Tick> &lat, std::uint64_t depth)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    const std::size_t n = lat.size();
    auto delay = [&](std::size_t i) { return n ? lat[i % n] : kMicrosecond; };
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(depth, 1); i++)
        eq.schedule(delay(i), [&fired] { fired++; });
    std::size_t i = 0;
    return timed([&] {
        for (std::size_t k = 0; k < 100000; k++, i++) {
            eq.schedule(eq.now() + delay(i), [&fired] { fired++; });
            eq.runOne();
        }
        return std::uint64_t{100000};
    });
}

double
replayNet(const ModelConfig &cfg, const ReplayLog &log, std::uint64_t seed)
{
    EventQueue eq;
    Network net(eq, cfg.net, seed);
    std::uint64_t delivered = 0;
    auto rx = [&delivered](Packet) { delivered++; };
    // Same node order as the cluster: MNs, then CNs, rack-major.
    std::vector<NodeId> mns, cns;
    for (RackId r = 0; r < log.spec.racks; r++)
        for (std::uint32_t i = 0; i < log.spec.mns_per_rack; i++)
            mns.push_back(net.addNode(rx, 0, r));
    for (RackId r = 0; r < log.spec.racks; r++)
        for (std::uint32_t i = 0; i < log.spec.cns_per_rack; i++)
            cns.push_back(net.addNode(rx, 0, r));
    ReqId id = 1;
    return timed([&] {
        const std::uint64_t sent0 = net.stats().sent;
        for (const DataOp &op : log.ops) {
            const NodeId cn = cns.at(op.cn), mn = mns.at(op.mn);
            sendSplit(eq, net, eq.now(), cn, mn, id,
                      op.write ? MsgType::kWrite : MsgType::kRead,
                      op.write ? op.size : 0, nullptr);
            sendSplit(eq, net, eq.now(), mn, cn, id, MsgType::kResponse,
                      op.write ? 0 : op.size, nullptr);
            id++;
            eq.runAll();
        }
        return net.stats().sent - sent0;
    });
}

double
replayFastPath(const ModelConfig &cfg, const ReplayLog &log)
{
    const std::uint64_t page = cfg.page_table.page_size;
    const auto frames = framesOf(log.ops, page);
    EventQueue eq;
    Network net(eq, cfg.net, 1);
    CBoard board(eq, net, cfg, capacityFor(cfg, frames.size()));
    for (const auto &[key, frame] : frames) {
        if (board.pageTable().freeSlotsInBucket(key.first, key.second) == 0)
            continue;
        board.pageTable().insert(key.first, key.second, kPermReadWrite);
        board.pageTable().bindFrame(key.first, key.second, frame * page);
    }
    RequestMsg req;
    ResponseMsg resp;
    ReqId id = 1;
    return timed([&] {
        for (const DataOp &op : log.ops) {
            req.type = op.write ? MsgType::kWrite : MsgType::kRead;
            req.pid = op.pid;
            req.addr = op.va;
            req.size = op.size;
            req.data.resize(op.write ? op.size : 0);
            req.req_id = req.orig_req_id = id++;
            board.serviceFastPath(req, 0, resp);
        }
        return std::uint64_t{log.ops.size()};
    });
}

double
replayTlb(const ModelConfig &cfg, const ReplayLog &log)
{
    const std::uint64_t page = cfg.page_table.page_size;
    Tlb tlb(cfg.fast_path.tlb_entries);
    return timed([&] {
        for (const DataOp &op : log.ops) {
            if (tlb.lookup(op.pid, op.va / page))
                continue;
            Pte pte;
            pte.pid = op.pid;
            pte.vpn = op.va / page;
            pte.valid = pte.present = true;
            tlb.insert(pte);
        }
        return std::uint64_t{log.ops.size()};
    });
}

double
replayPageTable(const ModelConfig &cfg, const ReplayLog &log)
{
    const std::uint64_t page = cfg.page_table.page_size;
    const auto frames = framesOf(log.ops, page);
    HashPageTable pt(capacityFor(cfg, frames.size()), page,
                     cfg.page_table.bucket_slots,
                     cfg.page_table.overprovision);
    for (const auto &[key, frame] : frames) {
        if (pt.freeSlotsInBucket(key.first, key.second) > 0)
            pt.insert(key.first, key.second, kPermReadWrite);
    }
    std::uint64_t found = 0;
    const double ns = timed([&] {
        for (const DataOp &op : log.ops)
            found += pt.lookup(op.pid, op.va / page) != nullptr;
        return std::uint64_t{log.ops.size()};
    });
    return found ? ns : 0.0;
}

double
replayMemory(const ModelConfig &cfg, const ReplayLog &log)
{
    const std::uint64_t page = cfg.page_table.page_size;
    const auto frames = framesOf(log.ops, page);
    PhysicalMemory mem(capacityFor(cfg, frames.size()));
    std::uint64_t max_size = 0;
    for (const DataOp &op : log.ops)
        max_size = std::max<std::uint64_t>(max_size, op.size);
    std::vector<std::uint8_t> buf(max_size, 0x5a);
    const double ns_per_byte = timed([&] {
        std::uint64_t bytes = 0;
        for (const DataOp &op : log.ops) {
            const PhysAddr pa =
                frames.at({op.pid, op.va / page}) * page + op.va % page;
            if (op.write)
                mem.write(pa, buf.data(), op.size);
            else
                mem.read(pa, buf.data(), op.size);
            bytes += op.size;
        }
        return bytes;
    });
    return ns_per_byte * 1024.0;
}

double
replayValloc(const ModelConfig &cfg, const ReplayLog &log)
{
    const std::uint64_t page = cfg.page_table.page_size;
    HashPageTable pt(cfg.mn_phys_bytes, page, cfg.page_table.bucket_slots,
                     cfg.page_table.overprovision);
    VaAllocator va(page, 1ull << 46);
    const ProcId pid = 1;
    return timed([&] {
        for (const std::uint64_t size : log.alloc_sizes) {
            const auto got = va.allocate(pid, size, kPermReadWrite, pt);
            if (got)
                va.free(pid, got->addr);
        }
        return std::uint64_t{log.alloc_sizes.size()};
    });
}

double
replayOffload(const ModelConfig &cfg, const ReplayLog &log)
{
    constexpr std::uint32_t kId = 1;
    EventQueue eq;
    Network net(eq, cfg.net, 1);
    CBoard board(eq, net, cfg);
    board.registerOffload(ClioKvOffload::descriptor(kId),
                          std::make_shared<ClioKvOffload>());
    OffloadResult res;
    for (const auto &arg : log.kv_preload)
        board.invokeOffloadLocal(kId, arg, res);
    return timed([&] {
        for (const auto &arg : log.kv_args)
            board.invokeOffloadLocal(kId, arg, res);
        return std::uint64_t{log.kv_args.size()};
    });
}

} // namespace

ReplayResult
replayLayers(const ReplayLog &log, const std::vector<Tick> &latencies,
             std::uint64_t pending_depth, std::uint64_t seed)
{
    const ModelConfig cfg;
    ReplayResult r;
    r.sim_ns_per_event = replaySim(latencies, pending_depth);
    if (!log.ops.empty()) {
        r.net_ns_per_packet = replayNet(cfg, log, seed);
        r.cboard_ns_per_fastpath = replayFastPath(cfg, log);
        r.tlb_ns_per_lookup = replayTlb(cfg, log);
        r.pt_ns_per_lookup = replayPageTable(cfg, log);
        r.mem_ns_per_kib = replayMemory(cfg, log);
    }
    if (!log.alloc_sizes.empty())
        r.valloc_ns_per_alloc = replayValloc(cfg, log);
    if (!log.kv_args.empty())
        r.offload_ns_per_invoke = replayOffload(cfg, log);
    return r;
}

} // namespace e2e
