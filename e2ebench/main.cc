/**
 * @file
 * End-to-end benchmark for the simulated Clio cluster.
 *
 *   clio_e2ebench --workload <small_rw|kv_ycsb_a|bulk_rw> --seed <n>
 *                 --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * One run makes a fixed number of "rep"s, chosen from --seconds so that
 * the run lasts about that long. A rep builds a fresh cluster, preloads
 * and warms it up (set-up), then runs a fixed number of operations (the
 * timed phase). The simulated history of a rep depends on the seed
 * only, so every rep of a run must produce the same digest and the same
 * simulated figures; a run whose reps disagree is reported as
 * incorrect. Because the rep count does not depend on host speed
 * either, the attempted and failed counts of a run are a pure function
 * of its arguments.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced and traced reps, reports the per-layer metrics (layer
 * counters from each component's stats(), host time around the
 * benchmark's calls into the library, and replays of the workload's own
 * inputs against each layer's entry points) plus the tracing overhead,
 * and writes the spans to --trace-out. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hh"

namespace e2e {

using namespace clio;

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

void
Tracer::open(Kind kind, std::uint64_t op)
{
    Span s;
    s.kind = kind;
    s.op = op;
    s.id = next_id_++;
    s.parent = open_.empty() ? 0 : open_.back().id;
    s.start = hostNs();
    open_.push_back(s);
}

void
Tracer::close()
{
    Span s = open_.back();
    open_.pop_back();
    s.end = hostNs();
    total_ns_[s.kind] += s.end - s.start;
    count_[s.kind]++;
    if (kept_.size() < kKeep)
        kept_.push_back(s);
}

bool
Tracer::writeJson(const std::string &path) const
{
    static const char *const kNames[kKinds] = {"runner.pump",
                                               "bench.step",
                                               "clib.submit"};
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t t0 = ~0ull;
    for (const Span &s : kept_)
        t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < kept_.size(); i++) {
        const Span &s = kept_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%u,\"parent\":%u,\"op\":%" PRIu64 "}}",
                     i ? "," : "", kNames[s.kind],
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.id,
                     s.parent, s.op);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

namespace {

// ---------------------------------------------------------------------
// Layer counters, read through each component's public accessors
// ---------------------------------------------------------------------

struct Snap
{
    std::uint64_t events = 0;
    Tick now = 0;
    std::uint64_t net_sent = 0;
    std::uint64_t net_cross_rack = 0;
    std::uint64_t net_dropped = 0;
    std::uint32_t net_peak_queue = 0;
    std::uint64_t cn_retries = 0;
    std::uint64_t cn_timeouts = 0;
    std::uint64_t cn_failures = 0;
    std::uint64_t ordering_stalls = 0;
    std::uint64_t page_faults = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t dup_parts = 0;
    std::uint64_t mn_offload_calls = 0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t engine_dispatches = 0;
    Tick engine_wait = 0;
    Tick engine_busy = 0;
    std::uint64_t engines = 0;
    std::uint64_t offload_calls = 0;
    OffloadCost offload_cost;
    std::uint64_t chunks = 0;
    std::uint64_t frames = 0;
};

Snap
snap(Cluster &c)
{
    Snap s;
    s.events = c.eventQueue().executed();
    s.now = c.eventQueue().now();
    const NetStats &net = c.network().stats();
    s.net_sent = net.sent;
    s.net_cross_rack = net.cross_rack;
    s.net_dropped = net.dropped_random + net.dropped_queue +
                    net.dropped_agg_queue + net.dropped_down +
                    net.dropped_fault;
    s.net_peak_queue = net.peak_queue_depth;
    for (std::uint32_t i = 0; i < c.cnCount(); i++) {
        const CNodeStats &cs = c.cn(i).stats();
        s.cn_retries += cs.retries;
        s.cn_timeouts += cs.timeouts;
        s.cn_failures += cs.failures;
    }
    for (std::uint32_t i = 0; i < c.clientCount(); i++)
        s.ordering_stalls += c.client(i).stats().ordering_stalls;
    for (std::uint32_t i = 0; i < c.mnCount(); i++) {
        CBoard &mn = c.mn(i);
        const CBoardStats &bs = mn.stats();
        s.page_faults += bs.page_faults;
        s.nacks_sent += bs.nacks_sent;
        s.dup_parts += bs.dup_parts_dropped;
        s.mn_offload_calls += bs.offload_calls;
        s.tlb_hits += mn.tlb().hits();
        s.tlb_misses += mn.tlb().misses();
        const OffloadRuntime &rt = mn.offloadRuntime();
        const EngineSchedulerStats &es = rt.scheduler().stats();
        s.engine_dispatches += es.dispatches;
        s.engine_wait += es.wait_ticks;
        s.engine_busy += es.busy_ticks;
        s.engines += rt.scheduler().engineCount();
        for (const auto &[id, entry] : rt.registry().entries()) {
            s.offload_calls += entry.stats.calls + entry.stats.chain_stages;
            s.offload_cost += entry.stats.cost;
        }
        s.chunks += mn.memory().materializedChunks();
        s.frames += mn.frames().usedFrames();
    }
    return s;
}

/** Counters: after - before. Gauges (peak queue, chunks, frames,
 * engine count) keep their value at the end of the timed phase. */
Snap
delta(const Snap &a, const Snap &b)
{
    Snap d = b;
    d.events = b.events - a.events;
    d.now = b.now - a.now;
    d.net_sent = b.net_sent - a.net_sent;
    d.net_cross_rack = b.net_cross_rack - a.net_cross_rack;
    d.net_dropped = b.net_dropped - a.net_dropped;
    d.cn_retries = b.cn_retries - a.cn_retries;
    d.cn_timeouts = b.cn_timeouts - a.cn_timeouts;
    d.cn_failures = b.cn_failures - a.cn_failures;
    d.ordering_stalls = b.ordering_stalls - a.ordering_stalls;
    d.page_faults = b.page_faults - a.page_faults;
    d.nacks_sent = b.nacks_sent - a.nacks_sent;
    d.dup_parts = b.dup_parts - a.dup_parts;
    d.mn_offload_calls = b.mn_offload_calls - a.mn_offload_calls;
    d.tlb_hits = b.tlb_hits - a.tlb_hits;
    d.tlb_misses = b.tlb_misses - a.tlb_misses;
    d.engine_dispatches = b.engine_dispatches - a.engine_dispatches;
    d.engine_wait = b.engine_wait - a.engine_wait;
    d.engine_busy = b.engine_busy - a.engine_busy;
    d.offload_calls = b.offload_calls - a.offload_calls;
    d.offload_cost.translate =
        b.offload_cost.translate - a.offload_cost.translate;
    d.offload_cost.dram = b.offload_cost.dram - a.offload_cost.dram;
    d.offload_cost.compute = b.offload_cost.compute - a.offload_cost.compute;
    d.offload_cost.control = b.offload_cost.control - a.offload_cost.control;
    return d;
}

// ---------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------

/** Simulated figures of a rep: exactly reproducible from the seed. */
struct SimFigures
{
    double p50_us = 0;
    double p999_us = 0;
    double mops = 0;
    double goodput_gbps = 0;
    double success_rate = 0;
    bool operator==(const SimFigures &) const = default;
};

struct Rep
{
    bool traced = false;
    double setup_s = 0;
    double host_s = 0;
    Tick sim = 0;
    Snap d;
    Recorder rec;
    SimFigures fig;
    std::uint64_t pump_ns = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t submits = 0;

    double opsPerHostS() const
    {
        return static_cast<double>(rec.attempted) / host_s;
    }
};

/** Nearest-rank percentile of exact samples (p in (0, 1]). */
Tick
percentile(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

SimFigures
figures(const Recorder &rec, Tick sim)
{
    SimFigures f;
    std::vector<Tick> sorted = rec.lat;
    std::sort(sorted.begin(), sorted.end());
    f.p50_us = ticksToUs(percentile(sorted, 0.5));
    f.p999_us = ticksToUs(percentile(sorted, 0.999));
    const double sim_s = ticksToSeconds(sim);
    f.mops = static_cast<double>(rec.attempted - rec.failed) / sim_s / 1e6;
    f.goodput_gbps = static_cast<double>(rec.ok_bytes) * 8.0 / sim_s / 1e9;
    f.success_rate = static_cast<double>(rec.attempted - rec.failed) /
                     static_cast<double>(rec.attempted);
    return f;
}

Rep
runRep(const std::string &name, std::uint64_t seed, bool traced,
       ReplayLog &log, Tracer &tracer)
{
    Rep r;
    r.traced = traced;
    const std::uint64_t t0 = hostNs();
    std::unique_ptr<Workload> w = makeWorkload(name, seed, r.rec, tracer, log);
    w->setup();
    const std::uint64_t t1 = hostNs();
    const Snap before = snap(w->cluster());
    tracer.enable(traced);
    r.rec.timed = true;
    const std::uint64_t h0 = hostNs();
    r.sim = w->run();
    const std::uint64_t h1 = hostNs();
    r.rec.timed = false;
    tracer.enable(false);
    r.d = delta(before, snap(w->cluster()));
    r.setup_s = static_cast<double>(t1 - t0) / 1e9;
    r.host_s = static_cast<double>(h1 - h0) / 1e9;
    r.pump_ns = tracer.totalNs(Tracer::kPump);
    r.step_ns = tracer.totalNs(Tracer::kStep);
    r.submit_ns = tracer.totalNs(Tracer::kSubmit);
    r.submits = tracer.count(Tracer::kSubmit);
    r.rec.fold(r.d.events);
    r.rec.fold(w->cluster().eventQueue().now());
    r.rec.fold(r.sim);
    r.fig = figures(r.rec, r.sim);
    return r;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Host seconds of one untraced rep (set-up + timed phase) on a 4-core
 * x86-64 VM; a run makes --seconds / this many reps. */
double
nominalRepSeconds(const std::string &name)
{
    if (name == "bulk_rw")
        return 1.25;
    return 0.6;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: clio_e2ebench --workload <small_rw|kv_ycsb_a|"
                 "bulk_rw> --seed <n> --seconds <1-120> --trace <0|1> "
                 "[--trace-out <file>]\n");
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    std::string name;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false;
    std::string trace_out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        bool ok = true;
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            ok = have_seed = parseU64(val, seed);
        else if (flag == "--seconds")
            ok = parseU64(val, seconds);
        else if (flag == "--trace")
            ok = parseU64(val, trace);
        else if (flag == "--trace-out")
            trace_out = val;
        else
            ok = false;
        if (!ok) {
            usage();
            return 2;
        }
    }
    if (argc % 2 == 0 || !knownWorkload(name) || !have_seed ||
        seconds < 1 || seconds > 120 || trace > 1) {
        usage();
        return 2;
    }

    // A fixed number of reps: about --seconds' worth, at least three,
    // and with tracing at least two traced and two untraced
    // (alternating). Host speed does not change the count, so it does
    // not change which operations a run attempts.
    const std::size_t min_reps = trace ? 4 : 3;
    const std::size_t rep_count = std::max<std::size_t>(
        min_reps, static_cast<std::size_t>(std::llround(
                      static_cast<double>(seconds) /
                      nominalRepSeconds(name))));
    std::vector<Rep> reps;
    ReplayLog log;
    Tracer kept_tracer;
    for (std::size_t i = 0; i < rep_count; i++) {
        const bool traced = trace && i % 2 == 1;
        const bool first_traced = traced && i == 1;
        log.on = first_traced;
        Tracer tracer;
        reps.push_back(
            runRep(name, seed, traced, log, first_traced ? kept_tracer
                                                         : tracer));
        Rep &r = reps.back();
        // Only the first traced rep's samples feed the replays; keeping
        // every rep's samples would make peak RSS grow with run length.
        if (!first_traced)
            std::vector<Tick>().swap(r.rec.lat);
        std::printf("rep %zu%s setup_s=%.4f host_s=%.4f ops=%" PRIu64
                    " ops_per_host_s=%.1f digest=%016" PRIx64 "\n",
                    i, r.traced ? " traced" : "", r.setup_s, r.host_s,
                    r.rec.attempted, r.opsPerHostS(), r.rec.digest);
    }
    log.on = false;

    const Rep &r0 = reps.front();
    const Snap &d = r0.d;
    std::uint64_t attempted = 0, failed = 0, unchecked = 0;
    std::uint64_t setup_failed = 0;
    bool deterministic = true;
    std::vector<std::string> problems;
    for (const Rep &r : reps) {
        attempted += r.rec.attempted;
        failed += r.rec.failed;
        unchecked += r.rec.unchecked;
        setup_failed += r.rec.setup_failed;
        if (r.rec.mismatches)
            problems.push_back("output check: " + r.rec.first_mismatch);
        if (r.rec.digest != r0.rec.digest || !(r.fig == r0.fig) ||
            r.d.events != d.events)
            deterministic = false;
    }
    if (!deterministic)
        problems.push_back("determinism: reps with the same seed "
                           "produced different simulated histories");

    // Mechanism-bypass checks: each workload reaches the layers it is
    // meant to load, and not the ones it is meant to bypass.
    const std::uint64_t offload_activity =
        d.mn_offload_calls + d.engine_dispatches + d.offload_calls;
    const bool wants_offload = name == "kv_ycsb_a";
    const double tlb_hit_rate =
        ratio(static_cast<double>(d.tlb_hits),
              static_cast<double>(d.tlb_hits + d.tlb_misses));
    if (wants_offload != (offload_activity > 0))
        problems.push_back(wants_offload
                               ? "bypass: kv_ycsb_a made no offload calls"
                               : "bypass: offload counters moved on a "
                                 "workload without offloads");
    if (name == "small_rw" && d.net_cross_rack == 0)
        problems.push_back("bypass: small_rw sent nothing across racks");
    if (name == "bulk_rw" && !(tlb_hit_rate < 1.0))
        problems.push_back("bypass: bulk_rw never missed the TLB");

    const double ops = static_cast<double>(r0.rec.attempted);
    const SimFigures &fig = r0.fig;
    std::printf("timed ops per rep %" PRIu64 ", failed %" PRIu64
                ", error_rate %.6g\n",
                r0.rec.attempted, r0.rec.failed, 1.0 - fig.success_rate);
    std::printf("sim_p50_us %.6f sim_p999_us %.6f (n=%" PRIu64
                ") sim_mops %.6f sim_goodput_gbps %.6f\n",
                fig.p50_us, fig.p999_us, r0.rec.attempted, fig.mops,
                fig.goodput_gbps);
    std::printf("reads left unchecked (last write failed) %" PRIu64
                ", set-up ops failed %" PRIu64 "\n",
                unchecked, setup_failed);
    std::printf("history digest %016" PRIx64 " events %" PRIu64
                " timed_ticks %" PRIu64 "\n",
                r0.rec.digest, d.events, d.now);
    for (const std::string &p : problems)
        std::printf("FAIL %s\n", p.c_str());

    std::vector<Metric> metrics;
    if (!trace) {
        std::vector<double> tput, setup;
        for (const Rep &r : reps) {
            tput.push_back(r.opsPerHostS());
            setup.push_back(r.setup_s);
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"ops_per_host_s", median(tput), "1/s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0,
             "MiB"},
            {"sim_p50_us", fig.p50_us, "us"},
            {"sim_p999_us", fig.p999_us, "us"},
            {"sim_mops", fig.mops, "Mops/s"},
            {"sim_goodput_gbps", fig.goodput_gbps, "Gbps"},
            {"success_rate", fig.success_rate, "ratio"},
        };
    } else {
        std::vector<double> plain, traced, pump_ns_per_event, submit_ns;
        const Rep *replayed = nullptr;
        for (const Rep &r : reps) {
            if (!r.traced) {
                plain.push_back(r.opsPerHostS());
                continue;
            }
            if (!replayed)
                replayed = &r;
            traced.push_back(r.opsPerHostS());
            pump_ns_per_event.push_back(
                ratio(static_cast<double>(r.pump_ns - r.step_ns),
                      static_cast<double>(r.d.events)));
            submit_ns.push_back(ratio(static_cast<double>(r.submit_ns),
                                      static_cast<double>(r.submits)));
        }
        const Recorder &trec = replayed->rec;
        const std::uint64_t depth =
            trec.pending_samples ? trec.pending_sum / trec.pending_samples
                                 : 0;
        std::printf("event-queue depth: mean %" PRIu64 " peak %" PRIu64
                    "\n",
                    depth, trec.pending_peak);
        const ReplayResult rp = replayLayers(log, trec.lat, depth, seed);
        if (!trace_out.empty() && !kept_tracer.writeJson(trace_out))
            std::fprintf(stderr, "warn: could not write %s\n",
                         trace_out.c_str());
        const double calls = static_cast<double>(d.offload_calls);
        const double us = static_cast<double>(kMicrosecond);
        metrics = {
            {"sim.events_per_op", ratio(d.events, ops), "events/op"},
            {"sim.host_ns_per_event", median(pump_ns_per_event),
             "ns/event"},
            {"sim.replay_ns_per_event", rp.sim_ns_per_event, "ns/event"},
            {"net.packets_per_op", ratio(d.net_sent, ops), "packets/op"},
            {"net.dropped", static_cast<double>(d.net_dropped), "count"},
            {"net.peak_queue_depth", static_cast<double>(d.net_peak_queue),
             "packets"},
            {"net.cross_rack_frac", ratio(d.net_cross_rack, d.net_sent),
             "ratio"},
            {"net.replay_ns_per_packet", rp.net_ns_per_packet,
             "ns/packet"},
            {"clib.submit_ns_per_op", median(submit_ns), "ns/op"},
            {"clib.retries_per_op", ratio(d.cn_retries, ops),
             "retries/op"},
            {"clib.timeouts", static_cast<double>(d.cn_timeouts), "count"},
            {"clib.failures", static_cast<double>(d.cn_failures), "count"},
            {"clib.ordering_stalls", static_cast<double>(d.ordering_stalls),
             "count"},
            {"cboard.page_faults_per_op", ratio(d.page_faults, ops),
             "faults/op"},
            {"cboard.nacks_sent", static_cast<double>(d.nacks_sent),
             "count"},
            {"cboard.dup_parts_dropped", static_cast<double>(d.dup_parts),
             "count"},
            {"cboard.replay_ns_per_fastpath", rp.cboard_ns_per_fastpath,
             "ns/call"},
            {"pagetable.tlb_hit_rate", tlb_hit_rate, "ratio"},
            {"pagetable.replay_ns_per_tlb_lookup", rp.tlb_ns_per_lookup,
             "ns/call"},
            {"pagetable.replay_ns_per_pt_lookup", rp.pt_ns_per_lookup,
             "ns/call"},
            {"mem.materialized_chunks", static_cast<double>(d.chunks),
             "count"},
            {"mem.frames_used", static_cast<double>(d.frames), "count"},
            {"mem.replay_ns_per_kib", rp.mem_ns_per_kib, "ns/KiB"},
            {"valloc.replay_ns_per_alloc", rp.valloc_ns_per_alloc,
             "ns/call"},
            {"offload.engine_wait_us_per_call",
             ratio(d.engine_wait / us, d.engine_dispatches), "us/call"},
            {"offload.engine_busy_frac",
             ratio(d.engine_busy, static_cast<double>(d.engines) *
                                      static_cast<double>(r0.sim)),
             "ratio"},
            {"offload.translate_us_per_call",
             ratio(d.offload_cost.translate / us, calls), "us/call"},
            {"offload.dram_us_per_call",
             ratio(d.offload_cost.dram / us, calls), "us/call"},
            {"offload.compute_us_per_call",
             ratio(d.offload_cost.compute / us, calls), "us/call"},
            {"offload.replay_ns_per_invoke", rp.offload_ns_per_invoke,
             "ns/call"},
            {"trace_overhead_frac", 1.0 - median(traced) / median(plain),
             "ratio"},
        };
    }
    for (const Metric &m : metrics)
        std::printf("%-36s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const bool correct = problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
