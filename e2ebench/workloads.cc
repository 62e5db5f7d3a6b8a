/**
 * @file
 * The benchmark's three workloads. Each is a set of closed loops: a
 * simulated process issues its next request when the previous one
 * completes. Inputs come from the workload seed only; the model seed
 * stays at the ModelConfig default. Every workload keeps a shadow of
 * what it wrote and checks each successful read against it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

#include "apps/kv_store.hh"
#include "apps/runner.hh"
#include "apps/ycsb.hh"
#include "bench.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

namespace e2e {

using namespace clio;

void
fillPattern(std::uint8_t *dst, std::size_t len, std::uint64_t key)
{
    if (key == 0) {
        std::memset(dst, 0, len);
        return;
    }
    std::uint64_t w = key;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8, w += 0x9E3779B97F4A7C15ull)
        std::memcpy(dst + i, &w, 8);
    for (; i < len; i++)
        dst[i] = static_cast<std::uint8_t>(w >> (8 * (i % 8)));
}

bool
checkPattern(const std::uint8_t *src, std::size_t len, std::uint64_t key)
{
    std::uint64_t w = key;
    const std::uint64_t step = key ? 0x9E3779B97F4A7C15ull : 0;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8, w += step) {
        std::uint64_t got;
        std::memcpy(&got, src + i, 8);
        if (got != w)
            return false;
    }
    for (; i < len; i++) {
        if (src[i] != static_cast<std::uint8_t>(w >> (8 * (i % 8))))
            return false;
    }
    return true;
}

void
Recorder::fold(std::uint64_t v)
{
    digest = (digest ^ v) * 0x100000001b3ull;
}

void
Recorder::complete(Tick issued, const Completion &c,
                   std::uint64_t payload_bytes)
{
    const Tick l = c.completed_at - issued;
    fold(l);
    fold(static_cast<std::uint64_t>(c.status));
    if (!timed) {
        if (!c.ok())
            setup_failed++;
        return;
    }
    attempted++;
    lat.push_back(l);
    if (c.ok())
        ok_bytes += payload_bytes;
    else
        failed++;
}

void
Recorder::mismatch(const std::string &what)
{
    if (mismatches++ == 0)
        first_mismatch = what;
}

namespace {

constexpr std::uint32_t kUnknown = ~0u;

[[noreturn]] void
setupFailure(const char *what)
{
    std::fprintf(stderr, "e2ebench: setup failed: %s\n", what);
    std::exit(3);
}

/** Scaffolding shared by the workloads: the cluster, the closed-loop
 * phase runner, and op/span bookkeeping. */
class Base : public Workload
{
  public:
    Base(std::uint64_t seed, Recorder &rec, Tracer &tracer, ReplayLog &log)
        : seed_(seed), rec_(rec), tracer_(tracer), log_(log)
    {
    }

    Cluster &cluster() override { return *cluster_; }

  protected:
    void
    build(const ClusterSpec &spec)
    {
        log_.spec = spec;
        cluster_ = std::make_unique<Cluster>(ModelConfig{}, spec);
    }

    /** Run `n` closed loops until each finishes. @return sim time. */
    Tick
    phase(std::size_t n, const std::function<ActorStep(std::size_t)> &step)
    {
        ClosedLoopRunner runner(cluster_->eventQueue());
        for (std::size_t i = 0; i < n; i++)
            runner.addActor([&step, i] { return step(i); });
        Scope pump(tracer_, Tracer::kPump);
        return runner.run();
    }

    /** Event-queue depth, sampled at every timed actor step. */
    void
    sampleDepth()
    {
        if (!rec_.timed)
            return;
        const std::uint64_t d = cluster_->eventQueue().pending();
        rec_.pending_sum += d;
        rec_.pending_samples++;
        rec_.pending_peak = std::max(rec_.pending_peak, d);
    }

    Tick now() { return cluster_->eventQueue().now(); }

    void
    logOp(ClioClient &client, std::uint32_t cn, VirtAddr va,
          std::uint64_t size, bool write)
    {
        if (!log_.on || !rec_.timed)
            return;
        log_.addOp({client.pid(), va, static_cast<std::uint32_t>(size),
                    write, cn, cluster_->mnIndexOf(client.mnFor(va))});
    }

    std::uint64_t seed_;
    Recorder &rec_;
    Tracer &tracer_;
    ReplayLog &log_;
    std::unique_ptr<Cluster> cluster_;
    std::uint64_t op_seq_ = 0;
};

// ---------------------------------------------------------------------
// small_rw: 16 B reads and writes (2:1) at random offsets of per-process
// areas; 64 processes on a 2-rack leaf/spine cluster, 8 of them
// attached to another process' address space from the other rack.
// ---------------------------------------------------------------------

class SmallRw final : public Base
{
  public:
    using Base::Base;

    static constexpr std::uint32_t kBases = 56;
    static constexpr std::uint32_t kShared = 8;
    static constexpr std::uint32_t kActors = kBases + kShared;
    static constexpr std::uint64_t kSlot = 16;
    static constexpr std::uint64_t kArea = 32 * KiB;
    static constexpr std::uint32_t kSlots = kArea / kSlot;
    static constexpr std::uint64_t kPreloadChunk = 1 * KiB;
    static constexpr std::uint32_t kChunkSlots = kPreloadChunk / kSlot;
    static constexpr std::uint64_t kWarmOps = 100;
    static constexpr std::uint64_t kTimedOps = 4000;

    void
    setup() override
    {
        ClusterSpec spec;
        spec.racks = 2;
        spec.cns_per_rack = 2;
        spec.mns_per_rack = 2;
        build(spec);
        actors_.resize(kActors);
        // Each base process allocates two areas: the first is its
        // own, the second is used by its shared partner (if any).
        for (std::uint32_t b = 0; b < kBases; b++) {
            Actor &a = actors_[b];
            a.cn = b % 4;
            a.client = &cluster_->createClient(a.cn);
            const auto va = a.client->ralloc(2 * kArea);
            if (!va)
                setupFailure("small_rw ralloc");
            a.area = *va;
            if (log_.on)
                log_.alloc_sizes.push_back(2 * kArea);
        }
        // CNs are numbered rack-major (0,1 in rack 0; 2,3 in rack
        // 1), so cn + 2 is a CN of the other rack: the shared
        // partner's requests cross the spine.
        for (std::uint32_t s = 0; s < kShared; s++) {
            const Actor &owner = actors_[s * 7];
            Actor &a = actors_[kBases + s];
            a.cn = (owner.cn + 2) % 4;
            a.client =
                &cluster_->createSharedClient(a.cn, *owner.client);
            a.area = owner.area + kArea;
        }
        for (std::uint32_t i = 0; i < kActors; i++) {
            Actor &a = actors_[i];
            a.id = i;
            a.rng = Rng(mix(seed_, i, 0x5157));
            a.ver.assign(kSlots, kUnknown);
            a.buf.resize(kPreloadChunk);
        }
        phase(kActors, [this](std::size_t i) { return preload(i); });
        for (Actor &a : actors_)
            a.left = kWarmOps;
        phase(kActors, [this](std::size_t i) { return step(i); });
    }

    Tick
    run() override
    {
        for (Actor &a : actors_)
            a.left = kTimedOps;
        return phase(kActors, [this](std::size_t i) { return step(i); });
    }

  private:
    struct Actor
    {
        std::uint32_t id = 0;
        ClioClient *client = nullptr;
        std::uint32_t cn = 0;
        VirtAddr area = 0;
        Rng rng;
        std::vector<std::uint32_t> ver;
        std::uint32_t preloaded = 0;
        std::uint32_t next_ver = 0;
        std::uint64_t left = 0;
        bool busy = false;
        bool write = false;
        std::uint32_t slot = 0;
        std::uint32_t wver = 0;
        Tick issued = 0;
        std::uint64_t op = 0;
        std::vector<std::uint8_t> buf;
        std::vector<Completion> comps;
    };

    static std::uint64_t
    key(const Actor &a, std::uint32_t slot, std::uint32_t ver)
    {
        return mix(a.id + 1, slot, ver) | 1;
    }

    /** Write the whole area once (version 0 of every slot), 1 KiB per
     * request: larger concurrent preload writes from all 64 processes
     * run into the retry timeout. */
    ActorStep
    preload(std::size_t i)
    {
        Actor &a = actors_[i];
        if (a.busy) {
            a.busy = false;
            const Completion &c = a.comps.at(0);
            rec_.complete(a.issued, c, kPreloadChunk);
            if (c.ok())
                std::fill_n(a.ver.begin() + a.preloaded - kChunkSlots,
                            kChunkSlots, 0u);
        }
        if (a.preloaded == kSlots)
            return ActorStep::done();
        for (std::uint32_t s = 0; s < kChunkSlots; s++)
            fillPattern(a.buf.data() + s * kSlot, kSlot,
                        key(a, a.preloaded + s, 0));
        const VirtAddr va = a.area + a.preloaded * kSlot;
        a.preloaded += kChunkSlots;
        a.busy = true;
        a.issued = now();
        return ActorStep::wait(
            a.client->rwriteAsync(va, a.buf.data(), kPreloadChunk),
            &a.comps);
    }

    ActorStep
    step(std::size_t i)
    {
        Actor &a = actors_[i];
        Scope span(tracer_, Tracer::kStep, a.op);
        sampleDepth();
        if (a.busy)
            finish(a);
        if (a.left == 0)
            return ActorStep::done();
        a.left--;
        a.write = a.rng.uniformInt(3) == 0;
        a.slot = static_cast<std::uint32_t>(a.rng.uniformInt(kSlots));
        const VirtAddr va = a.area + a.slot * kSlot;
        if (a.write) {
            a.wver = ++a.next_ver;
            fillPattern(a.buf.data(), kSlot, key(a, a.slot, a.wver));
        }
        logOp(*a.client, a.cn, va, kSlot, a.write);
        a.busy = true;
        a.issued = now();
        a.op = ++op_seq_;
        HandlePtr h;
        {
            Scope submit(tracer_, Tracer::kSubmit, a.op);
            h = a.write ? a.client->rwriteAsync(va, a.buf.data(), kSlot)
                        : a.client->rreadAsync(va, a.buf.data(), kSlot);
        }
        return ActorStep::wait(std::move(h), &a.comps);
    }

    void
    finish(Actor &a)
    {
        a.busy = false;
        const Completion &c = a.comps.at(0);
        rec_.complete(a.issued, c, kSlot);
        if (a.write) {
            a.ver[a.slot] = c.ok() ? a.wver : kUnknown;
            return;
        }
        if (!c.ok())
            return;
        const std::uint32_t v = a.ver[a.slot];
        if (v == kUnknown) {
            rec_.unchecked++;
        } else if (!checkPattern(a.buf.data(), kSlot,
                                 key(a, a.slot, v))) {
            rec_.mismatch("small_rw: process " + std::to_string(a.id) +
                          " slot " + std::to_string(a.slot) +
                          " read does not match version " +
                          std::to_string(v));
        }
    }

    std::vector<Actor> actors_;
};

// ---------------------------------------------------------------------
// kv_ycsb_a: YCSB-A (50% put, zipf 0.99) over the Clio-KV offload on 2
// MNs; 20k preloaded keys with 1 KiB values; 16 concurrent clients.
// ---------------------------------------------------------------------

class KvYcsbA final : public Base
{
  public:
    using Base::Base;

    static constexpr std::uint32_t kClients = 16;
    static constexpr std::uint32_t kOffloadId = 1;
    static constexpr std::uint64_t kKeys = 20000;
    static constexpr std::uint64_t kValue = 1024;
    static constexpr std::uint64_t kWarmOps = 300;
    static constexpr std::uint64_t kTimedOps = 8000;

    void
    setup() override
    {
        ClusterSpec spec;
        spec.racks = 1;
        spec.cns_per_rack = 2;
        spec.mns_per_rack = 2;
        build(spec);
        std::vector<NodeId> mns;
        for (std::uint32_t m = 0; m < cluster_->mnCount(); m++) {
            CBoard &mn = cluster_->mn(m);
            mn.registerOffload(ClioKvOffload::descriptor(kOffloadId),
                               std::make_shared<ClioKvOffload>());
            mns.push_back(mn.nodeId());
        }
        actors_.resize(kClients);
        for (std::uint32_t i = 0; i < kClients; i++) {
            Actor &a = actors_[i];
            a.id = i;
            a.cn = i % 2;
            a.client = &cluster_->createClient(a.cn);
            a.gen.emplace(kKeys, YcsbWorkload::kA, true, 0.99,
                          mix(seed_, i, 0x4b56));
        }
        router_ = std::make_unique<ClioKvClient>(*actors_[0].client, mns,
                                                 kOffloadId);
        recs_.assign(kKeys, {});
        floor_.assign(kKeys, 0);
        phase(kClients, [this](std::size_t i) { return preload(i); });
        for (Actor &a : actors_)
            a.left = kWarmOps;
        phase(kClients, [this](std::size_t i) { return step(i); });
    }

    Tick
    run() override
    {
        for (Actor &a : actors_)
            a.left = kTimedOps;
        return phase(kClients, [this](std::size_t i) { return step(i); });
    }

  private:
    /** One put of a key: versions are indices into the key's list. */
    struct PutRec
    {
        Tick issue = 0;
        /** kTickMax while in flight, or forever when the put failed
         * (it may still have been applied). */
        Tick complete = kTickMax;
    };

    struct Actor
    {
        std::uint32_t id = 0;
        ClioClient *client = nullptr;
        std::uint32_t cn = 0;
        std::optional<YcsbGenerator> gen;
        std::uint64_t left = 0;
        std::uint64_t preload_next = 0;
        bool busy = false;
        bool put = false;
        std::uint64_t key = 0;
        std::uint32_t ver = 0;
        Tick issued = 0;
        /** Latest issue tick of a put of `key` that had completed when
         * this get was issued: no older version may be returned. */
        Tick floor = 0;
        std::uint64_t op = 0;
        std::vector<Completion> comps;
    };

    /** Pattern key of the bytes after a value's (key, version)
     * header. */
    static std::uint64_t
    valueKey(std::uint64_t key, std::uint64_t ver)
    {
        return mix(key + 1, ver, 0x7e) | 1;
    }

    static std::string
    value(std::uint64_t key, std::uint32_t ver)
    {
        std::string v(kValue, '\0');
        auto *p = reinterpret_cast<std::uint8_t *>(v.data());
        const std::uint64_t hdr[2] = {key, ver};
        std::memcpy(p, hdr, sizeof(hdr));
        fillPattern(p + 16, kValue - 16, valueKey(key, ver));
        return v;
    }

    HandlePtr
    issuePut(Actor &a)
    {
        a.put = true;
        a.ver = static_cast<std::uint32_t>(recs_[a.key].size());
        recs_[a.key].push_back(PutRec{now(), kTickMax});
        std::vector<std::uint8_t> arg =
            kvEncode(KvOp::kPut, YcsbGenerator::keyString(a.key),
                     value(a.key, a.ver));
        if (log_.on)
            log_.addKvArg(arg, rec_.timed);
        Scope submit(tracer_, Tracer::kSubmit, a.op);
        return a.client->offloadAsync(
            router_->mnForKey(YcsbGenerator::keyString(a.key)), kOffloadId,
            std::move(arg));
    }

    HandlePtr
    issueGet(Actor &a)
    {
        a.put = false;
        a.floor = floor_[a.key];
        std::vector<std::uint8_t> arg =
            kvEncode(KvOp::kGet, YcsbGenerator::keyString(a.key));
        if (log_.on && rec_.timed)
            log_.addKvArg(arg, true);
        Scope submit(tracer_, Tracer::kSubmit, a.op);
        return a.client->offloadAsync(
            router_->mnForKey(YcsbGenerator::keyString(a.key)), kOffloadId,
            std::move(arg), /*expected_resp_bytes=*/1200);
    }

    ActorStep
    preload(std::size_t i)
    {
        Actor &a = actors_[i];
        if (a.busy)
            finish(a);
        const std::uint64_t key = a.preload_next * kClients + i;
        if (key >= kKeys)
            return ActorStep::done();
        a.preload_next++;
        a.key = key;
        a.busy = true;
        a.issued = now();
        return ActorStep::wait(issuePut(a), &a.comps);
    }

    ActorStep
    step(std::size_t i)
    {
        Actor &a = actors_[i];
        Scope span(tracer_, Tracer::kStep, a.op);
        sampleDepth();
        if (a.busy)
            finish(a);
        if (a.left == 0)
            return ActorStep::done();
        a.left--;
        const YcsbOp op = a.gen->next();
        a.key = op.key_index;
        a.busy = true;
        a.issued = now();
        a.op = ++op_seq_;
        return ActorStep::wait(op.is_set ? issuePut(a) : issueGet(a),
                               &a.comps);
    }

    void
    finish(Actor &a)
    {
        a.busy = false;
        const Completion &c = a.comps.at(0);
        if (a.put) {
            rec_.complete(a.issued, c, kValue);
            if (c.ok()) {
                PutRec &r = recs_[a.key][a.ver];
                r.complete = c.completed_at;
                floor_[a.key] = std::max(floor_[a.key], r.issue);
            }
            return;
        }
        rec_.complete(a.issued, c, c.ok() ? c.data.size() : 0);
        if (c.ok())
            checkGet(a, c);
    }

    /** A get may return any version whose put was issued before the
     * get completed, unless another put of the key was issued after
     * that version completed and itself completed before the get was
     * issued (register linearizability). */
    void
    checkGet(const Actor &a, const Completion &c)
    {
        const std::string where =
            "kv_ycsb_a: get of key " + std::to_string(a.key);
        if (c.value == 0) {
            rec_.mismatch(where + " found nothing");
            return;
        }
        std::uint64_t hdr[2] = {~0ull, ~0ull};
        if (c.data.size() != kValue) {
            rec_.mismatch(where + " returned " +
                          std::to_string(c.data.size()) + " bytes");
            return;
        }
        std::memcpy(hdr, c.data.data(), sizeof(hdr));
        const std::vector<PutRec> &recs = recs_[a.key];
        if (hdr[0] != a.key || hdr[1] >= recs.size() ||
            !checkPattern(c.data.data() + 16, kValue - 16,
                          valueKey(a.key, hdr[1]))) {
            rec_.mismatch(where + " returned bytes no put wrote");
            return;
        }
        const PutRec &r = recs[hdr[1]];
        if (r.issue > c.completed_at || r.complete < a.floor) {
            rec_.mismatch(where + " returned stale version " +
                          std::to_string(hdr[1]));
        }
    }

    std::vector<Actor> actors_;
    std::unique_ptr<ClioKvClient> router_;
    std::vector<std::vector<PutRec>> recs_;
    /** Per key: latest issue tick of a put that has completed. */
    std::vector<Tick> floor_;
};

// ---------------------------------------------------------------------
// bulk_rw: 64 KiB reads and writes (1:1); 8 processes on 2 CNs against
// one 32 GiB MN; 256 pages of 4 MiB each (twice the TLB's reach); a
// small share of ops free a page, allocate a new one and touch it.
// ---------------------------------------------------------------------

class BulkRw final : public Base
{
  public:
    using Base::Base;

    static constexpr std::uint32_t kActors = 8;
    static constexpr std::uint32_t kPages = 256;
    static constexpr std::uint64_t kXfer = 64 * KiB;
    static constexpr std::uint64_t kChurnOneIn = 128;
    static constexpr std::uint64_t kWarmOps = 50;
    static constexpr std::uint64_t kTimedOps = 3000;

    void
    setup() override
    {
        ClusterSpec spec;
        spec.racks = 1;
        spec.cns_per_rack = 2;
        spec.mns_per_rack = 1;
        spec.mn_phys_bytes = 32 * GiB;
        build(spec);
        page_ = cluster_->config().page_table.page_size;
        actors_.resize(kActors);
        for (std::uint32_t i = 0; i < kActors; i++) {
            Actor &a = actors_[i];
            a.id = i;
            a.cn = i % 2;
            a.client = &cluster_->createClient(a.cn);
            a.rng = Rng(mix(seed_, i, 0xb01c));
            a.ver.assign(kPages, 0);
            a.buf.resize(kXfer);
            for (std::uint32_t p = 0; p < kPages; p++) {
                const auto va = a.client->ralloc(page_);
                if (!va)
                    setupFailure("bulk_rw ralloc");
                a.va.push_back(*va);
                if (log_.on)
                    log_.alloc_sizes.push_back(page_);
            }
        }
        // Warm-up: first-touch every page, then a few random ops.
        for (Actor &a : actors_)
            a.left = kWarmOps;
        phase(kActors, [this](std::size_t i) { return step(i); });
    }

    Tick
    run() override
    {
        for (Actor &a : actors_)
            a.left = kTimedOps;
        return phase(kActors, [this](std::size_t i) { return step(i); });
    }

  private:
    enum class Kind : std::uint8_t { kRead, kWrite, kFree, kAlloc, kTouch };

    struct Actor
    {
        std::uint32_t id = 0;
        ClioClient *client = nullptr;
        std::uint32_t cn = 0;
        Rng rng;
        /** Page base VAs; 0 while a page is freed and not yet
         * re-allocated. */
        std::vector<VirtAddr> va;
        /** Version last written at each page's first 64 KiB; 0 for a
         * fresh page (reads as zeros). */
        std::vector<std::uint32_t> ver;
        std::uint32_t next_ver = 0;
        std::uint32_t touched = 0;
        std::uint64_t left = 0;
        bool busy = false;
        Kind kind = Kind::kRead;
        /** Next link of a free -> alloc -> touch chain, if any. */
        std::optional<Kind> chain;
        std::uint32_t page = 0;
        std::uint32_t wver = 0;
        Tick issued = 0;
        std::uint64_t op = 0;
        std::vector<std::uint8_t> buf;
        std::vector<Completion> comps;
    };

    static std::uint64_t
    key(const Actor &a, std::uint32_t page, std::uint32_t ver)
    {
        return ver ? (mix(a.id + 1, page, ver) | 1) : 0;
    }

    ActorStep
    step(std::size_t i)
    {
        Actor &a = actors_[i];
        Scope span(tracer_, Tracer::kStep, a.op);
        sampleDepth();
        if (a.busy)
            finish(a);
        if (a.chain) {
            a.kind = *a.chain;
        } else if (a.touched < kPages) {
            a.page = a.touched++;
            a.kind = Kind::kWrite;
        } else if (a.left == 0) {
            return ActorStep::done();
        } else {
            a.left--;
            a.page = static_cast<std::uint32_t>(a.rng.uniformInt(kPages));
            if (a.va[a.page] == 0)
                a.kind = Kind::kAlloc;
            else if (a.rng.uniformInt(kChurnOneIn) == 0)
                a.kind = Kind::kFree;
            else
                a.kind = a.rng.uniformInt(2) ? Kind::kRead : Kind::kWrite;
        }
        a.chain.reset();
        a.busy = true;
        a.issued = now();
        a.op = ++op_seq_;
        const VirtAddr va = a.va[a.page];
        const bool write = a.kind == Kind::kWrite || a.kind == Kind::kTouch;
        if (write) {
            a.wver = ++a.next_ver;
            fillPattern(a.buf.data(), kXfer, key(a, a.page, a.wver));
        }
        if (a.kind == Kind::kRead || write)
            logOp(*a.client, a.cn, va, kXfer, write);
        if (a.kind == Kind::kAlloc && log_.on && rec_.timed)
            log_.alloc_sizes.push_back(page_);
        HandlePtr h;
        {
            Scope submit(tracer_, Tracer::kSubmit, a.op);
            switch (a.kind) {
              case Kind::kRead:
                h = a.client->rreadAsync(va, a.buf.data(), kXfer);
                break;
              case Kind::kWrite:
              case Kind::kTouch:
                h = a.client->rwriteAsync(va, a.buf.data(), kXfer);
                break;
              case Kind::kFree:
                h = a.client->rfreeAsync(va);
                break;
              case Kind::kAlloc:
                h = a.client->rallocAsync(page_);
                break;
            }
        }
        return ActorStep::wait(std::move(h), &a.comps);
    }

    void
    finish(Actor &a)
    {
        a.busy = false;
        const Completion &c = a.comps.at(0);
        const bool data = a.kind != Kind::kFree && a.kind != Kind::kAlloc;
        rec_.complete(a.issued, c, data ? kXfer : 0);
        std::uint32_t &ver = a.ver[a.page];
        switch (a.kind) {
          case Kind::kWrite:
          case Kind::kTouch:
            ver = c.ok() ? a.wver : kUnknown;
            break;
          case Kind::kFree:
            if (c.ok()) {
                a.va[a.page] = 0;
                a.chain = Kind::kAlloc;
            } else {
                ver = kUnknown;
            }
            break;
          case Kind::kAlloc:
            if (c.ok()) {
                a.va[a.page] = c.value;
                ver = 0;
                a.chain = Kind::kTouch;
            }
            break;
          case Kind::kRead:
            if (!c.ok())
                break;
            if (ver == kUnknown) {
                rec_.unchecked++;
            } else if (!checkPattern(a.buf.data(), kXfer,
                                     key(a, a.page, ver))) {
                rec_.mismatch("bulk_rw: process " + std::to_string(a.id) +
                              " page " + std::to_string(a.page) +
                              " read does not match version " +
                              std::to_string(ver));
            }
            break;
        }
    }

    std::uint64_t page_ = 0;
    std::vector<Actor> actors_;
};

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "small_rw" || name == "kv_ycsb_a" || name == "bulk_rw";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Recorder &rec,
             Tracer &tracer, ReplayLog &log)
{
    if (name == "small_rw")
        return std::make_unique<SmallRw>(seed, rec, tracer, log);
    if (name == "kv_ycsb_a")
        return std::make_unique<KvYcsbA>(seed, rec, tracer, log);
    if (name == "bulk_rw")
        return std::make_unique<BulkRw>(seed, rec, tracer, log);
    return nullptr;
}

} // namespace e2e
