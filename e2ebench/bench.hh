/**
 * @file
 * Shared pieces of the end-to-end benchmark program: the span tracer,
 * the per-run recorder (latency samples, failure counts, output-check
 * verdicts, history digest), the replay log a traced run fills, and
 * the workload interface.
 *
 * Everything here sits outside the library: the benchmark only calls the
 * public API (Cluster, ClioClient, ClosedLoopRunner, stats()).
 */

#ifndef CLIO_E2EBENCH_BENCH_HH
#define CLIO_E2EBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clib/queue.hh"
#include "cluster/cluster.hh"
#include "sim/types.hh"

namespace e2e {

using clio::Tick;

inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64 finalizer: seeds, pattern keys, digests. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0)
{
    return mix(mix(mix(a) ^ b) ^ c);
}

/** Deterministic payload bytes for one (stream, version) key; key 0
 * stands for never-written memory, which reads as zeros. */
void fillPattern(std::uint8_t *dst, std::size_t len, std::uint64_t key);
bool checkPattern(const std::uint8_t *src, std::size_t len,
                  std::uint64_t key);

/**
 * In-memory spans around the benchmark's own calls into the library.
 * Spans nest (pump > step > submit); each carries the op it belongs
 * to, so the step that handles an op's completion and the submit that
 * issued it share an identifier. Aggregates cover every span; the
 * first kKeep spans are kept for export.
 */
class Tracer
{
  public:
    enum Kind : std::uint8_t { kPump, kStep, kSubmit, kKinds };

    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    void open(Kind kind, std::uint64_t op);
    void close();

    std::uint64_t totalNs(Kind k) const { return total_ns_[k]; }
    std::uint64_t count(Kind k) const { return count_[k]; }

    /** Chrome trace-event JSON (viewable in Perfetto). */
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint64_t op = 0;
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        Kind kind = kPump;
    };
    static constexpr std::size_t kKeep = 200000;

    bool on_ = false;
    std::uint32_t next_id_ = 1;
    std::vector<Span> open_;
    std::vector<Span> kept_;
    std::array<std::uint64_t, kKinds> total_ns_{};
    std::array<std::uint64_t, kKinds> count_{};
};

/** RAII span; does nothing when the tracer is off. */
class Scope
{
  public:
    Scope(Tracer &t, Tracer::Kind kind, std::uint64_t op = 0)
        : t_(t.on() ? &t : nullptr)
    {
        if (t_)
            t_->open(kind, op);
    }
    ~Scope()
    {
        if (t_)
            t_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
};

/** Per-rep outcome of every operation, plus the output check. */
struct Recorder
{
    /** Samples and counts are taken only in the timed phase; the
     * digest covers every phase. */
    bool timed = false;
    std::vector<Tick> lat;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t ok_bytes = 0;
    std::uint64_t setup_failed = 0;
    /** Reads whose expected bytes are unknown (last write failed). */
    std::uint64_t unchecked = 0;
    std::uint64_t mismatches = 0;
    std::string first_mismatch;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    /** Event-queue depth sampled at every actor step (timed phase). */
    std::uint64_t pending_sum = 0;
    std::uint64_t pending_samples = 0;
    std::uint64_t pending_peak = 0;

    void complete(Tick issued, const clio::Completion &c,
                  std::uint64_t payload_bytes);
    void mismatch(const std::string &what);
    void fold(std::uint64_t v);
};

/** One data request as issued, kept by a traced run for replay. */
struct DataOp
{
    clio::ProcId pid = 0;
    clio::VirtAddr va = 0;
    std::uint32_t size = 0;
    bool write = false;
    std::uint32_t cn = 0; ///< cluster CN index
    std::uint32_t mn = 0; ///< cluster MN index
};

/** Inputs a traced run records for the per-layer replays. */
struct ReplayLog
{
    static constexpr std::size_t kCap = 1u << 16;
    bool on = false;
    std::vector<DataOp> ops;
    std::vector<std::vector<std::uint8_t>> kv_args;
    std::vector<std::vector<std::uint8_t>> kv_preload;
    std::vector<std::uint64_t> alloc_sizes;
    clio::ClusterSpec spec;

    void
    addOp(const DataOp &op)
    {
        if (ops.size() < kCap)
            ops.push_back(op);
    }

    void
    addKvArg(const std::vector<std::uint8_t> &arg, bool timed)
    {
        auto &list = timed ? kv_args : kv_preload;
        if (list.size() < kCap)
            list.push_back(arg);
    }
};

/** A benchmark workload: closed loops over one simulated cluster. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the cluster, preload and warm up. */
    virtual void setup() = 0;
    /** The timed phase (a fixed number of ops per actor).
     * @return simulated time it took. */
    virtual Tick run() = 0;
    virtual clio::Cluster &cluster() = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Recorder &rec,
                                       Tracer &tracer, ReplayLog &log);
bool knownWorkload(const std::string &name);

/** Host ns per call of each layer's public entry points, replaying a
 * traced run's inputs; 0 where the workload never reaches the layer
 * from the benchmark's side. */
struct ReplayResult
{
    double sim_ns_per_event = 0;
    double net_ns_per_packet = 0;
    double cboard_ns_per_fastpath = 0;
    double tlb_ns_per_lookup = 0;
    double pt_ns_per_lookup = 0;
    double mem_ns_per_kib = 0;
    double valloc_ns_per_alloc = 0;
    double offload_ns_per_invoke = 0;
};

ReplayResult replayLayers(const ReplayLog &log,
                          const std::vector<Tick> &latencies,
                          std::uint64_t pending_depth, std::uint64_t seed);

} // namespace e2e

#endif // CLIO_E2EBENCH_BENCH_HH
