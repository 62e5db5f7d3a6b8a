/**
 * @file
 * Offload engine scheduler (extend path, §4.6).
 *
 * The CBoard hosts a configurable number of offload engines
 * (OffloadConfig::engines): replicated datapaths an invocation — or a
 * whole chained plan — occupies for its modeled duration. The
 * scheduler is a deterministic earliest-free arbiter: a call admitted
 * at `ready` starts on the engine that frees up first, ties broken by
 * the lowest engine index, so arbitration order is a pure function of
 * prior admissions (byte-identical across event-queue engines — the
 * determinism suite pins this). Queueing (engine wait) and busy time
 * are tracked for modeled latency and the Fig. 21 energy accounting;
 * DRAM time inside an invocation still contends with the fast path
 * through the board's DRAM calendar: each access is booked at its own
 * logical tick, so an access at an earlier tick takes the gaps before
 * a call's later bookings rather than queueing behind them.
 */

#ifndef CLIO_OFFLOAD_ENGINE_HH
#define CLIO_OFFLOAD_ENGINE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Aggregate scheduler counters. */
struct EngineSchedulerStats
{
    std::uint64_t dispatches = 0;
    /** Total ticks dispatches waited for a free engine. */
    Tick wait_ticks = 0;
    /** Total engine-busy ticks across all engines. */
    Tick busy_ticks = 0;
};

/** Deterministic earliest-free / lowest-index engine arbiter. */
class EngineScheduler
{
  public:
    explicit EngineScheduler(std::uint32_t engines);

    /** One admitted dispatch: the chosen engine and its start tick. */
    struct Grant
    {
        std::uint32_t engine = 0;
        Tick start = 0;
    };

    /** Admit a dispatch that is ready at `ready`: picks the engine
     * with the earliest free tick (ties: lowest index). The caller
     * must follow up with complete() once it knows the finish tick. */
    Grant admit(Tick ready);

    /** Mark the granted engine busy until `done`. */
    void complete(const Grant &grant, Tick done);

    /** Clear occupancy watermarks (board restart); stats survive. */
    void reset();

    std::uint32_t engineCount() const
    {
        return static_cast<std::uint32_t>(free_at_.size());
    }
    /** Tick engine `i` frees up (test/bench hook). */
    Tick freeAt(std::uint32_t i) const { return free_at_.at(i); }
    const EngineSchedulerStats &stats() const { return stats_; }

  private:
    std::vector<Tick> free_at_;
    EngineSchedulerStats stats_;
};

} // namespace clio

#endif // CLIO_OFFLOAD_ENGINE_HH
