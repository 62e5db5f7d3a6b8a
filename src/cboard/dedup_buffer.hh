/**
 * @file
 * Request-id dedup buffer (§4.5 T4): a small ring recording the ids of
 * recently executed non-idempotent requests (writes, atomics) and the
 * cached results of atomics. A retry carries the original attempt's id;
 * if the MN finds it here, it skips execution and replays the cached
 * result. Capacity is statically sized from 3 x TIMEOUT x bandwidth —
 * one of only two pieces of state the MN keeps, independent of client
 * count.
 *
 * Layout: exactly that ring — `capacity` ids and results in two flat
 * arrays allocated at construction, the oldest entry overwritten when
 * a new one arrives at a full ring — plus an open-addressed id -> ring
 * position index sized for `capacity` ids. Recording and lookup never
 * allocate.
 */

#ifndef CLIO_CBOARD_DEDUP_BUFFER_HH
#define CLIO_CBOARD_DEDUP_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/flat_index.hh"
#include "sim/types.hh"

namespace clio {

/** Ring buffer of executed (write/atomic) request ids + atomic results. */
class DedupBuffer
{
  public:
    explicit DedupBuffer(std::uint32_t capacity);

    /**
     * Record an executed non-idempotent request.
     * @param req_id the ORIGINAL attempt id (retries carry it along).
     * @param atomic_result cached value for atomics (0 for writes).
     */
    void record(ReqId req_id, std::uint64_t atomic_result = 0);

    /**
     * Check whether `req_id` was already executed.
     * @return the cached atomic result when found; nullopt otherwise.
     */
    std::optional<std::uint64_t> find(ReqId req_id) const;

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return index_.size(); }

    /** Suppressed duplicate executions (stat). */
    std::uint64_t suppressed() const { return suppressed_; }
    void noteSuppressed() { suppressed_++; }

  private:
    std::uint32_t capacity_;
    /** @{ The ring: ids_[oldest_] is the next eviction victim once
     * the ring is full; entries are never moved after recording. */
    std::vector<ReqId> ids_;
    std::vector<std::uint64_t> results_;
    std::uint32_t oldest_ = 0;
    /** @} */
    /** id -> ring position. */
    FlatIndex<ReqId> index_;
    std::uint64_t suppressed_ = 0;
};

} // namespace clio

#endif // CLIO_CBOARD_DEDUP_BUFFER_HH
