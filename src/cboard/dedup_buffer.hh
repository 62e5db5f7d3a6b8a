/**
 * @file
 * Request-id dedup buffer (§4.5 T4): a small ring recording the ids of
 * recently executed non-idempotent requests (writes, atomics and
 * offload calls) together with their successful replies. A retry
 * carries the original attempt's id; if the MN finds it here, it skips
 * execution and replays the cached reply: an atomic's old value, an
 * offload's value, error code, data and per-stage replies. Capacity is
 * statically sized from 3 x TIMEOUT x bandwidth — one of only two
 * pieces of state the MN keeps, independent of client count.
 *
 * Layout: exactly that ring — `capacity` ids and replies in two flat
 * arrays allocated at construction, the oldest entry overwritten when
 * a new one arrives at a full ring — plus an open-addressed id -> ring
 * position index sized for `capacity` ids. A slot keeps its reply's
 * buffers when overwritten, so recording and lookup do not allocate
 * once every slot has held a reply of the size it now takes.
 */

#ifndef CLIO_CBOARD_DEDUP_BUFFER_HH
#define CLIO_CBOARD_DEDUP_BUFFER_HH

#include <cstdint>
#include <vector>

#include "proto/messages.hh"
#include "sim/flat_index.hh"
#include "sim/types.hh"

namespace clio {

/** Ring buffer of executed non-idempotent request ids + replies. */
class DedupBuffer
{
  public:
    explicit DedupBuffer(std::uint32_t capacity);

    /**
     * Record an executed non-idempotent request. A second record of a
     * recorded id is ignored.
     * @param req_id the ORIGINAL attempt id (retries carry it along).
     * @param reply its successful reply; status, value, err_code,
     *        data and stages are cached for replay.
     */
    void record(ReqId req_id, const ResponseMsg &reply);

    /**
     * Check whether `req_id` was already executed.
     * @return its cached reply when found (valid until the next
     *         record()); null otherwise.
     */
    const ResponseMsg *find(ReqId req_id) const;

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
    std::vector<ResponseMsg> replies_;
    std::uint32_t oldest_ = 0;
    /** @} */
    /** id -> ring position. */
    FlatIndex<ReqId> index_;
    std::uint64_t suppressed_ = 0;
};

} // namespace clio

#endif // CLIO_CBOARD_DEDUP_BUFFER_HH
