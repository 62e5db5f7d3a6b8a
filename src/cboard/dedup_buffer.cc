#include "cboard/dedup_buffer.hh"

#include "sim/logging.hh"

namespace clio {

DedupBuffer::DedupBuffer(std::uint32_t capacity)
    : capacity_(capacity), ids_(capacity), results_(capacity),
      index_(capacity)
{
    clio_assert(capacity > 0, "dedup buffer capacity must be nonzero");
}

void
DedupBuffer::record(ReqId req_id, std::uint64_t atomic_result)
{
    if (index_.find(req_id) != index_.kNone)
        return; // already recorded (e.g. duplicate delivery)
    std::uint32_t pos;
    if (index_.size() < capacity_) {
        pos = index_.size(); // the ring fills front to back first
    } else {
        // Full: the oldest entry gives up its position.
        pos = oldest_;
        index_.erase(ids_[pos]);
        oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    }
    ids_[pos] = req_id;
    results_[pos] = atomic_result;
    index_.insert(req_id, pos);
}

std::optional<std::uint64_t>
DedupBuffer::find(ReqId req_id) const
{
    const std::uint32_t pos = index_.find(req_id);
    if (pos == index_.kNone)
        return std::nullopt;
    return results_[pos];
}

} // namespace clio
