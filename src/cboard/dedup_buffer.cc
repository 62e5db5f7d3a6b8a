#include "cboard/dedup_buffer.hh"

#include "sim/logging.hh"

namespace clio {

DedupBuffer::DedupBuffer(std::uint32_t capacity)
    : capacity_(capacity), ids_(capacity), replies_(capacity),
      index_(capacity)
{
    clio_assert(capacity > 0, "dedup buffer capacity must be nonzero");
}

void
DedupBuffer::record(ReqId req_id, const ResponseMsg &reply)
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
    replies_[pos] = reply; // copy-assignment reuses the slot's buffers
    index_.insert(req_id, pos);
}

const ResponseMsg *
DedupBuffer::find(ReqId req_id) const
{
    const std::uint32_t pos = index_.find(req_id);
    return pos == index_.kNone ? nullptr : &replies_[pos];
}

} // namespace clio
