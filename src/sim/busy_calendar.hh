/**
 * @file
 * Busy-interval calendar of one shared, non-pipelined resource (the
 * MN board's DRAM).
 *
 * A booking of `occupancy` ticks requested at tick `t` takes the
 * earliest free gap at or after `t` that is that long. Bookings may
 * arrive out of time order: an offload computes its whole timeline
 * when it is admitted, so its accesses land at future ticks, and an
 * access issued later in host order but earlier in simulated time
 * still fills the gaps before them instead of queueing behind them.
 *
 * Time before `floor_` counts as busy. Intervals that end by the
 * current tick retire into it, and so do the oldest ones once more
 * than `cap` are held, so the calendar stays bounded (calls admitted at
 * one tick would otherwise walk an ever longer list). With a cap of 0
 * every booking retires at once and the calendar is exactly a
 * watermark; so is any cap when bookings come in time order, which
 * append (or extend the last interval) in O(1).
 */

#ifndef CLIO_SIM_BUSY_CALENDAR_HH
#define CLIO_SIM_BUSY_CALENDAR_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Earliest-fit busy-interval calendar (see file comment). */
class BusyCalendar
{
  public:
    static constexpr std::size_t kDefaultCap = 64;

    explicit BusyCalendar(std::size_t cap = kDefaultCap) : cap_(cap) {}

    /** Book `occupancy` ticks at the earliest free gap at or after
     * `t`; `now` is the current tick. @return the booking's start. */
    Tick
    book(Tick now, Tick t, Tick occupancy)
    {
        std::size_t done = head_;
        while (done < busy_.size() && busy_[done].end <= now)
            done++;
        retireTo(done);
        Tick start = std::max(t, floor_);
        const auto first = busy_.begin() + head_;
        auto it = busy_.end();
        if (first != it && start < busy_.back().end) {
            it = std::upper_bound(
                first, busy_.end(), start,
                [](Tick v, const Interval &iv) { return v < iv.end; });
            for (; it != busy_.end() && start + occupancy > it->start; ++it)
                start = std::max(start, it->end);
        }
        const Tick end = start + occupancy;
        const bool joins_prev = it != first && (it - 1)->end == start;
        const bool joins_next = it != busy_.end() && it->start == end;
        if (joins_prev && joins_next) {
            (it - 1)->end = it->end;
            busy_.erase(it);
        } else if (joins_prev) {
            (it - 1)->end = end;
        } else if (joins_next) {
            it->start = start;
        } else {
            busy_.insert(it, Interval{start, end});
        }
        if (size() > cap_)
            retireTo(busy_.size() - cap_);
        return start;
    }

    /** Intervals held (test hook; never above the cap). */
    std::size_t size() const { return busy_.size() - head_; }

  private:
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /** Fold the intervals before index `i` into the busy floor. The
     * folded prefix is dropped from the vector in bulk, not one
     * interval at a time. */
    void
    retireTo(std::size_t i)
    {
        if (i == head_)
            return;
        floor_ = busy_[i - 1].end;
        head_ = i;
        if (head_ == busy_.size()) {
            busy_.clear();
            head_ = 0;
        } else if (head_ > cap_) {
            busy_.erase(busy_.begin(), busy_.begin() + head_);
            head_ = 0;
        }
    }

    std::size_t cap_;
    Tick floor_ = 0;
    /** Busy intervals: [head_, size) are live, disjoint, non-adjacent
     * and sorted by start; [0, head_) are folded into `floor_`. */
    std::vector<Interval> busy_;
    std::size_t head_ = 0;
};

} // namespace clio

#endif // CLIO_SIM_BUSY_CALENDAR_HH
