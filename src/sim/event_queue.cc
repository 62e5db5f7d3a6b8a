#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>

namespace clio {

namespace {

/** Min-first (when, seq) order for the heap engine. */
struct Later
{
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/** Global FIFO order within a staged slot (a slot spans many ticks). */
constexpr auto kWhenSeqOrder = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
};

constexpr Tick kNoTick = ~Tick{0};
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

} // namespace

EventQueue::EventQueue(EventQueueImpl impl) : impl_(impl)
{
    if (impl_ == EventQueueImpl::kDefault) {
        const char *env = std::getenv("CLIO_EVENT_QUEUE");
        impl_ = (env != nullptr && std::string_view(env) == "heap")
                    ? EventQueueImpl::kBinaryHeap
                    : EventQueueImpl::kTimingWheel;
    }
    if (impl_ == EventQueueImpl::kTimingWheel) {
        fine_.slots.resize(kWheelSlots);
        coarse_.slots.resize(kWheelSlots);
    }
}

int
EventQueue::Wheel::successor(std::uint32_t from) const
{
    const std::uint32_t w = from >> 6;
    const std::uint64_t head = word[w] & (~std::uint64_t{0} << (from & 63));
    if (head != 0)
        return static_cast<int>((w << 6) | std::countr_zero(head));
    // Later words, via the summary (bits strictly above w).
    if (w == 63)
        return -1;
    const std::uint64_t rest = summary & (~std::uint64_t{0} << (w + 1));
    if (rest == 0)
        return -1;
    const auto nw = static_cast<std::uint32_t>(std::countr_zero(rest));
    return static_cast<int>((nw << 6) | std::countr_zero(word[nw]));
}

int
EventQueue::Wheel::first() const
{
    if (summary == 0)
        return -1;
    const auto w = static_cast<std::uint32_t>(std::countr_zero(summary));
    return static_cast<int>((w << 6) | std::countr_zero(word[w]));
}

void
EventQueue::arenaGrow()
{
    const auto base =
        static_cast<std::uint32_t>(arena_.size() * kArenaChunk);
    arena_.push_back(std::make_unique<EventCallback[]>(kArenaChunk));
    free_cells_.reserve(free_cells_.size() + kArenaChunk);
    for (std::uint32_t i = kArenaChunk; i > 0; i--)
        free_cells_.push_back(base + i - 1);
}

void
EventQueue::wheelInsert(Tick when, std::uint32_t cb_idx)
{
    count_++;
    const WheelEvent ev{when, next_seq_++, cb_idx};
    if ((when >> kSlot0Bits) == staged_sn_) {
        // The event lands in the band currently staged in ready_ (its
        // occupancy bit is already spent); splice it in FIFO position.
        readyInsert(ev);
        return;
    }
    placeEvent(ev);
}

void
EventQueue::readyInsert(const WheelEvent &ev)
{
    // Only the unexecuted tail [ready_pos_, end) is live. The new
    // event's seq is the largest yet, so it goes after every pending
    // event with the same or earlier due time.
    const auto pos = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
        ready_.end(), ev.when,
        [](Tick when, const WheelEvent &e) { return when < e.when; });
    ready_.insert(pos, ev);
}

void
EventQueue::placeEvent(const WheelEvent &ev)
{
    // No pending event is ever behind the cursor, so within a wheel's
    // span the slot index (absolute slot number mod 4096) is
    // unambiguous: at most one epoch separates any pending slot from
    // the cursor's, and the successor scan resolves the wrap.
    const std::uint64_t d0 =
        (ev.when >> kSlot0Bits) - (horizon_ >> kSlot0Bits);
    if (d0 < kWheelSlots) {
        const auto idx = static_cast<std::uint32_t>(
            (ev.when >> kSlot0Bits) & (kWheelSlots - 1));
        fine_.slots[idx].push_back(ev);
        fine_.set(idx);
        return;
    }
    const std::uint64_t d1 =
        (ev.when >> kSlot1Bits) - (horizon_ >> kSlot1Bits);
    if (d1 < kWheelSlots) {
        const auto idx = static_cast<std::uint32_t>(
            (ev.when >> kSlot1Bits) & (kWheelSlots - 1));
        coarse_.slots[idx].push_back(ev);
        coarse_.set(idx);
        return;
    }
    if (ev.when < overflow_min_)
        overflow_min_ = ev.when;
    overflow_.push_back(ev);
}

void
EventQueue::sweepOverflow()
{
    // The cursor just advanced to overflow_min_: move every overflow
    // event now within the coarse span into the wheels, keep the rest.
    std::size_t kept = 0;
    Tick new_min = kNoTick;
    for (const WheelEvent &ev : overflow_) {
        const std::uint64_t d1 =
            (ev.when >> kSlot1Bits) - (horizon_ >> kSlot1Bits);
        if (d1 < kWheelSlots) {
            placeEvent(ev);
        } else {
            new_min = std::min(new_min, ev.when);
            overflow_[kept++] = ev;
        }
    }
    overflow_.resize(kept);
    overflow_min_ = new_min;
}

void
EventQueue::scheduleHeap(Tick when, Callback cb)
{
    count_++;
    heap_.push_back(HeapEvent{when, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

namespace {

/** Absolute slot number of the first occupied slot at/after the
 * cursor's, accounting for the one possible epoch wrap. */
std::uint64_t
candidateSn(const auto &wheel, std::uint64_t cursor_sn,
            std::uint32_t slot_mask)
{
    const auto c = static_cast<std::uint32_t>(cursor_sn & slot_mask);
    int f = wheel.successor(c);
    if (f >= 0)
        return cursor_sn - c + static_cast<std::uint32_t>(f);
    f = wheel.first();
    if (f >= 0)
        return cursor_sn - c + slot_mask + 1 +
               static_cast<std::uint32_t>(f);
    return kNoSlot;
}

} // namespace

bool
EventQueue::stageNext(Tick bound)
{
    if (ready_pos_ < ready_.size())
        return true;
    for (;;) {
        const std::uint64_t cand0 =
            candidateSn(fine_, horizon_ >> kSlot0Bits, kWheelSlots - 1);
        const std::uint64_t cand1 = candidateSn(
            coarse_, horizon_ >> kSlot1Bits, kWheelSlots - 1);
        const Tick base0 =
            cand0 == kNoSlot ? kNoTick : cand0 << kSlot0Bits;
        const Tick base1 =
            cand1 == kNoSlot ? kNoTick : cand1 << kSlot1Bits;
        if (!overflow_.empty() &&
            overflow_min_ <= std::min(base0, base1)) {
            if (overflow_min_ > bound)
                return false;
            // Nothing pending before the overflow minimum: jump the
            // cursor there and pull the now-reachable events in.
            horizon_ = overflow_min_;
            sweepOverflow();
            continue;
        }
        if (base1 <= base0) {
            if (base1 == kNoTick)
                return false; // no pending events outside ready_
            if (base1 > bound)
                return false;
            // Cascade one coarse slot: its events all land in the
            // fine wheel (their distance shrank below the fine span).
            const auto idx =
                static_cast<std::uint32_t>(cand1 & (kWheelSlots - 1));
            coarse_.clear(idx);
            horizon_ = base1;
            auto &sv = coarse_.slots[idx];
            for (const WheelEvent &ev : sv)
                placeEvent(ev);
            sv.clear();
            continue;
        }
        if (base0 > bound) {
            // The earliest pending event is past the caller's bound;
            // leave the cursor behind it so later schedules (>= bound)
            // can never land behind the cursor.
            return false;
        }
        const auto idx =
            static_cast<std::uint32_t>(cand0 & (kWheelSlots - 1));
        fine_.clear(idx);
        horizon_ = base0;
        staged_sn_ = cand0;
        auto &sv = fine_.slots[idx];
        // Copy, then clear: every slot and ready_ keep their own
        // capacity, so once each has seen its peak the steady state
        // allocates nothing (swapping would hand a small slot buffer
        // to ready_ and regrow it). A slot spans 2^15 ticks, so events
        // of several due times may mix; sort restores global FIFO
        // order (pushes are usually already in (when, seq) order).
        ready_.assign(sv.begin(), sv.end());
        ready_pos_ = 0;
        sv.clear();
        if (!std::is_sorted(ready_.begin(), ready_.end(), kWhenSeqOrder))
            std::sort(ready_.begin(), ready_.end(), kWhenSeqOrder);
        return true;
    }
}

bool
EventQueue::runOneWheel()
{
    if (ready_pos_ >= ready_.size() && !stageNext(~Tick{0}))
        return false;
    const WheelEvent ev = ready_[ready_pos_++];
    now_ = ev.when;
    executed_++;
    count_--;
    // The arena cell stays valid across the call even if the callback
    // schedules (chunks never move); release it only afterwards so a
    // closure never frees its own cell mid-flight.
    EventCallback &cb = arenaCell(ev.cb_idx);
    cb();
    cb.reset();
    free_cells_.push_back(ev.cb_idx);
    return true;
}

bool
EventQueue::runOneHeap()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    HeapEvent ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.when;
    executed_++;
    count_--;
    ev.cb();
    return true;
}

bool
EventQueue::runOne()
{
    return impl_ == EventQueueImpl::kTimingWheel ? runOneWheel()
                                                 : runOneHeap();
}

void
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        n++;
}

bool
EventQueue::runUntil(const std::function<bool()> &pred,
                     std::uint64_t max_events)
{
    if (pred())
        return true;
    std::uint64_t n = 0;
    while (n < max_events && runOne()) {
        n++;
        if (pred())
            return true;
    }
    return false;
}

void
EventQueue::runUntilTime(Tick t)
{
    if (impl_ == EventQueueImpl::kTimingWheel) {
        while ((ready_pos_ < ready_.size() || stageNext(t)) &&
               ready_[ready_pos_].when <= t)
            runOneWheel();
    } else {
        while (!heap_.empty() && heap_.front().when <= t)
            runOneHeap();
    }
    if (t > now_)
        now_ = t;
}

} // namespace clio
