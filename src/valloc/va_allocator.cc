#include "valloc/va_allocator.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace clio {

VaAllocator::VaAllocator(std::uint64_t page_size,
                         std::uint64_t va_space_size)
    : page_size_(page_size), va_space_size_(va_space_size)
{
    clio_assert(page_size > 0 && va_space_size > page_size,
                "bad VA allocator geometry");
}

std::vector<std::uint64_t>
VaAllocator::vpnsOf(VirtAddr start, std::uint64_t length) const
{
    std::vector<std::uint64_t> vpns;
    vpns.reserve(length / page_size_);
    for (std::uint64_t off = 0; off < length; off += page_size_)
        vpns.push_back((start + off) / page_size_);
    return vpns;
}

bool
VaAllocator::rangeFree(const ProcState &st, VirtAddr start,
                       std::uint64_t length) const
{
    if (start < page_size_ || start + length > va_space_size_)
        return false; // page 0 reserved as the null page
    if (!st.windows.empty()) {
        // Must lie entirely within one assigned window.
        bool inside = false;
        for (const auto &[wstart, wend] : st.windows) {
            if (start >= wstart && start + length <= wend) {
                inside = true;
                break;
            }
        }
        if (!inside)
            return false;
    }
    // First region starting at or after `start`.
    auto next = st.regions.lower_bound(start);
    if (next != st.regions.end() && next->first < start + length)
        return false;
    if (next != st.regions.begin()) {
        auto prev = std::prev(next);
        if (prev->second.start + prev->second.length > start)
            return false;
    }
    return true;
}

std::optional<VirtAddr>
VaAllocator::clampToWindows(const ProcState &st, VirtAddr pos,
                            std::uint64_t length) const
{
    if (st.windows.empty())
        return pos; // unrestricted
    // Find the first window whose end could fit [pos, pos+length).
    for (auto it = st.windows.begin(); it != st.windows.end(); ++it) {
        const VirtAddr start = it->first;
        const VirtAddr end = it->second;
        const VirtAddr candidate = std::max(pos, start);
        if (candidate + length <= end)
            return candidate;
    }
    return std::nullopt;
}

std::optional<VirtAddr>
VaAllocator::findGap(const ProcState &st, VirtAddr from,
                     std::uint64_t length) const
{
    VirtAddr pos = std::max<VirtAddr>(from, page_size_);
    bool wrapped = false;
    while (true) {
        if (auto clamped = clampToWindows(st, pos, length)) {
            pos = *clamped;
        } else {
            // Past the last window: wrap once to retry from the start.
            if (wrapped)
                return std::nullopt;
            wrapped = true;
            pos = page_size_;
            continue;
        }
        if (pos + length > va_space_size_) {
            if (wrapped)
                return std::nullopt;
            wrapped = true;
            pos = page_size_;
            continue;
        }
        // Find the region blocking [pos, pos+length), if any.
        auto next = st.regions.lower_bound(pos);
        if (next != st.regions.begin()) {
            auto prev = std::prev(next);
            if (prev->second.start + prev->second.length > pos) {
                pos = prev->second.start + prev->second.length;
                continue;
            }
        }
        if (next != st.regions.end() && next->first < pos + length) {
            pos = next->first + next->second.length;
            continue;
        }
        return pos;
    }
}

std::optional<VaAllocResult>
VaAllocator::allocate(ProcId pid, std::uint64_t size, std::uint8_t perm,
                      const HashPageTable &pt, std::uint32_t max_retries)
{
    clio_assert(size > 0, "zero-size allocation");
    const std::uint64_t length =
        (size + page_size_ - 1) / page_size_ * page_size_;

    ProcState &st = procs_.try_emplace(pid, ProcState{{}, page_size_, {}})
                        .first->second;

    VirtAddr from = st.cursor;
    std::uint32_t retries = 0;
    while (retries <= max_retries) {
        auto start = findGap(st, from, length);
        if (!start)
            return std::nullopt; // VA space exhausted
        auto vpns = vpnsOf(*start, length);
        if (pt.canInsert(pid, vpns)) {
            st.regions.emplace(*start, VaRegion{*start, length, perm});
            st.cursor = *start + length;
            return VaAllocResult{*start, std::move(vpns), retries};
        }
        // Hash overflow: advance one page and search for the next
        // candidate range (§4.2 "does another search").
        retries++;
        from = *start + length; // fresh, non-overlapping candidate
    }
    return std::nullopt;
}

std::optional<VaAllocResult>
VaAllocator::allocateFixed(ProcId pid, VirtAddr fixed_addr,
                           std::uint64_t size, std::uint8_t perm,
                           const HashPageTable &pt, bool fallback)
{
    clio_assert(fixed_addr % page_size_ == 0,
                "fixed VA must be page aligned");
    const std::uint64_t length =
        (size + page_size_ - 1) / page_size_ * page_size_;
    ProcState &st = procs_.try_emplace(pid, ProcState{{}, page_size_, {}})
                        .first->second;
    if (rangeFree(st, fixed_addr, length)) {
        auto vpns = vpnsOf(fixed_addr, length);
        if (pt.canInsert(pid, vpns)) {
            st.regions.emplace(fixed_addr,
                               VaRegion{fixed_addr, length, perm});
            return VaAllocResult{fixed_addr, std::move(vpns), 0};
        }
    }
    if (!fallback)
        return std::nullopt;
    // §4.2 limitation: fall back to a fresh range when the requested
    // one cannot be inserted overflow-free.
    return allocate(pid, size, perm, pt);
}

std::optional<VaAllocResult>
VaAllocator::free(ProcId pid, VirtAddr addr)
{
    auto pit = procs_.find(pid);
    if (pit == procs_.end())
        return std::nullopt;
    auto rit = pit->second.regions.find(addr);
    if (rit == pit->second.regions.end())
        return std::nullopt;
    VaAllocResult out;
    out.addr = addr;
    out.vpns = vpnsOf(rit->second.start, rit->second.length);
    pit->second.regions.erase(rit);
    return out;
}

const VaRegion *
VaAllocator::regionOf(ProcId pid, VirtAddr addr) const
{
    auto pit = procs_.find(pid);
    if (pit == procs_.end())
        return nullptr;
    const auto &regions = pit->second.regions;
    auto next = regions.upper_bound(addr);
    if (next == regions.begin())
        return nullptr;
    const VaRegion &region = std::prev(next)->second;
    if (addr >= region.start && addr < region.start + region.length)
        return &region;
    return nullptr;
}

std::uint64_t
VaAllocator::allocatedBytes(ProcId pid) const
{
    auto pit = procs_.find(pid);
    if (pit == procs_.end())
        return 0;
    std::uint64_t total = 0;
    for (const auto &[start, region] : pit->second.regions)
        total += region.length;
    return total;
}

void
VaAllocator::addWindow(ProcId pid, VirtAddr start, std::uint64_t length)
{
    clio_assert(start % page_size_ == 0 && length % page_size_ == 0,
                "window must be page aligned");
    ProcState &st = procs_.try_emplace(pid, ProcState{{}, page_size_, {}})
                        .first->second;
    const VirtAddr end = start + length;
    // Merge with an adjacent window when contiguous (the controller
    // hands out consecutive regions for large allocations).
    auto it = st.windows.find(start);
    clio_assert(it == st.windows.end(), "duplicate window");
    auto next = st.windows.lower_bound(start);
    if (next != st.windows.begin()) {
        auto prev = std::prev(next);
        clio_assert(prev->second <= start, "overlapping window");
        if (prev->second == start) {
            prev->second = end;
            if (next != st.windows.end() && next->first == end) {
                prev->second = next->second;
                st.windows.erase(next);
            }
            return;
        }
    }
    if (next != st.windows.end()) {
        clio_assert(end <= next->first, "overlapping window");
        if (next->first == end) {
            const VirtAddr next_end = next->second;
            st.windows.erase(next);
            st.windows.emplace(start, next_end);
            return;
        }
    }
    st.windows.emplace(start, end);
}

std::uint64_t
VaAllocator::windowBytes(ProcId pid) const
{
    auto pit = procs_.find(pid);
    if (pit == procs_.end())
        return 0;
    std::uint64_t total = 0;
    for (const auto &[start, end] : pit->second.windows)
        total += end - start;
    return total;
}

void
VaAllocator::removeWindow(ProcId pid, VirtAddr start,
                          std::uint64_t length)
{
    auto pit = procs_.find(pid);
    clio_assert(pit != procs_.end(), "removeWindow: unknown pid");
    auto &windows = pit->second.windows;
    const VirtAddr end = start + length;
    // The window may have been merged; split it back apart.
    for (auto it = windows.begin(); it != windows.end(); ++it) {
        const VirtAddr wstart = it->first;
        const VirtAddr wend = it->second;
        if (start >= wstart && end <= wend) {
            windows.erase(it);
            if (wstart < start)
                windows.emplace(wstart, start);
            if (end < wend)
                windows.emplace(end, wend);
            return;
        }
    }
    clio_panic("removeWindow: range not inside any window");
}

std::optional<std::vector<VaRegion>>
VaAllocator::extractRegions(ProcId pid, VirtAddr start,
                            std::uint64_t length)
{
    std::vector<VaRegion> out;
    auto pit = procs_.find(pid);
    if (pit == procs_.end())
        return out;
    auto &regions = pit->second.regions;
    const VirtAddr end = start + length;
    auto first = regions.lower_bound(start);
    // One allocation may span two back-to-back windows: check every
    // overlapping region, including one starting below `start`,
    // before erasing any.
    if (first != regions.begin()) {
        const VaRegion &prev = std::prev(first)->second;
        if (prev.start + prev.length > start)
            return std::nullopt;
    }
    auto last = first;
    for (; last != regions.end() && last->first < end; ++last) {
        if (last->second.start + last->second.length > end)
            return std::nullopt;
        out.push_back(last->second);
    }
    regions.erase(first, last);
    return out;
}

void
VaAllocator::injectRegion(ProcId pid, const VaRegion &region)
{
    ProcState &st = procs_.try_emplace(pid, ProcState{{}, page_size_, {}})
                        .first->second;
    clio_assert(rangeFree(st, region.start, region.length),
                "injectRegion: range not free");
    st.regions.emplace(region.start, region);
}

void
VaAllocator::removeProcess(ProcId pid)
{
    procs_.erase(pid);
}

} // namespace clio
