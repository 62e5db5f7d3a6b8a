#include "cluster/shard_map.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

namespace {

/** splitmix64 finalizer: cheap, well-mixed, platform-independent. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
ShardMap::keyHash(ProcId pid, std::uint64_t region_index)
{
    return mix64((static_cast<std::uint64_t>(pid) << 24) ^ region_index);
}

void
ShardMap::addMn(std::uint32_t mn_idx, RackId rack)
{
    for (const auto &[mn, r] : members_)
        clio_assert(mn != mn_idx, "MN %u already in the shard map",
                    mn_idx);
    members_.emplace_back(mn_idx, rack);
    ring_.reserve(ring_.size() + kVnodesPerMn);
    for (std::uint32_t v = 0; v < kVnodesPerMn; v++) {
        // Ring points depend only on (mn, replica): re-adding an MN
        // recreates exactly its old points, restoring old placements.
        const std::uint64_t point =
            mix64((static_cast<std::uint64_t>(mn_idx) << 32) | v);
        ring_.push_back(VNode{point, mn_idx});
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const VNode &a, const VNode &b) {
                  return a.point != b.point ? a.point < b.point
                                            : a.mn < b.mn;
              });
    rebuildRackRing(rack);
}

void
ShardMap::removeMn(std::uint32_t mn_idx)
{
    auto member = std::find_if(members_.begin(), members_.end(),
                               [mn_idx](const auto &m) {
                                   return m.first == mn_idx;
                               });
    clio_assert(member != members_.end(), "MN %u not in the shard map",
                mn_idx);
    const RackId rack = member->second;
    members_.erase(member);
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [mn_idx](const VNode &v) {
                                   return v.mn == mn_idx;
                               }),
                ring_.end());
    rebuildRackRing(rack);
}

void
ShardMap::rebuildRackRing(RackId rack)
{
    std::vector<VNode> &sub = rack_rings_[rack];
    sub.clear();
    for (const VNode &v : ring_) {
        if (rackOf(v.mn) == rack)
            sub.push_back(v); // ring_ is sorted, so sub is too
    }
    if (sub.empty())
        rack_rings_.erase(rack);
}

RackId
ShardMap::rackOf(std::uint32_t mn_idx) const
{
    for (const auto &[mn, rack] : members_) {
        if (mn == mn_idx)
            return rack;
    }
    clio_panic("MN %u not in the shard map", mn_idx);
}

std::uint32_t
ShardMap::ownerOf(ProcId pid, std::uint64_t region_index) const
{
    clio_assert(!ring_.empty(), "shard map is empty");
    const std::uint64_t key = keyHash(pid, region_index);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), key,
                               [](const VNode &v, std::uint64_t k) {
                                   return v.point < k;
                               });
    if (it == ring_.end())
        it = ring_.begin(); // wrap around
    return it->mn;
}

std::uint32_t
ShardMap::ownerNear(ProcId pid, std::uint64_t region_index,
                    RackId preferred_rack, std::uint32_t probe) const
{
    clio_assert(!ring_.empty(), "shard map is empty");
    const std::uint64_t key = keyHash(pid, region_index);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), key,
                               [](const VNode &v, std::uint64_t k) {
                                   return v.point < k;
                               });
    std::size_t pos = static_cast<std::size_t>(it - ring_.begin()) %
                      ring_.size();
    std::uint32_t first = ring_[pos].mn;
    std::vector<std::uint32_t> seen;
    seen.reserve(probe);
    for (std::size_t step = 0;
         step < ring_.size() && seen.size() < probe; step++) {
        const std::uint32_t mn = ring_[(pos + step) % ring_.size()].mn;
        if (std::find(seen.begin(), seen.end(), mn) != seen.end())
            continue;
        if (rackOf(mn) == preferred_rack)
            return mn;
        seen.push_back(mn);
    }
    // No preferred-rack MN within `probe` hops: take the key's
    // successor on the rack's own sub-ring, so placement stays
    // rack-local whenever the rack hosts any MN at all.
    auto sub = rack_rings_.find(preferred_rack);
    if (sub != rack_rings_.end()) {
        const std::vector<VNode> &rsub = sub->second;
        auto rit = std::lower_bound(rsub.begin(), rsub.end(), key,
                                    [](const VNode &v, std::uint64_t k) {
                                        return v.point < k;
                                    });
        if (rit == rsub.end())
            rit = rsub.begin();
        return rit->mn;
    }
    return first;
}

} // namespace clio
