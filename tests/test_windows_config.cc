/**
 * @file
 * Unit tests for the VA-allocator window primitives that migration is
 * built on (addWindow / removeWindow / extractRegions / injectRegion,
 * §4.7) and for the model configuration presets.
 */

#include <gtest/gtest.h>

#include "pagetable/hash_page_table.hh"
#include "sim/config.hh"
#include "valloc/va_allocator.hh"

namespace clio {
namespace {

constexpr std::uint64_t kPage = 4 * MiB;

struct WinFixture
{
    HashPageTable pt{8 * GiB, kPage, 8, 2.0};
    VaAllocator va{kPage, 1ull << 46};
};

TEST(Windows, AllocationsConfinedToWindows)
{
    WinFixture f;
    const VirtAddr w1 = 1 * GiB;
    f.va.addWindow(1, w1, 64 * MiB);
    for (int i = 0; i < 16; i++) {
        auto res = f.va.allocate(1, kPage, kPermReadWrite, f.pt);
        ASSERT_TRUE(res.has_value());
        EXPECT_GE(res->addr, w1);
        EXPECT_LT(res->addr + kPage, w1 + 64 * MiB + 1);
        for (auto vpn : res->vpns)
            f.pt.insert(1, vpn, kPermReadWrite);
    }
    // Window full: next allocation fails until a new window arrives.
    EXPECT_FALSE(f.va.allocate(1, kPage, kPermReadWrite, f.pt)
                     .has_value());
    f.va.addWindow(1, 4 * GiB, 64 * MiB);
    auto res = f.va.allocate(1, kPage, kPermReadWrite, f.pt);
    ASSERT_TRUE(res.has_value());
    EXPECT_GE(res->addr, 4 * GiB);
}

TEST(Windows, AdjacentWindowsMergeForLargeAllocations)
{
    WinFixture f;
    f.va.addWindow(1, 1 * GiB, 32 * MiB);
    f.va.addWindow(1, 1 * GiB + 32 * MiB, 32 * MiB); // contiguous
    // A 48 MB allocation spans the merged window.
    auto res = f.va.allocate(1, 48 * MiB, kPermReadWrite, f.pt);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->vpns.size(), 12u);
}

TEST(Windows, ExtractAndInjectMoveRegionsBetweenAllocators)
{
    WinFixture src;
    WinFixture dst;
    src.va.addWindow(1, 1 * GiB, 64 * MiB);
    auto a = src.va.allocate(1, 8 * MiB, kPermReadWrite, src.pt);
    auto b = src.va.allocate(1, 4 * MiB, kPermRead, src.pt);
    ASSERT_TRUE(a && b);

    auto extracted = src.va.extractRegions(1, 1 * GiB, 64 * MiB);
    ASSERT_TRUE(extracted.has_value());
    const std::vector<VaRegion> &moved = *extracted;
    ASSERT_EQ(moved.size(), 2u);
    EXPECT_EQ(src.va.allocatedBytes(1), 0u);
    src.va.removeWindow(1, 1 * GiB, 64 * MiB);

    dst.va.addWindow(1, 1 * GiB, 64 * MiB);
    for (const auto &region : moved)
        dst.va.injectRegion(1, region);
    EXPECT_EQ(dst.va.allocatedBytes(1), 12 * MiB);
    // The injected regions keep their addresses and permissions.
    const VaRegion *rb = dst.va.regionOf(1, b->addr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(rb->perm, kPermRead);
    // Freeing through the destination works.
    EXPECT_TRUE(dst.va.free(1, a->addr).has_value());
}

TEST(Windows, ExtractRefusesRegionsStraddlingTheRange)
{
    // Two back-to-back windows merge, so one allocation can span
    // both. Extracting either window must refuse, removing nothing,
    // whether the straddler starts inside the range or below it.
    WinFixture f;
    f.va.addWindow(1, 1 * GiB, 16 * MiB);
    f.va.addWindow(1, 1 * GiB + 16 * MiB, 16 * MiB);
    auto inside = f.va.allocate(1, 8 * MiB, kPermReadWrite, f.pt);
    auto spanning = f.va.allocate(1, 12 * MiB, kPermReadWrite, f.pt);
    ASSERT_TRUE(inside && spanning);
    ASSERT_LT(spanning->addr, 1 * GiB + 16 * MiB);
    ASSERT_GT(spanning->addr + 12 * MiB, 1 * GiB + 16 * MiB);

    EXPECT_FALSE(f.va.extractRegions(1, 1 * GiB, 16 * MiB).has_value());
    EXPECT_FALSE(f.va.extractRegions(1, 1 * GiB + 16 * MiB, 16 * MiB)
                     .has_value());
    EXPECT_EQ(f.va.allocatedBytes(1), 20 * MiB);
    EXPECT_NE(f.va.regionOf(1, inside->addr), nullptr);
    EXPECT_NE(f.va.regionOf(1, spanning->addr), nullptr);
}

TEST(Windows, RemoveWindowSplitsMergedRange)
{
    WinFixture f;
    f.va.addWindow(1, 1 * GiB, 64 * MiB);
    f.va.addWindow(1, 1 * GiB + 64 * MiB, 64 * MiB); // merged
    // Remove the middle half: remaining windows still usable.
    f.va.removeWindow(1, 1 * GiB + 32 * MiB, 64 * MiB);
    EXPECT_EQ(f.va.windowBytes(1), 64 * MiB);
    auto res = f.va.allocate(1, 32 * MiB, kPermReadWrite, f.pt);
    ASSERT_TRUE(res.has_value());
    const bool in_low =
        res->addr >= 1 * GiB && res->addr + 32 * MiB <= 1 * GiB + 32 * MiB;
    const bool in_high = res->addr >= 1 * GiB + 96 * MiB &&
                         res->addr + 32 * MiB <= 1 * GiB + 128 * MiB;
    EXPECT_TRUE(in_low || in_high);
}

TEST(Config, PrototypeMatchesPaperConstants)
{
    const auto cfg = ModelConfig::prototype();
    EXPECT_EQ(cfg.fast_path.cycle, 4 * kNanosecond); // 250 MHz
    EXPECT_EQ(cfg.fast_path.datapath_bits, 512u);
    // 512 bit x 250 MHz = 128 Gbps fast-path ceiling (§5).
    EXPECT_EQ(cfg.fastPathPeakBps(), 128ull * 1000 * 1000 * 1000);
    EXPECT_EQ(cfg.datapathBytesPerCycle(), 64u);
    EXPECT_EQ(cfg.page_table.page_size, 4 * MiB);
    EXPECT_EQ(cfg.rdma.odp_page_fault, Tick(16800) * kMicrosecond);
    EXPECT_EQ(cfg.slow_path.interconnect_crossing, 40 * kMicrosecond);
    EXPECT_EQ(cfg.mn_phys_bytes, 2 * GiB);
}

TEST(Config, AsicProjectionIsStrictlyFaster)
{
    const auto proto = ModelConfig::prototype();
    const auto asic = ModelConfig::asicProjection();
    EXPECT_LT(asic.fast_path.cycle, proto.fast_path.cycle);
    EXPECT_LT(asic.dram.access_latency, proto.dram.access_latency);
    EXPECT_LT(asic.fast_path.mac_latency, proto.fast_path.mac_latency);
    EXPECT_GT(asic.net.link_bandwidth_bps, proto.net.link_bandwidth_bps);
    // 2 GHz: 0.5 ns cycle -> 1 Tbps-class datapath ceiling.
    EXPECT_EQ(asic.fast_path.cycle, 500 * kPicosecond);
    EXPECT_GT(asic.fastPathPeakBps(), 1000ull * 1000 * 1000 * 1000 - 1);
}

TEST(Config, PageTableBytesFractionSmall)
{
    // §4.2: the flat table is a tiny fraction of physical memory.
    const auto cfg = ModelConfig::prototype();
    HashPageTable pt(cfg.mn_phys_bytes, cfg.page_table.page_size,
                     cfg.page_table.bucket_slots,
                     cfg.page_table.overprovision);
    EXPECT_LT(static_cast<double>(pt.tableBytes()),
              0.004 * static_cast<double>(cfg.mn_phys_bytes));
}

} // namespace
} // namespace clio
