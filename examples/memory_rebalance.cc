/**
 * @file
 * Distributed MNs with over-commit and migration (§4.7): a cluster of
 * small memory nodes absorbs a growing workload; when one MN comes
 * under memory pressure, the global controller migrates regions to
 * less-pressured MNs in the background — instead of swapping — and
 * clients keep reading their data transparently.
 *
 *   $ ./memory_rebalance
 */

#include <cstdio>
#include <vector>

#include "cluster/cluster.hh"

using namespace clio;

namespace {

void
printPressure(Cluster &cluster, const char *when)
{
    std::printf("%s:", when);
    for (std::uint32_t m = 0; m < cluster.mnCount(); m++)
        std::printf("  MN%u=%.0f%%", m,
                    100.0 * cluster.mn(m).memoryPressure());
    std::printf("\n");
}

} // namespace

int
main()
{
    auto cfg = ModelConfig::prototype();
    cfg.dist.region_size = 32 * MiB; // small regions for the demo
    cfg.mn_phys_bytes = 256 * MiB;
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);

    // Phase 1: a tenant grows on its home MN (e.g. placed there for
    // locality before the cluster filled up), faulting in pages.
    client.setAllocPlacement(
        [&cluster](std::uint64_t) { return cluster.mn(0).nodeId(); });
    std::vector<VirtAddr> chunks;
    std::uint64_t stamp = 1;
    for (int i = 0; i < 7; i++) {
        const VirtAddr a = client.ralloc(32 * MiB).value_or(0);
        if (!a)
            break;
        for (std::uint64_t off = 0; off < 32 * MiB; off += 4 * MiB) {
            std::uint64_t v = stamp++;
            client.rwrite(a + off, &v, sizeof(v));
        }
        chunks.push_back(a);
    }
    printPressure(cluster, "after growth   ");

    // Phase 2: controller sweep migrates regions off hot MNs.
    auto reports = cluster.balancePressure();
    std::printf("controller migrated %zu region(s):\n", reports.size());
    for (const auto &r : reports) {
        std::printf("  0x%llx: MN%u -> MN%u, %u pages, %.3f s\n",
                    (unsigned long long)r.region_start, r.src_mn,
                    r.dst_mn, r.pages_moved,
                    ticksToSeconds(r.duration));
    }
    printPressure(cluster, "after balancing");

    // Phase 3: the tenant never noticed — verify every stamp.
    std::uint64_t expect = 1;
    bool ok = true;
    for (VirtAddr a : chunks) {
        for (std::uint64_t off = 0; off < 32 * MiB; off += 4 * MiB) {
            std::uint64_t v = 0;
            ok = ok &&
                 client.rread(a + off, &v, sizeof(v)) == Status::kOk &&
                 v == expect++;
        }
    }
    std::printf("all %llu stamps intact after migration: %s\n",
                (unsigned long long)(expect - 1), ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
