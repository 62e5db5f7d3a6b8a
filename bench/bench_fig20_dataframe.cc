/**
 * @file
 * Fig. 20: Select-aggregate-shuffle runtime vs select ratio.
 *
 * Clio runs select+avg at the MN (offloads) and the histogram at the
 * CN; RDMA ships whole columns and computes everything at the CN.
 * At high select ratios the CPU-side plan wins (the FPGA is slower
 * per element and Clio ships nearly as much data); at low ratios the
 * offload plan ships far less and wins (paper Fig. 20).
 */

#include <memory>
#include <string>
#include <vector>

#include "apps/dataframe.hh"
#include "cluster/cluster.hh"
#include "harness.hh"
#include "sim/rng.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kSelectId = 4;
constexpr std::uint32_t kAggId = 5;
constexpr std::uint64_t kRows = 4'000'000;

struct Runtime
{
    double clio_s;
    double cn_s;
};

Runtime
queryRuntime(int select_pct)
{
    auto cfg = ModelConfig::prototype();
    cfg.mn_phys_bytes = 8 * GiB;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(kSelectId),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(kAggId),
        std::make_shared<AggregateOffload>(), client.pid());

    Rng rng(select_pct);
    const std::uint64_t rows = bench::iters(kRows);
    std::vector<std::uint8_t> col_a(rows);
    std::vector<std::int64_t> col_b(rows);
    for (std::uint64_t i = 0; i < rows; i++) {
        col_a[i] = rng.chance(select_pct / 100.0) ? 1 : 0;
        col_b[i] = static_cast<std::int64_t>(rng.uniformInt(100));
    }
    ClioDataFrame df(client, cluster.mn(0).nodeId(), kSelectId, kAggId);
    if (!df.load(col_a, col_b))
        return {-1, -1};

    EventQueue &eq = cluster.eventQueue();
    Runtime out{};
    Tick t0 = eq.now();
    auto off = df.runOffload(1);
    out.clio_s = ticksToSeconds(eq.now() - t0);
    t0 = eq.now();
    auto local = df.runAtCn(1);
    out.cn_s = ticksToSeconds(eq.now() - t0);
    if (!off.ok || !local.ok || off.selected != local.selected)
        return {-1, -1};
    return out;
}

} // namespace

int
main()
{
    bench::banner("Fig. 20", "Select-aggregate-shuffle runtime "
                             "(seconds, 4M rows) vs select ratio");
    bench::header({"select(%)", "Clio-offload", "CN-only(RDMA)"});
    for (int pct : {80, 40, 20, 10, 5, 2}) {
        auto rt = queryRuntime(pct);
        bench::row(std::to_string(pct), {rt.clio_s, rt.cn_s});
    }
    bench::note("expected shape: the CN-only plan is flat (always "
                "ships both columns); the offload plan shrinks with "
                "the select ratio and crosses below it at low "
                "selectivity (paper Fig. 20).");
    return 0;
}
