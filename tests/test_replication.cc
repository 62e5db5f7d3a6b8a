/**
 * @file
 * Tests for the §8 replicated-write primitive: write-all/read-one
 * semantics, replica placement, failover, and degraded operation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "clib/replication.hh"
#include "cluster/cluster.hh"

namespace clio {
namespace {

/** The test's premise: each replica lives on the MN it named. */
void
expectPlacedOn(Cluster &cluster, const ReplicatedRegion &region,
               std::uint32_t primary_idx, std::uint32_t backup_idx)
{
    ClioClient &client = cluster.client(0);
    EXPECT_EQ(client.mnFor(region.primaryVa()),
              cluster.mn(primary_idx).nodeId());
    EXPECT_EQ(client.mnFor(region.backupVa()),
              cluster.mn(backup_idx).nodeId());
}

TEST(Replication, WriteAllReadOne)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 8 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);

    const char msg[] = "durable-ish";
    ASSERT_EQ(region.write(100, msg, sizeof(msg)), Status::kOk);
    char out[sizeof(msg)] = {};
    ASSERT_EQ(region.read(100, out, sizeof(out)), Status::kOk);
    EXPECT_STREQ(out, msg);
    // Both MNs hold the bytes (one write each + faults).
    EXPECT_GE(cluster.mn(0).stats().writes, 1u);
    EXPECT_GE(cluster.mn(1).stats().writes, 1u);
    EXPECT_EQ(region.failovers(), 0u);
}

TEST(Replication, FailoverServesFromBackup)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 0xD00D;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    // "Crash" the primary: wipe this process' state there, so reads
    // against it fail (the failure mode a real MN crash+restart has).
    cluster.mn(0).destroyProcess(client.pid());
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD00Du);
    EXPECT_EQ(region.failovers(), 1u);
    EXPECT_FALSE(region.primaryAlive());

    // Writes continue in degraded mode against the backup.
    std::uint64_t v2 = 0xD11D;
    ASSERT_EQ(region.write(8, &v2, 8), Status::kOk);
    ASSERT_EQ(region.read(8, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD11Du);
}

TEST(Replication, ReplicasOnDistinctMnsByConstruction)
{
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(1).nodeId(),
                            cluster.mn(2).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 1, 2);
    std::uint64_t v = 5;
    region.write(0, &v, 8);
    EXPECT_EQ(cluster.mn(0).stats().writes, 0u); // untouched MN
    region.destroy();
    // After destroy, reads fail.
    std::uint64_t out = 0;
    EXPECT_NE(region.read(0, &out, 8), Status::kOk);
}

TEST(Replication, SurvivesLossyNetwork)
{
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = 0.08;
    cfg.clib.max_retries = 10;
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    for (int i = 0; i < 50; i++) {
        std::uint64_t v = 1000 + i;
        ASSERT_EQ(region.write(static_cast<std::uint64_t>(i) * 8, &v, 8),
                  Status::kOk);
    }
    for (int i = 0; i < 50; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(region.read(static_cast<std::uint64_t>(i) * 8, &out, 8),
                  Status::kOk);
        EXPECT_EQ(out, 1000u + static_cast<unsigned>(i));
    }
}

TEST(Replication, FailoverUnderInflightBatchedWrites)
{
    // The primary dies WHILE a write-all batch is in flight: the crash
    // event is scheduled a few microseconds out and fires inside one
    // of the synchronous submitAndWait pumps.
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);

    cluster.eventQueue().scheduleAfter(5 * kMicrosecond,
                                       [&] { cluster.crashMn(0); });
    for (std::uint64_t i = 0; i < 20; i++) {
        std::uint64_t v = 0x5000 + i;
        // Every write still acks: the batch degrades to the backup
        // when the primary leg exhausts its retries.
        ASSERT_EQ(region.write(i * 8, &v, 8), Status::kOk) << i;
    }
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_TRUE(region.backupAlive());
    EXPECT_GE(cluster.cn(0).stats().timeouts, 1u);

    // All twenty writes are readable (served by the backup).
    for (std::uint64_t i = 0; i < 20; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(region.read(i * 8, &out, 8), Status::kOk) << i;
        EXPECT_EQ(out, 0x5000 + i);
    }
}

TEST(Replication, DoubleFailureFailsFastWithoutHanging)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 1;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    cluster.crashMn(0);
    cluster.crashMn(1);

    // First op after the double failure burns real retries on both
    // replicas, then gives up — bounded sim time, never a hang.
    const Tick before = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kRetryExceeded);
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_FALSE(region.backupAlive());
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kRetryExceeded);
    EXPECT_LT(cluster.eventQueue().now() - before, kSecond);

    // Once both replicas are marked dead, further ops fail instantly
    // (no packets, no simulated time).
    const Tick t = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kRetryExceeded);
    EXPECT_EQ(region.read(0, &out, 8), Status::kRetryExceeded);
    EXPECT_EQ(cluster.eventQueue().now(), t);

    // With no surviving copy there is nothing to heal from.
    cluster.restartMn(0);
    EXPECT_EQ(region.heal(cluster.mn(0).nodeId()),
              Status::kRetryExceeded);
}

TEST(Replication, ReReplicationOntoThirdMnAfterCrash)
{
    // Heal onto a DIFFERENT MN than the one that died: the replacement
    // replica may land anywhere with capacity.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);

    // Scatter data across the region so the chunked (256 KiB) resync
    // stream has to cover every chunk.
    for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
        std::uint64_t v = 0xBEEF0000 + off;
        ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
    }

    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk); // failover
    ASSERT_FALSE(region.primaryAlive());

    ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_EQ(region.resyncs(), 1u);
    EXPECT_GE(cluster.mn(2).stats().writes, 1u);

    // Kill the surviving ORIGINAL replica: everything must now come
    // from the re-replicated copy on MN 2.
    cluster.crashMn(1);
    for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
        ASSERT_EQ(region.read(off, &out, 8), Status::kOk) << off;
        EXPECT_EQ(out, 0xBEEF0000 + off);
    }
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_TRUE(region.backupAlive()); // backup untouched since heal
}

TEST(Replication, HealAbortsWhenSurvivorDiesMidCopy)
{
    // Regression: heal() used to return the raw read status when the
    // SOURCE of the copy died mid-stream, leaving the survivor marked
    // alive and the half-copied replacement in limbo. It must abort
    // cleanly: survivor marked dead, kTimeout surfaced, replacement
    // never promoted.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    for (std::uint64_t off = 0; off < 4 * MiB; off += 512 * KiB) {
        std::uint64_t v = 0xCAFE0000 + off;
        ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
    }

    cluster.crashMn(0); // primary dies; backup (MN 1) is the survivor
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    ASSERT_FALSE(region.primaryAlive());

    // Kill the survivor while heal() is streaming chunks: 1 ms lands
    // well past the replacement alloc but mid-copy of a 4 MiB region.
    cluster.eventQueue().scheduleAfter(kMillisecond,
                                       [&] { cluster.crashMn(1); });
    EXPECT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kTimeout);
    EXPECT_TRUE(region.bothDead());
    EXPECT_EQ(region.resyncs(), 0u); // the half-copy never counts

    // The abandoned replacement was never marked healthy: every path
    // fails fast instead of serving half-copied bytes.
    EXPECT_NE(region.read(0, &out, 8), Status::kOk);
    std::uint64_t v = 1;
    EXPECT_NE(region.write(0, &v, 8), Status::kOk);
}

TEST(Replication, ResyncChunkSizeIsConfigurable)
{
    // Satellite: the 256 KiB copy chunk is a CLibConfig knob. A tiny
    // chunk turns a 1 MiB heal into many round trips; a huge chunk
    // into very few. Both still copy every byte.
    for (const std::uint64_t chunk : {64 * KiB, 1 * MiB}) {
        auto cfg = ModelConfig::prototype();
        cfg.clib.resync_chunk_bytes = chunk;
        Cluster cluster(cfg, 1, 3);
        ClioClient &client = cluster.createClient(0);
        ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                                cluster.mn(1).nodeId());
        ASSERT_TRUE(region.ok());
        expectPlacedOn(cluster, region, 0, 1);
        for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
            std::uint64_t v = 0xF00D0000 + off;
            ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
        }
        cluster.crashMn(1);
        std::uint64_t v = 0;
        ASSERT_EQ(region.write(0, &v, 8), Status::kOk); // mark it dead
        const std::uint64_t reads_before = cluster.mn(0).stats().reads;
        ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
        const std::uint64_t copy_reads =
            cluster.mn(0).stats().reads - reads_before;
        // One source read per chunk (the MN splits none of them).
        EXPECT_EQ(copy_reads, (1 * MiB + chunk - 1) / chunk);
        for (std::uint64_t off = 128 * KiB; off < 1 * MiB;
             off += 128 * KiB) {
            std::uint64_t got = 0;
            cluster.crashMn(0); // force reads onto the healed copy
            ASSERT_EQ(region.read(off, &got, 8), Status::kOk) << off;
            EXPECT_EQ(got, 0xF00D0000 + off);
        }
    }
}

TEST(Replication, WriteAllQuorumEdgeCases)
{
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);

    // Construction against a dead MN yields a half-born region that
    // reports !ok() instead of pretending to be replicated.
    cluster.crashMn(2);
    ReplicatedRegion broken(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(2).nodeId());
    EXPECT_FALSE(broken.ok());
    cluster.restartMn(2);

    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);

    // Degraded-mode write: one replica dead → kOk on a single ack,
    // and the dead replica is marked so later writes skip it.
    std::uint64_t v = 7;
    cluster.crashMn(1);
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_FALSE(region.backupAlive());
    const std::uint64_t writes_before = cluster.cn(0).stats().timeouts;
    v = 8;
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    // The second degraded write never retried the dead backup.
    EXPECT_EQ(cluster.cn(0).stats().timeouts, writes_before);

    // Read-one still answers from the surviving primary, without
    // bumping the failover counter.
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 8u);
    EXPECT_EQ(region.failovers(), 0u);
}

TEST(Replication, ReplicaPinnedToMnZeroLandsThere)
{
    // MN 0's node id is 0: an allocation pinned to it must not read as
    // "no override" and fall through to the pid's home MN.
    Cluster cluster(ModelConfig::prototype(), ClusterSpec{1, 1, 2});
    ClioClient &client = cluster.createClient(0);
    ASSERT_EQ(cluster.mn(0).nodeId(), 0u);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 0x0DD;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_EQ(cluster.mn(0).stats().writes, 1u);
    EXPECT_EQ(cluster.mn(1).stats().writes, 1u);
}

TEST(Replication, WriteRacingAChunkReadReachesTheResyncTarget)
{
    // A write overlapping the chunk whose survivor read is in flight
    // queues behind that read, so the read returns the old bytes while
    // the write's mirror to the target leaves at once. The chunk's
    // copy-write would then land the old bytes over the mirror: the
    // resync must lay the write's bytes over the chunk first.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 1;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    cluster.crashMn(1);
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk); // marks it dead
    ASSERT_FALSE(region.backupAlive());

    std::optional<Status> outcome;
    const std::uint64_t reads_before = cluster.mn(0).stats().reads;
    ASSERT_TRUE(region.beginResync(cluster.mn(2).nodeId(),
                                   [&](Status st) { outcome = st; }));
    // Stop once the survivor has served chunk 0's read: the reply is
    // still on its way back to the CN.
    EventQueue &eq = cluster.eventQueue();
    ASSERT_TRUE(eq.runUntil(
        [&] { return cluster.mn(0).stats().reads > reads_before; }));
    ASSERT_FALSE(outcome.has_value());
    v = 2;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    ASSERT_TRUE(eq.runUntil([&] { return outcome.has_value(); }));
    ASSERT_EQ(*outcome, Status::kOk);
    ASSERT_TRUE(region.fullyRedundant());
    EXPECT_EQ(region.backupMn(), cluster.mn(2).nodeId());

    // Only the resynced replica is left to answer.
    cluster.crashMn(0);
    std::uint64_t got = 0;
    ASSERT_EQ(region.read(0, &got, 8), Status::kOk);
    EXPECT_EQ(got, 2u);
}

TEST(Replication, HotWriterDoesNotStallTheResync)
{
    // A writer that keeps hitting the chunk being read races every one
    // of its reads. The resync must still finish while the writer is
    // running, and the copy must hold the writer's last value.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 0;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    cluster.crashMn(1);
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk); // marks it dead
    ASSERT_FALSE(region.backupAlive());

    std::optional<Status> outcome;
    ASSERT_TRUE(region.beginResync(cluster.mn(2).nodeId(),
                                   [&](Status st) { outcome = st; }));
    const Tick start = cluster.eventQueue().now();
    // Each write takes a few microseconds; 2000 of them outlast the
    // ~2 ms copy of 1 MiB several times over.
    for (v = 1; v <= 2000 && !outcome.has_value(); v++)
        ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    ASSERT_TRUE(outcome.has_value()) << "resync stalled by the writer";
    ASSERT_EQ(*outcome, Status::kOk);
    EXPECT_LT(cluster.eventQueue().now() - start, 5 * kMillisecond);
    ASSERT_TRUE(region.fullyRedundant());
    EXPECT_EQ(region.backupMn(), cluster.mn(2).nodeId());

    const std::uint64_t last = v - 1;
    cluster.crashMn(0); // only the resynced replica is left to answer
    std::uint64_t got = 0;
    ASSERT_EQ(region.read(0, &got, 8), Status::kOk);
    EXPECT_EQ(got, last);
}

TEST(Replication, LostResyncAllocRetriesWithoutTheSlowOpTimer)
{
    // The resync's target alloc reserves VA only. A lost alloc packet
    // is retried within a millisecond, not after slow_op_timeout
    // (200 ms), so the region is single-copy only briefly.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    expectPlacedOn(cluster, region, 0, 1);
    std::uint64_t v = 0x5EED;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    cluster.crashMn(1);
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk); // marks it dead
    ASSERT_FALSE(region.backupAlive());

    const NodeId target = cluster.mn(2).nodeId();
    std::uint32_t dropped = 0;
    cluster.network().setFaultHook([&](const Packet &pkt, NetStage) {
        FaultVerdict verdict;
        if (pkt.dst == target && pkt.type == MsgType::kAlloc &&
            dropped == 0) {
            verdict.drop = true;
            dropped++;
        }
        return verdict;
    });
    const Tick start = cluster.eventQueue().now();
    const std::uint64_t timeouts = client.cnode().stats().timeouts;
    ASSERT_EQ(region.heal(target), Status::kOk);
    cluster.network().clearFaultHook();
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(client.cnode().stats().timeouts - timeouts, 1u);
    EXPECT_LT(cluster.eventQueue().now() - start, 5 * kMillisecond);

    cluster.crashMn(0); // only the healed replica is left to answer
    std::uint64_t got = 0;
    ASSERT_EQ(region.read(0, &got, 8), Status::kOk);
    EXPECT_EQ(got, 0x5EEDu);
}

} // namespace
} // namespace clio
