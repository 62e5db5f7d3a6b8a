/**
 * @file
 * Edge cases for the §6 applications: fingerprint collisions, deletes,
 * overflow chains and corrupt entries in Clio-KV, Clio-MV capacity limits, radix-tree prefix
 * semantics, chase-offload argument validation, YCSB distribution
 * sanity, and Clio-DF empty/degenerate inputs.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "apps/dataframe.hh"
#include "apps/kv_store.hh"
#include "apps/mv_store.hh"
#include "apps/radix_tree.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "devsim/dev_board.hh"

namespace clio {
namespace {

TEST(KvEdge, DeleteThenReinsertSameBucket)
{
    DevBoard dev;
    dev.registerOffload(ClioKvOffload::descriptor(1),
                        std::make_shared<ClioKvOffload>(4));
    // Many keys in 4 buckets: deletes punch holes in slot chains that
    // later puts must reuse.
    std::map<std::string, std::string> mirror;
    auto put = [&](const std::string &k, const std::string &v) {
        ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, k, v)),
                  Status::kOk);
        mirror[k] = v;
    };
    auto del = [&](const std::string &k) {
        std::uint64_t deleted = 0;
        ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kDelete, k), nullptr,
                                  &deleted),
                  Status::kOk);
        mirror.erase(k);
    };
    auto verify = [&] {
        for (const auto &[k, v] : mirror) {
            std::vector<std::uint8_t> data;
            std::uint64_t found = 0;
            ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kGet, k), &data,
                                      &found),
                      Status::kOk);
            ASSERT_EQ(found, 1u) << k;
            EXPECT_EQ(std::string(data.begin(), data.end()), v);
        }
    };
    for (int i = 0; i < 60; i++)
        put("key" + std::to_string(i), "v" + std::to_string(i));
    for (int i = 0; i < 60; i += 3)
        del("key" + std::to_string(i));
    verify();
    for (int i = 0; i < 60; i += 3)
        put("key" + std::to_string(i), "re" + std::to_string(i));
    verify();
}

TEST(KvEdge, EmptyValueAndEmptyishKeys)
{
    DevBoard dev;
    dev.registerOffload(ClioKvOffload::descriptor(1),
                        std::make_shared<ClioKvOffload>());
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, "k", "")),
              Status::kOk);
    std::vector<std::uint8_t> data{1, 2, 3};
    std::uint64_t found = 0;
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kGet, "k"), &data,
                              &found),
              Status::kOk);
    EXPECT_EQ(found, 1u);
    EXPECT_TRUE(data.empty());
}

TEST(KvEdge, OversizedStoredKeyLengthNeverMatches)
{
    // A block whose stored key length exceeds kMaxKeyBytes (foreign or
    // corrupt memory) is no match for get, put and del alike.
    DevBoard dev;
    CBoard &board = dev.board();
    const ProcId pid = board.registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>());
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, "victim", "old")),
              Status::kOk);

    // The RAS's first region holds the bucket heads; the second is the
    // slab the put opened, with the victim's block at its start.
    const std::uint64_t page = board.config().page_table.page_size;
    std::vector<VirtAddr> regions;
    for (VirtAddr va = 0; regions.size() < 2 && va < 1024 * page;
         va += page) {
        const VaRegion *r = board.vaAllocator().regionOf(pid, va);
        if (r && (regions.empty() || regions.back() != r->start))
            regions.push_back(r->start);
    }
    ASSERT_EQ(regions.size(), 2u);
    OffloadVm vm(board, pid);
    std::uint32_t lens[2] = {};
    ASSERT_TRUE(vm.read(regions[1], lens, sizeof(lens)));
    ASSERT_EQ(lens[0], 6u);
    lens[0] = ClioKvOffload::kMaxKeyBytes + 1;
    ASSERT_TRUE(vm.write(regions[1], lens, sizeof(lens)));

    auto call = [&](KvOp op, const std::string &value = "") {
        std::vector<std::uint8_t> data;
        std::uint64_t hit = 0;
        EXPECT_EQ(dev.offloadCall(1, kvEncode(op, "victim", value), &data,
                                  &hit),
                  Status::kOk);
        return hit ? std::optional<std::string>(
                         std::string(data.begin(), data.end()))
                   : std::nullopt;
    };
    EXPECT_FALSE(call(KvOp::kGet));
    EXPECT_FALSE(call(KvOp::kDelete));
    call(KvOp::kPut, "new"); // inserts beside the foreign block
    EXPECT_EQ(call(KvOp::kGet).value_or(""), "new");
    EXPECT_TRUE(call(KvOp::kDelete));
    EXPECT_FALSE(call(KvOp::kGet));
}

/** One-bucket Clio-KV on a DevBoard, with white-box access to its
 * inline slot (the bucket array is the offload's first allocation). */
struct OneBucketKv
{
    /** Mirror of the store's 16-byte slot entry. */
    struct Entry
    {
        std::uint32_t tag;
        std::uint32_t len;
        std::uint64_t addr;
    };

    DevBoard dev;
    CBoard &board = dev.board();
    const ProcId pid = board.registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>(1));
    Tick at = 0;

    /** Run one call (a second after the last, so no DRAM queueing).
     * @return the value when the call hit, nullopt otherwise. */
    std::optional<std::string>
    call(KvOp op, const std::string &key, const std::string &value = "",
         Tick *dram = nullptr)
    {
        at += kSecond;
        OffloadResult res;
        OffloadCost split;
        board.offloadRuntime().invokeLocal(
            board, 1, kvEncode(op, key, value), at, res, &split);
        EXPECT_EQ(res.status, Status::kOk);
        if (dram)
            *dram = split.dram;
        return res.value ? std::optional<std::string>(std::string(
                               res.data.begin(), res.data.end()))
                         : std::nullopt;
    }

    /** DRAM time of a get miss: one slot read per slot in the chain. */
    Tick
    missDram()
    {
        Tick dram = 0;
        EXPECT_FALSE(call(KvOp::kGet, "no-such-key", "", &dram));
        return dram;
    }

    /** VA of entry `i` of the bucket's inline slot. */
    VirtAddr
    entryVa(int i)
    {
        const std::uint64_t page = board.config().page_table.page_size;
        for (VirtAddr va = 0; va < 1024 * page; va += page)
            if (const VaRegion *r = board.vaAllocator().regionOf(pid, va))
                return r->start + 8 + i * sizeof(Entry);
        ADD_FAILURE() << "no bucket array";
        return 0;
    }

    Entry
    entry(int i)
    {
        Entry e{};
        OffloadVm vm(board, pid);
        EXPECT_TRUE(vm.read(entryVa(i), &e, sizeof(e)));
        return e;
    }

    void
    setEntry(int i, const Entry &e)
    {
        OffloadVm vm(board, pid);
        EXPECT_TRUE(vm.write(entryVa(i), &e, sizeof(e)));
    }
};

TEST(KvEdge, OneBucketOverflowChainsAgreeWithAMap)
{
    // One bucket: 7 keys fill its inline slot, the rest chain into
    // overflow slots. Every op must agree with a std::map, and a
    // reinsert after deletes reuses the freed entries instead of
    // growing the chain.
    OneBucketKv kv;
    std::map<std::string, std::string> mirror;
    auto verify = [&] {
        for (const auto &[k, v] : mirror)
            EXPECT_EQ(kv.call(KvOp::kGet, k).value_or("<miss>"), v) << k;
    };
    kv.call(KvOp::kPut, "warm", "w");
    ASSERT_TRUE(kv.call(KvOp::kDelete, "warm"));
    const Tick one_slot = kv.missDram();

    for (int i = 0; i < 24; i++) {
        const std::string k = "key" + std::to_string(i);
        kv.call(KvOp::kPut, k, "v" + std::to_string(i));
        mirror[k] = "v" + std::to_string(i);
    }
    verify();
    EXPECT_EQ(kv.missDram(), 4 * one_slot); // 7 + 7 + 7 + 3 entries

    for (int i = 0; i < 24; i += 2) {
        const std::string k = "key" + std::to_string(i);
        kv.call(KvOp::kPut, k, "over" + std::to_string(i));
        mirror[k] = "over" + std::to_string(i);
    }
    verify();

    for (int i = 1; i < 24; i += 4) {
        const std::string k = "key" + std::to_string(i);
        EXPECT_TRUE(kv.call(KvOp::kDelete, k)) << k;
        EXPECT_FALSE(kv.call(KvOp::kDelete, k)) << k;
        EXPECT_FALSE(kv.call(KvOp::kGet, k)) << k;
        mirror.erase(k);
    }
    verify();

    // Six entries were freed; six new keys refill them.
    for (int i = 0; i < 6; i++) {
        const std::string k = "new" + std::to_string(i);
        kv.call(KvOp::kPut, k, "n" + std::to_string(i));
        mirror[k] = "n" + std::to_string(i);
    }
    verify();
    EXPECT_EQ(kv.missDram(), 4 * one_slot);
    kv.call(KvOp::kPut, "key1", "back");
    mirror["key1"] = "back";
    verify();
    EXPECT_EQ(kv.missDram(), 4 * one_slot); // 4th slot had 4 free
}

TEST(KvEdge, EntryLengthDisagreeingWithHeaderNeverMatches)
{
    // The entry's block length must equal the block header's 8 + klen
    // + vlen; when either side is off, get, del and put all see no
    // match (put inserts beside the stale entry).
    for (const bool corrupt_header : {false, true}) {
        SCOPED_TRACE(corrupt_header ? "header" : "entry");
        OneBucketKv kv;
        kv.call(KvOp::kPut, "victim", "old");
        OneBucketKv::Entry e = kv.entry(0);
        ASSERT_EQ(e.len, 8u + 6 + 3);
        if (corrupt_header) {
            OffloadVm vm(kv.board, kv.pid);
            std::uint32_t lens[2] = {};
            ASSERT_TRUE(vm.read(e.addr, lens, sizeof(lens)));
            lens[1] = 4; // vlen one longer than the entry says
            ASSERT_TRUE(vm.write(e.addr, lens, sizeof(lens)));
        } else {
            e.len += 1;
            kv.setEntry(0, e);
        }
        EXPECT_FALSE(kv.call(KvOp::kGet, "victim"));
        EXPECT_FALSE(kv.call(KvOp::kDelete, "victim"));
        kv.call(KvOp::kPut, "victim", "new");
        EXPECT_EQ(kv.entry(0).addr, e.addr); // stale entry untouched
        EXPECT_EQ(kv.call(KvOp::kGet, "victim").value_or(""), "new");
        EXPECT_TRUE(kv.call(KvOp::kDelete, "victim"));
        EXPECT_FALSE(kv.call(KvOp::kGet, "victim"));
    }
}

TEST(KvEdge, EntryPointingAtAnotherKeysBlockNeverMatches)
{
    // An entry carrying alpha's tag but bravo's block (same key and
    // value lengths, so only the key bytes differ) is no match for
    // alpha, and bravo's own entry still serves bravo.
    OneBucketKv kv;
    kv.call(KvOp::kPut, "alpha", "1");
    kv.call(KvOp::kPut, "bravo", "2");
    OneBucketKv::Entry alpha = kv.entry(0);
    const OneBucketKv::Entry bravo = kv.entry(1);
    ASSERT_NE(alpha.tag, bravo.tag);
    ASSERT_EQ(alpha.len, bravo.len);
    alpha.addr = bravo.addr;
    kv.setEntry(0, alpha);

    EXPECT_FALSE(kv.call(KvOp::kGet, "alpha"));
    EXPECT_FALSE(kv.call(KvOp::kDelete, "alpha"));
    EXPECT_EQ(kv.call(KvOp::kGet, "bravo").value_or(""), "2");
    kv.call(KvOp::kPut, "alpha", "3");
    EXPECT_EQ(kv.entry(0).addr, bravo.addr); // not flipped
    EXPECT_EQ(kv.call(KvOp::kGet, "alpha").value_or(""), "3");
    EXPECT_EQ(kv.call(KvOp::kGet, "bravo").value_or(""), "2");
}

TEST(KvEdge, MalformedArgumentsRejected)
{
    DevBoard dev;
    dev.registerOffload(ClioKvOffload::descriptor(1),
                        std::make_shared<ClioKvOffload>());
    EXPECT_EQ(dev.offloadCall(1, {}), Status::kOffloadError);
    EXPECT_EQ(dev.offloadCall(1, {0x01}), Status::kOffloadError);
    // Truncated put (klen says 10, bytes missing).
    EXPECT_EQ(dev.offloadCall(1, {0x01, 10, 0}), Status::kOffloadError);
}

TEST(MvEdge, CapacityLimits)
{
    DevBoard dev;
    dev.registerOffload(ClioMvOffload::descriptor(2),
                        std::make_shared<ClioMvOffload>(16, 2, 3));
    std::uint64_t id1 = 0, id2 = 0, v = 0;
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate), nullptr, &id1),
              Status::kOk);
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate), nullptr, &id2),
              Status::kOk);
    // Table full.
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate)),
              Status::kOutOfMemory);
    // Version array full after 3 appends.
    const std::string val(16, 'x');
    for (int i = 0; i < 3; i++) {
        EXPECT_EQ(dev.offloadCall(
                      2, mvEncode(MvOp::kAppend, id1, 0, val), nullptr,
                      &v),
                  Status::kOk);
    }
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kAppend, id1, 0, val)),
              Status::kOutOfMemory);
    // Wrong value size and unknown object are rejected.
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kAppend, id1, 0, "shrt")),
              Status::kOffloadError);
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kReadLatest, 77)),
              Status::kOffloadError);
}

TEST(RadixEdge, PrefixAndEmptyKeySemantics)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(3),
        std::make_shared<PointerChaseOffload>(), client.pid());
    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), 3, 8 * MiB);

    ASSERT_TRUE(tree.insert("ab", 1));
    ASSERT_TRUE(tree.insert("abcd", 2));
    // "abc" exists as an interior path but has no terminal value.
    EXPECT_FALSE(tree.searchOffload("abc").value.has_value());
    EXPECT_EQ(tree.searchOffload("ab").value.value_or(0), 1u);
    EXPECT_EQ(tree.searchOffload("abcd").value.value_or(0), 2u);
    // Overwriting a key's value.
    ASSERT_TRUE(tree.insert("ab", 9));
    EXPECT_EQ(tree.searchOffload("ab").value.value_or(0), 9u);
}

TEST(RadixEdge, ChaseOffloadValidatesArguments)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(3),
        std::make_shared<PointerChaseOffload>(), client.pid());
    // Wrong-size argument blob.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 3, {1, 2, 3}).status(),
              Status::kOffloadError);
    // Offsets outside the node are rejected, not read.
    PointerChaseOffload::Args args;
    args.start = 4 * MiB;
    args.value_offset = 60; // 60 + 8 > 32
    args.node_bytes = 32;
    EXPECT_EQ(client
                  .rcall(cluster.mn(0).nodeId(), 3,
                         PointerChaseOffload::encode(args))
                  .status(),
              Status::kOffloadError);
    // Chasing into unallocated memory faults cleanly.
    args.value_offset = 16;
    args.next_offset = 0;
    EXPECT_EQ(client
                  .rcall(cluster.mn(0).nodeId(), 3,
                         PointerChaseOffload::encode(args))
                  .status(),
              Status::kBadAddress);
}

TEST(YcsbEdge, MixRatiosAndDeterminism)
{
    YcsbGenerator a(1000, YcsbWorkload::kA, true, 0.99, 1);
    YcsbGenerator a2(1000, YcsbWorkload::kA, true, 0.99, 1);
    int sets = 0;
    for (int i = 0; i < 10000; i++) {
        const YcsbOp op1 = a.next();
        const YcsbOp op2 = a2.next();
        EXPECT_EQ(op1.is_set, op2.is_set);
        EXPECT_EQ(op1.key_index, op2.key_index);
        sets += op1.is_set;
    }
    EXPECT_NEAR(sets, 5000, 300);

    YcsbGenerator c(1000, YcsbWorkload::kC);
    for (int i = 0; i < 1000; i++)
        EXPECT_FALSE(c.next().is_set);

    EXPECT_EQ(YcsbGenerator::keyString(42), "user0000000042");
}

TEST(DataFrameEdge, EmptySelectionAndFullSelection)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(4),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(5),
        std::make_shared<AggregateOffload>(), client.pid());

    const std::uint64_t rows = 5000;
    std::vector<std::uint8_t> col_a(rows, 1);
    std::vector<std::int64_t> col_b(rows, 10);
    ClioDataFrame df(client, cluster.mn(0).nodeId(), 4, 5);
    ASSERT_TRUE(df.load(col_a, col_b));

    auto none = df.runOffload(0); // matches nothing
    ASSERT_TRUE(none.ok);
    EXPECT_EQ(none.selected, 0u);
    EXPECT_EQ(none.avg, 0.0);

    auto all = df.runOffload(1); // matches everything
    ASSERT_TRUE(all.ok);
    EXPECT_EQ(all.selected, rows);
    EXPECT_DOUBLE_EQ(all.avg, 10.0);
    EXPECT_EQ(all.histogram[0], rows); // constant values: one bin
}

} // namespace
} // namespace clio
