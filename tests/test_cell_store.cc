/**
 * @file
 * Tests for the persistent content-addressed cell store
 * (dse/cell_store) and its explorer integration: exact result
 * round-trips, corruption-tolerant loads, sim-version invalidation,
 * concurrent writers on one directory, and the headline property —
 * a repeated exploration against a warm store simulates zero cells
 * and serializes a byte-identical report.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/cell_store.hh"
#include "dse/explorer.hh"
#include "dse/space.hh"
#include "sim/gpu.hh"

using namespace ltrf;
using namespace ltrf::dse;

namespace
{

namespace fs = std::filesystem;

/** A fresh per-test directory under the system temp root. */
class CellStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() /
               ("ltrf_cell_store_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                      .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

SimResult
sampleResult()
{
    SimResult r;
    r.workload = "bfs";
    r.cycles = 123456;
    r.instructions = 654321;
    r.ipc = 1.2345678901234567;
    r.resident_warps = 12;
    r.main_accesses = 1111;
    r.cache_accesses = 2222;
    r.wcb_accesses = 3333;
    r.xfer_regs = 4444;
    r.prefetch_ops = 555;
    r.writeback_regs = 666;
    r.prefetch_stall_cycles = 77;
    r.cache_hit_rate = 0.875;
    r.l1d_hit_rate = 0.662607015;
    r.activity.main_accesses_per_cycle = 3.217;
    r.activity.cache_accesses_per_cycle = 1.414213562373095;
    r.activity.wcb_accesses_per_cycle = 0.301029995663981;
    r.activity.xfer_regs_per_cycle = 0.0001;
    return r;
}

void
expectSame(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    // Exact equality on purpose: the JSON number codec round-trips
    // doubles bit-for-bit (%.17g), which is what lets a loaded cell
    // fold into a byte-identical report.
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.resident_warps, b.resident_warps);
    EXPECT_EQ(a.main_accesses, b.main_accesses);
    EXPECT_EQ(a.cache_accesses, b.cache_accesses);
    EXPECT_EQ(a.wcb_accesses, b.wcb_accesses);
    EXPECT_EQ(a.xfer_regs, b.xfer_regs);
    EXPECT_EQ(a.prefetch_ops, b.prefetch_ops);
    EXPECT_EQ(a.writeback_regs, b.writeback_regs);
    EXPECT_EQ(a.prefetch_stall_cycles, b.prefetch_stall_cycles);
    EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
    EXPECT_EQ(a.l1d_hit_rate, b.l1d_hit_rate);
    EXPECT_EQ(a.activity.main_accesses_per_cycle,
              b.activity.main_accesses_per_cycle);
    EXPECT_EQ(a.activity.cache_accesses_per_cycle,
              b.activity.cache_accesses_per_cycle);
    EXPECT_EQ(a.activity.wcb_accesses_per_cycle,
              b.activity.wcb_accesses_per_cycle);
    EXPECT_EQ(a.activity.xfer_regs_per_cycle,
              b.activity.xfer_regs_per_cycle);
}

constexpr const char *KEY = "tfet/b8/z1/fbfly/c16/interval/w8/i16/o8/d1";

} // namespace

TEST_F(CellStoreTest, RoundTripsEveryField)
{
    CellStore store(dir, "sms=2|seed=7");
    const SimResult in = sampleResult();

    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));    // cold: miss
    store.store(KEY, "bfs", in);
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    expectSame(in, out);
    EXPECT_EQ(out.workload, "bfs");

    const CellStore::Counts c = store.counts();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.errors, 0u);
}

TEST_F(CellStoreTest, DistinctCellsGetDistinctEntries)
{
    CellStore store(dir, "sms=2|seed=7");
    EXPECT_NE(store.entryPath(KEY, "bfs"), store.entryPath(KEY, "btree"));
    EXPECT_NE(store.entryPath(KEY, "bfs"),
              store.entryPath("hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1",
                              "bfs"));

    SimResult a = sampleResult(), b = sampleResult();
    b.ipc = 9.75;
    store.store(KEY, "bfs", a);
    store.store(KEY, "btree", b);
    SimResult out;
    ASSERT_TRUE(store.load(KEY, "btree", out));
    EXPECT_EQ(out.ipc, 9.75);
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    EXPECT_EQ(out.ipc, a.ipc);
}

TEST_F(CellStoreTest, CorruptedEntryIsAMissNotACrash)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");

    {
        std::ofstream f(path, std::ios::trunc);
        f << "{ this is not json";
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);

    // Re-simulating and re-storing repairs the entry.
    store.store(KEY, "bfs", sampleResult());
    EXPECT_TRUE(store.load(KEY, "bfs", out));
}

TEST_F(CellStoreTest, TruncatedEntryIsAMissNotACrash)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");

    std::string text;
    {
        std::ifstream f(path);
        text.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(text.size(), 40u);
    {
        // A torn write (which the atomic rename protocol prevents,
        // but a full disk or a copied file can still produce).
        std::ofstream f(path, std::ios::trunc);
        f << text.substr(0, text.size() / 2);
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);
}

TEST_F(CellStoreTest, ValidJsonWithMissingFieldsIsAMiss)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    {
        std::ofstream f(store.entryPath(KEY, "bfs"), std::ios::trunc);
        f << "{\"ltrf_cell_schema\": 1}\n";
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);
}

TEST_F(CellStoreTest, SimVersionChangeInvalidatesPassively)
{
    // The version is part of the entry address: after a bump, old
    // entries are simply never found (no scan, no deletion).
    {
        CellStore v1(dir, "ctx", "version-one");
        v1.store(KEY, "bfs", sampleResult());
    }
    CellStore v2(dir, "ctx", "version-two");
    SimResult out;
    EXPECT_FALSE(v2.load(KEY, "bfs", out));
    EXPECT_EQ(v2.counts().errors, 0u) << "stale entries are plain "
                                          "misses, not errors";

    // A hand-copied foreign entry *at the right address* is caught
    // by the stored-key verification instead.
    CellStore v1b(dir, "ctx", "version-one");
    fs::copy_file(v1b.entryPath(KEY, "bfs"),
                  v2.entryPath(KEY, "bfs"),
                  fs::copy_options::overwrite_existing);
    EXPECT_FALSE(v2.load(KEY, "bfs", out));
    EXPECT_GE(v2.counts().errors, 1u);
}

TEST_F(CellStoreTest, ContextSeparatesRuns)
{
    // Same sim key + workload at different SM counts / seeds must
    // not share entries (simKey() does not encode either).
    CellStore sms2(dir, "sms=2|seed=7");
    CellStore sms4(dir, "sms=4|seed=7");
    sms2.store(KEY, "bfs", sampleResult());
    SimResult out;
    EXPECT_FALSE(sms4.load(KEY, "bfs", out));
    EXPECT_TRUE(sms2.load(KEY, "bfs", out));
}

TEST_F(CellStoreTest, ConcurrentWritersOnOneDirectory)
{
    // Shards of one exploration share a cache dir: concurrent
    // stores of the same and of distinct cells must never produce a
    // torn read. (With tsan/asan in CI this also proves the
    // counters' locking.)
    constexpr int THREADS = 8, ITERS = 25;
    CellStore store(dir, "ctx");
    std::vector<std::thread> ts;
    for (int t = 0; t < THREADS; t++) {
        ts.emplace_back([&store, t] {
            for (int i = 0; i < ITERS; i++) {
                SimResult r = sampleResult();
                r.ipc = 1.0 + t;    // per-thread payload
                const std::string wl =
                        "w" + std::to_string(i % 5);
                store.store(KEY, wl, r);
                SimResult out;
                if (store.load(KEY, wl, out)) {
                    // Whatever thread's store won, the entry is
                    // complete and self-consistent.
                    EXPECT_GE(out.ipc, 1.0);
                    EXPECT_LE(out.ipc, 1.0 + THREADS);
                    EXPECT_EQ(out.cycles, r.cycles);
                }
            }
        });
    }
    for (std::thread &t : ts)
        t.join();
    EXPECT_EQ(store.counts().errors, 0u);
}

// ----- Explorer integration -----

namespace
{

DesignSpace
microSpace()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.networks = {};    // auto
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    return s;
}

ExploreOptions
microOptions()
{
    ExploreOptions opt;
    opt.workloads = {"bfs", "btree"};
    opt.num_sms = 1;
    opt.seed = 2018;
    return opt;
}

/** The stat line at @p path in @p res; 0 when the store was off. */
std::uint64_t
statValue(const DseResult &res, const std::string &path)
{
    for (const StatLine &l : res.stats_lines)
        if (l.name == path)
            return l.value;
    return 0;
}

} // namespace

TEST_F(CellStoreTest, SecondExplorationSimulatesNothing)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;

    const DseResult plain = explore(microSpace(), opt);
    ASSERT_TRUE(plain.stats_lines.empty())
            << "no cache dir, no store traffic";

    opt.cache_dir = dir;
    const DseResult cold = explore(microSpace(), opt);
    EXPECT_EQ(statValue(cold, "cell_store.hits"), 0u);
    EXPECT_EQ(statValue(cold, "cell_store.misses"), cold.sim_cells);
    EXPECT_EQ(statValue(cold, "cell_store.stores"), cold.sim_cells);

    const DseResult warm = explore(microSpace(), opt);
    EXPECT_EQ(statValue(warm, "cell_store.misses"), 0u)
            << "a warm store simulates zero cells";
    EXPECT_EQ(statValue(warm, "cell_store.stores"), 0u);
    EXPECT_EQ(statValue(warm, "cell_store.hits"), warm.sim_cells);

    // The headline determinism property: the report cannot tell a
    // cached run from a fresh one, byte for byte.
    const std::string golden = plain.toJson().dump(2);
    EXPECT_EQ(golden, cold.toJson().dump(2));
    EXPECT_EQ(golden, warm.toJson().dump(2));
}

TEST_F(CellStoreTest, ConcurrentShardsShareACacheDirectory)
{
    // Two GRID shards of one space explore concurrently into one
    // cache dir (the sharded-DSE workflow). Their stripes are
    // disjoint but the baseline cells collide — the atomic rename
    // protocol makes that race benign.
    ExploreOptions base = microOptions();
    base.strategy = Strategy::GRID;
    base.cache_dir = dir;
    base.shard_count = 2;

    DseResult shard_res[2];
    std::vector<std::thread> ts;
    for (int sh = 0; sh < 2; sh++) {
        ts.emplace_back([&, sh] {
            ExploreOptions o = base;
            o.shard_index = sh;
            shard_res[sh] = explore(microSpace(), o);
        });
    }
    for (std::thread &t : ts)
        t.join();
    EXPECT_EQ(statValue(shard_res[0], "cell_store.errors"), 0u);
    EXPECT_EQ(statValue(shard_res[1], "cell_store.errors"), 0u);
    EXPECT_EQ(shard_res[0].evaluated.size() +
                      shard_res[1].evaluated.size(),
              microSpace().size());

    // The union of the shards warmed every cell of the full space.
    ExploreOptions full = microOptions();
    full.strategy = Strategy::GRID;
    full.cache_dir = dir;
    const DseResult warm = explore(microSpace(), full);
    EXPECT_EQ(statValue(warm, "cell_store.misses"), 0u);
    EXPECT_EQ(statValue(warm, "cell_store.hits"), warm.sim_cells);
}
