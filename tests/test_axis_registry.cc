/**
 * @file
 * Properties of the data-driven axis registry and the widened
 * design space: token codecs round-trip, pointAt/indexOf are
 * inverse bijections, keys are unique across the widened space,
 * neighborhoods are symmetric, auto axes derive consistently, the
 * three new axes (interval length, operand collectors, DRAM
 * service cycles) reach the simulator end-to-end with the expected
 * IPC direction, and sharded exploration stripes partition the
 * space exactly.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "dse/space.hh"

using namespace ltrf;
using namespace ltrf::dse;

namespace
{

/** A widened space exercising every registry axis, 256 points. */
DesignSpace
widenedSpace()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.networks = {};    // auto
    s.cache_kbs = {8, 16};
    s.policies = {PrefetchPolicy::INTERVAL,
                  PrefetchPolicy::INTERVAL_PLUS};
    s.warps = {4, 8};
    s.intervals = {4, 8};
    s.collectors = {4, 8};
    s.dram_service = {1, 4};
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

std::set<std::string>
evaluatedKeySet(const DseResult &res)
{
    std::set<std::string> keys;
    for (const PointResult &pr : res.evaluated)
        keys.insert(pr.point.key());
    return keys;
}

} // namespace

// ----- Registry declarations -----

TEST(AxisRegistry, NamesAndFlagsAreUniqueAndComplete)
{
    const auto &registry = axisRegistry();
    ASSERT_EQ(registry.size(),
              static_cast<std::size_t>(NUM_AXES));
    std::set<std::string> names, flags;
    for (const AxisDesc &a : registry) {
        EXPECT_TRUE(names.insert(a.name).second)
                << "duplicate axis name " << a.name;
        EXPECT_TRUE(flags.insert(a.cli_flag).second)
                << "duplicate axis flag " << a.cli_flag;
        // Every axis must be either applied to the SimConfig or
        // consumed by the RF model — never silently dropped.
        EXPECT_TRUE(a.model_axis != (a.apply != nullptr))
                << a.name << " is neither model- nor sim-applied";
    }
}

TEST(AxisRegistry, TokensRoundTripOverTheWidenedSpace)
{
    const DesignSpace s = widenedSpace();
    for (const AxisDesc &a : axisRegistry()) {
        std::vector<int> vals = a.values(s);
        if (vals.empty())    // auto axis: probe the derived values
            for (std::uint64_t i = 0; i < 16; i++)
                vals.push_back(a.get(s.pointAt(i)));
        for (int v : vals) {
            int back = -1;
            ASSERT_TRUE(a.parse(a.token(v), back))
                    << a.name << " token " << a.token(v);
            EXPECT_EQ(back, v) << a.name;
        }
    }
}

TEST(AxisRegistry, KeyIsTheJoinedRegistryTokens)
{
    DesignPoint p;    // defaults
    EXPECT_EQ(p.key(), "hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1");
    p.tech = CellTech::DWM;
    p.policy = PrefetchPolicy::INTERVAL_PLUS;
    p.regs_per_interval = 8;
    p.num_operand_collectors = 4;
    p.dram_service_cycles = 4;
    EXPECT_EQ(p.key(), "dwm/b1/z1/xbar/c16/interval+/w8/i8/o4/d4");
}

// ----- Space bijections -----

TEST(WidenedSpace, PointAtIndexOfRoundTrip)
{
    const DesignSpace s = widenedSpace();
    ASSERT_EQ(s.size(), 256u);
    for (std::uint64_t i = 0; i < s.size(); i++) {
        const DesignPoint p = s.pointAt(i);
        EXPECT_TRUE(s.contains(p)) << p.key();
        EXPECT_EQ(s.indexOf(p), i) << p.key();
    }
}

TEST(WidenedSpace, KeysAreUniqueAcrossTheSpace)
{
    const DesignSpace s = widenedSpace();
    std::set<std::string> keys;
    for (std::uint64_t i = 0; i < s.size(); i++)
        EXPECT_TRUE(keys.insert(s.pointAt(i).key()).second)
                << "duplicate key " << s.pointAt(i).key();
    EXPECT_EQ(keys.size(), s.size());
}

TEST(WidenedSpace, NeighborsAreSymmetric)
{
    const DesignSpace s = widenedSpace();
    for (std::uint64_t i = 0; i < s.size(); i++) {
        const DesignPoint p = s.pointAt(i);
        for (const DesignPoint &q : s.neighbors(p)) {
            EXPECT_TRUE(s.contains(q)) << q.key();
            bool back = false;
            for (const DesignPoint &r : s.neighbors(q))
                back = back || r == p;
            EXPECT_TRUE(back) << p.key() << " -> " << q.key()
                              << " has no reverse step";
        }
    }
}

TEST(WidenedSpace, AutoIntervalDerivesThePerWarpPartition)
{
    DesignSpace s = widenedSpace();
    s.intervals = {};    // auto
    for (std::uint64_t i = 0; i < s.size(); i++) {
        const DesignPoint p = s.pointAt(i);
        const SimConfig cfg = configFor(p, 1);
        EXPECT_EQ(p.regs_per_interval, cfg.cacheRegsPerWarp())
                << p.key();
    }
    // A point whose interval deviates from the partition is outside
    // an auto-interval space, but inside one that lists the value.
    DesignPoint p = s.pointAt(0);
    p.regs_per_interval = 4;
    EXPECT_FALSE(s.contains(p));
    DesignSpace explicit_ivl = widenedSpace();
    EXPECT_TRUE(explicit_ivl.contains(p));
}

TEST(WidenedSpace, ConfigForAppliesEveryNonModelAxis)
{
    DesignPoint p;
    p.cache_kb = 8;
    p.policy = PrefetchPolicy::INTERVAL_PLUS;
    p.active_warps = 4;
    p.regs_per_interval = 8;
    p.num_operand_collectors = 4;
    p.dram_service_cycles = 4;
    const SimConfig cfg = configFor(p, 2);
    EXPECT_EQ(cfg.rf_cache_bytes, 8u * 1024);
    EXPECT_EQ(cfg.design, RfDesign::LTRF_PLUS);
    EXPECT_EQ(cfg.num_active_warps, 4);
    EXPECT_EQ(cfg.regs_per_interval, 8);
    EXPECT_EQ(cfg.num_operand_collectors, 4);
    EXPECT_EQ(cfg.dram_service_cycles, 4);
}

TEST(WidenedSpace, ContainsIsTotalOnEmptyNonAutoAxes)
{
    // validate() rejects spaces with empty non-auto axes, but
    // contains() must stay total (no derivation to fall back on
    // means the axis contains nothing).
    const DesignSpace empty;
    EXPECT_FALSE(empty.contains(DesignPoint{}));
}

TEST(NewAxes, QuantizedDramServiceValuesShareASimKey)
{
    // At 24 SMs the baseline per-line occupancy is 0.5 bus cycles:
    // knob values 2 and 3 both rescale to 1 effective cycle and
    // must share one simulation (like coinciding network latencies
    // at 1x banks) instead of simulating twice.
    DesignPoint a, b;
    a.dram_service_cycles = 2;
    b.dram_service_cycles = 3;
    EXPECT_EQ(simKey(configFor(a, 24)), simKey(configFor(b, 24)));
    // At 1 SM they are distinguishable (24 vs 36 bus cycles).
    EXPECT_NE(simKey(configFor(a, 1)), simKey(configFor(b, 1)));
}

TEST(WidenedSpaceDeathTest, ValidateRejectsBadNewAxisValues)
{
    DesignSpace s = widenedSpace();
    s.intervals = {3};
    EXPECT_EXIT(s.validate(), ::testing::ExitedWithCode(1),
                "registers per interval");

    DesignSpace s2 = widenedSpace();
    s2.intervals = {32};    // > the 8KB/4-warp partition of 16
    EXPECT_EXIT(s2.validate(), ::testing::ExitedWithCode(1),
                "exceeds the per-warp cache partition");

    DesignSpace s3 = widenedSpace();
    s3.collectors = {1};    // below the issue width
    EXPECT_EXIT(s3.validate(), ::testing::ExitedWithCode(1),
                "operand collector count");

    DesignSpace s4 = widenedSpace();
    s4.dram_service = {0};
    EXPECT_EXIT(s4.validate(), ::testing::ExitedWithCode(1),
                "DRAM service-cycle scale");
}

// ----- New axes reach the simulator (direction checks) -----

TEST(NewAxes, LongerIntervalsRaiseIpcFromTheShortEnd)
{
    // Very short intervals prefetch-stall constantly; lengthening
    // them toward the cache partition recovers IPC (Figure 12's
    // methodology, now decoupled from the cache size).
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM};
    s.banks = {1};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    s.intervals = {4, 16};

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const DseResult res = explore(s, opt);
    ASSERT_EQ(res.evaluated.size(), 2u);
    const double short_ipc = res.evaluated[0].obj.ipc;    // i4
    const double long_ipc = res.evaluated[1].obj.ipc;     // i16
    EXPECT_EQ(res.evaluated[0].point.regs_per_interval, 4);
    EXPECT_EQ(res.evaluated[1].point.regs_per_interval, 16);
    EXPECT_LT(short_ipc, long_ipc);
}

TEST(NewAxes, MoreDramServiceCyclesLowerIpc)
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM};
    s.banks = {1};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    s.dram_service = {1, 16};

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const DseResult res = explore(s, opt);
    ASSERT_EQ(res.evaluated.size(), 2u);
    EXPECT_GT(res.evaluated[0].obj.ipc,     // d1: full bandwidth
              res.evaluated[1].obj.ipc);    // d16: starved bus
}

TEST(NewAxes, MoreOperandCollectorsRaiseIpc)
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM};
    s.banks = {1};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    s.collectors = {2, 8};

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const DseResult res = explore(s, opt);
    ASSERT_EQ(res.evaluated.size(), 2u);
    EXPECT_LT(res.evaluated[0].obj.ipc,     // o2: issue-starved
              res.evaluated[1].obj.ipc);    // o8
}

// ----- Sharded exploration -----

TEST(Sharding, StripeUnionEqualsTheUnshardedGrid)
{
    // The balanced index-range stripes partition the space: the
    // union of the shards' grid walks is exactly the unsharded
    // walk, with no overlap.
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    s.dram_service = {1, 4};    // 8 points

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const std::set<std::string> full =
            evaluatedKeySet(explore(s, opt));

    for (int count : {2, 3}) {
        std::set<std::string> merged;
        std::size_t total = 0;
        for (int i = 0; i < count; i++) {
            opt.shard_index = i;
            opt.shard_count = count;
            const std::set<std::string> shard =
                    evaluatedKeySet(explore(s, opt));
            total += shard.size();
            merged.insert(shard.begin(), shard.end());
        }
        EXPECT_EQ(merged, full) << count << " shards";
        EXPECT_EQ(total, full.size())
                << "shards overlap at count " << count;
    }
}

TEST(Sharding, SamplingStaysInsideTheStripe)
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM,
               CellTech::DWM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};    // 6 points; shard 0/2 = indices 0..2

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::RANDOM;
    opt.budget = 6;    // > stripe size: exhausts the stripe
    opt.shard_index = 0;
    opt.shard_count = 2;
    const DseResult res = explore(s, opt);
    EXPECT_EQ(res.evaluated.size(), 3u);
    for (const PointResult &pr : res.evaluated)
        EXPECT_LT(s.indexOf(pr.point), 3u) << pr.point.key();
    EXPECT_EQ(res.shard_index, 0);
    EXPECT_EQ(res.shard_count, 2);
}

TEST(Sharding, ShardThenResumeMergesIntoTheFullFrontier)
{
    // The documented workflow: run shard 0, then run shard 1 with
    // --resume on shard 0's report. The merged run's frontier must
    // equal the unsharded grid's frontier, key for key.
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const DseResult full = explore(s, opt);

    opt.shard_index = 0;
    opt.shard_count = 2;
    const DseResult shard0 = explore(s, opt);

    opt.shard_index = 1;
    opt.resume = parseDseReport(shard0.toJson());
    const DseResult merged = explore(s, opt);

    EXPECT_EQ(merged.resumed, shard0.evaluated.size());
    EXPECT_EQ(evaluatedKeySet(merged), evaluatedKeySet(full));
    std::set<std::string> full_front, merged_front;
    for (int idx : full.frontier)
        full_front.insert(
                full.evaluated[static_cast<std::size_t>(idx)]
                        .point.key());
    for (int idx : merged.frontier)
        merged_front.insert(
                merged.evaluated[static_cast<std::size_t>(idx)]
                        .point.key());
    EXPECT_EQ(merged_front, full_front);
    // Bit-exact objectives: resumed points carry their saved
    // numbers, fresh points simulate identically.
    for (const PointResult &m : merged.evaluated)
        for (const PointResult &f : full.evaluated)
            if (f.point == m.point) {
                EXPECT_EQ(f.obj.ipc, m.obj.ipc);
                EXPECT_EQ(f.obj.energy, m.obj.energy);
                EXPECT_EQ(f.obj.area, m.obj.area);
            }
}

TEST(ShardingDeathTest, RejectsOutOfRangeShard)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    opt.shard_index = 2;
    opt.shard_count = 2;
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM};
    s.banks = {1};
    s.bank_sizes = {1};
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    EXPECT_EXIT(explore(s, opt), ::testing::ExitedWithCode(1),
                "--shard");
}
