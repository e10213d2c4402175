/**
 * @file
 * Issue-path exactness pins on collector-bound kernels.
 *
 * nw and srad at rf-config 6 lose most of their BL/RFC issue slots
 * to busy operand collectors, so they are the cells where the SM's
 * collector-wait bookkeeping does the most work. Every numeric
 * SimResult field and the five per-cause issue-slot stall totals are
 * pinned to exact values: any change to how blocked warps retry
 * must leave what is simulated untouched. The second check bounds
 * the collector_wait distribution at one sample per issued
 * instruction: a warp that waits for a collector records its wait
 * once, when it finally issues, not once per failed retry.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "sim/gpu.hh"
#include "tech/rf_config.hh"
#include "workloads/workload.hh"

using namespace ltrf;

namespace
{

constexpr std::uint64_t SEED = 2018;
constexpr int NUM_SMS = 2;

/** Exact expected values for one (workload, design) cell. */
struct Pin
{
    const char *workload;
    RfDesign design;
    Cycle cycles;
    std::uint64_t instructions;
    double ipc;
    int resident_warps;
    std::uint64_t main_accesses, cache_accesses, wcb_accesses,
            xfer_regs, prefetch_ops, writeback_regs,
            prefetch_stall_cycles;
    double cache_hit_rate, l1d_hit_rate;
    RfActivity activity;
    /** stall_total.stalls, in obs::StallCause order. */
    std::uint64_t stalls[obs::NUM_STALL_CAUSES];
};

// Doubles are printed with 17 significant digits, so each literal
// round-trips to the exact value the simulator computes.
const Pin PINS[] = {
        {"nw", RfDesign::BL, 261356, 371808, 1.4226113041215813, 64,
         1349856, 0, 0, 0, 0, 0, 0,
         0, 0,
         {2.5824086686358836, 0,
          0, 0},
         {20898, 639239, 0, 12595, 884}},
        {"nw", RfDesign::RFC, 221249, 371808, 1.6804957310541517, 64,
         868434, 1340800, 0, 0, 0, 272993, 0,
         0.40610820774590828, 0,
         {1.9625715822444396, 3.0300701924076492,
          0, 0},
         {20780, 475102, 0, 17262, 44}},
        {"nw", RfDesign::LTRF, 111343, 371808, 3.3393028749000835, 64,
         607552, 1340800, 987360, 598496, 20516, 299248, 308158,
         0, 0,
         {2.7282900586476027, 6.021034101829482,
          4.4338665205715673, 2.6876229309431219},
         {5916, 7711, 20936, 17789, 696}},
        {"nw", RfDesign::LTRF_PLUS, 112306, 371808, 3.3106690648763202, 64,
         458928, 1340800, 987360, 449872, 20516, 228072, 294617,
         0, 0,
         {2.043203390736025, 5.9694050184317842,
          4.3958470607091336, 2.0028849749790751},
         {6081, 8619, 21792, 20786, 518}},
        {"srad", RfDesign::BL, 267391, 380550, 1.42319674184995, 64,
         1365028, 0, 0, 0, 0, 0, 0,
         0, 0.32287786708488531,
         {2.5524942873918719, 0,
          0, 0},
         {16530, 663324, 0, 9148, 12}},
        {"srad", RfDesign::RFC, 223403, 380550, 1.7034238573340554, 64,
         857649, 1358248, 0, 0, 0, 286319, 0,
         0.43058147158202631, 0.32287786708488531,
         {1.9195109286804564, 3.039905462325931,
          0, 0},
         {15319, 483355, 0, 9442, 4946}},
        {"srad", RfDesign::LTRF, 109340, 380550, 3.4804280226815436, 64,
         579616, 1358248, 991450, 572836, 19108, 286418, 286808,
         0, 0.32287786708488531,
         {2.6505213096762392, 6.211121273093104,
          4.533793671117615, 2.6195171026156943},
         {4166, 7551, 13199, 11406, 1380}},
        {"srad", RfDesign::LTRF_PLUS, 108277, 380550, 3.5145968211162111,
         64,
         471497, 1358247, 991450, 464716, 19108, 237094, 269501,
         0, 0.32277984708880614,
         {2.1772721815343981, 6.2720937964664705,
          4.5783037948964234, 2.1459589755903838},
         {4336, 8058, 12306, 9632, 270}},
};

/** Simulate @p p's cell once; both tests share the result. */
const SimResult &
resultFor(const Pin &p)
{
    static std::map<std::tuple<std::string, RfDesign>, SimResult> memo;
    auto key = std::make_tuple(std::string(p.workload), p.design);
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    SimConfig cfg;
    applyRfConfig(cfg, rfConfig(6));
    cfg.design = p.design;
    cfg.num_sms = NUM_SMS;
    cfg.collect_stall_stats = true;
    SimResult r = simulate(cfg, WorkloadSuite::byName(p.workload).kernel,
                           SEED);
    return memo.emplace(key, std::move(r)).first->second;
}

/** Value of stat-tree line @p name, failing the test if absent. */
std::uint64_t
statLine(const SimResult &r, const std::string &name)
{
    for (const StatLine &l : r.stats_lines)
        if (l.name == name)
            return l.value;
    ADD_FAILURE() << "stat line " << name << " missing";
    return 0;
}

std::string
cellName(const ::testing::TestParamInfo<Pin> &info)
{
    std::string d = info.param.design == RfDesign::LTRF_PLUS
                            ? "LTRF_PLUS"
                            : rfDesignName(info.param.design);
    return std::string(info.param.workload) + "_" + d;
}

/** gtest prints a failing cell by name instead of its bytes. */
void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << p.workload << "/" << rfDesignName(p.design);
}

} // namespace

class IssuePath : public ::testing::TestWithParam<Pin>
{};

TEST_P(IssuePath, ResultMatchesPins)
{
    const Pin &p = GetParam();
    const SimResult &r = resultFor(p);
    EXPECT_EQ(r.cycles, p.cycles);
    EXPECT_EQ(r.instructions, p.instructions);
    EXPECT_EQ(r.ipc, p.ipc);
    EXPECT_EQ(r.resident_warps, p.resident_warps);
    EXPECT_EQ(r.main_accesses, p.main_accesses);
    EXPECT_EQ(r.cache_accesses, p.cache_accesses);
    EXPECT_EQ(r.wcb_accesses, p.wcb_accesses);
    EXPECT_EQ(r.xfer_regs, p.xfer_regs);
    EXPECT_EQ(r.prefetch_ops, p.prefetch_ops);
    EXPECT_EQ(r.writeback_regs, p.writeback_regs);
    EXPECT_EQ(r.prefetch_stall_cycles, p.prefetch_stall_cycles);
    EXPECT_EQ(r.cache_hit_rate, p.cache_hit_rate);
    EXPECT_EQ(r.l1d_hit_rate, p.l1d_hit_rate);
    EXPECT_EQ(r.activity.main_accesses_per_cycle,
              p.activity.main_accesses_per_cycle);
    EXPECT_EQ(r.activity.cache_accesses_per_cycle,
              p.activity.cache_accesses_per_cycle);
    EXPECT_EQ(r.activity.wcb_accesses_per_cycle,
              p.activity.wcb_accesses_per_cycle);
    EXPECT_EQ(r.activity.xfer_regs_per_cycle,
              p.activity.xfer_regs_per_cycle);
    ASSERT_TRUE(r.stall_collected);
    for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
        EXPECT_EQ(r.stall_total.stalls[c], p.stalls[c])
                << obs::stallCauseName(static_cast<obs::StallCause>(c));
}

TEST_P(IssuePath, AtMostOneCollectorWaitPerInstruction)
{
    const SimResult &r = resultFor(GetParam());
    for (int s = 0; s < NUM_SMS; s++) {
        const std::string sm = "sm" + std::to_string(s) + ".";
        const std::uint64_t waits =
                statLine(r, sm + "collector_wait.count");
        const std::uint64_t instructions =
                statLine(r, sm + "instructions");
        EXPECT_GT(instructions, 0u) << sm;
        EXPECT_LE(waits, instructions) << sm;
    }
}

INSTANTIATE_TEST_SUITE_P(CollectorBound, IssuePath,
                         ::testing::ValuesIn(PINS), cellName);
