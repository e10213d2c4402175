/**
 * @file
 * Simulator performance benchmark harness (`ltrf_bench`).
 *
 * Times the canonical hot path — every DSE cell runs `src/sim/`
 * end-to-end, so cells/sec multiplies everything the exploration
 * engine does — over fixed, named suites: the default workload suite
 * x {BL, RFC, LTRF, LTRF+} at rf-config #6 and fixed seeds, plus a
 * small "quick" suite sized for CI. Results serialize to a
 * schema-versioned BENCH_*.json (machine info, per-design instr/s
 * and simulated cycles/s, suite cells/s, wall time) so the perf
 * trajectory persists across PRs, and a comparator flags gross
 * regressions against a committed baseline.
 *
 * Wall-clock numbers are machine-dependent by nature; the comparator
 * is a gate against *gross* regressions (2x slowdowns merging
 * unnoticed), not a precision instrument, and callers pick a
 * generous tolerance accordingly.
 */

#ifndef LTRF_HARNESS_BENCH_HH
#define LTRF_HARNESS_BENCH_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/json.hh"

namespace ltrf::harness
{

/** Current BENCH_*.json schema version. */
constexpr int BENCH_SCHEMA_VERSION = 1;

/** One named, fixed benchmark suite. */
struct BenchSuiteSpec
{
    std::string name;
    std::vector<std::string> workloads;
    std::vector<RfDesign> designs;
    int rf_cfg_id = 6;      ///< Table 2 row every cell applies
    int num_sms = 4;
    std::uint64_t seed = 2018;
    /** Timing repetitions per cell; the fastest one is kept. */
    int reps = 1;
};

/**
 * Look a suite up by name ("default" or "quick"); fatal() on an
 * unknown name. "default" is the full 14-workload suite x
 * {BL, RFC, LTRF, LTRF+}; "quick" is a 4-workload subset at 2 SMs,
 * sized so CI can afford it on every push.
 */
BenchSuiteSpec benchSuite(const std::string &name);

/** Names benchSuite() accepts, comma-separated (for messages). */
std::string benchSuiteNames();

/** Throughput of one register file design across a suite. */
struct BenchDesignResult
{
    RfDesign design = RfDesign::BL;
    int cells = 0;
    std::uint64_t instructions = 0; ///< simulated instructions
    std::uint64_t sim_cycles = 0;   ///< simulated core cycles
    double wall_s = 0.0;
    double instr_per_s = 0.0;       ///< simulated instr / wall sec
    double sim_cycles_per_s = 0.0;  ///< simulated cycles / wall sec
};

/** Aggregate result of one suite run. */
struct BenchSuiteResult
{
    BenchSuiteSpec spec;
    int cells = 0;
    std::uint64_t instructions = 0;
    std::uint64_t sim_cycles = 0;
    double wall_s = 0.0;
    double cells_per_s = 0.0;
    double instr_per_s = 0.0;
    double sim_cycles_per_s = 0.0;
    std::vector<BenchDesignResult> designs;
    /**
     * Optional trajectory annotation (annotateSpeedup()): the prior
     * report's cells/s for this suite and the measured ratio.
     */
    double prior_cells_per_s = 0.0;
    double speedup = 0.0;
};

/** A full report: machine context plus one entry per suite run. */
struct BenchReport
{
    int schema = BENCH_SCHEMA_VERSION;
    Json machine;
    std::vector<BenchSuiteResult> suites;

    Json toJson() const;
    static BenchReport fromJson(const Json &j);

    /** Suite result by name, or nullptr. */
    const BenchSuiteResult *find(const std::string &name) const;

    /**
     * Record each matching suite's speedup relative to @p prior
     * (prior_cells_per_s and speedup fields).
     */
    void annotateSpeedup(const BenchReport &prior);
};

/**
 * Run @p spec's cells serially (timing wants an unloaded machine,
 * not pool throughput) and aggregate throughput per design and for
 * the whole suite.
 */
BenchSuiteResult runBenchSuite(const BenchSuiteSpec &spec);

/** Host context a report was measured on (hostname, cpus, compiler). */
Json machineInfo();

/** One metric that regressed beyond the comparator's tolerance. */
struct BenchRegression
{
    std::string suite;
    std::string metric;
    double old_value = 0.0;
    double new_value = 0.0;
    double ratio = 0.0;     ///< new / old
};

/**
 * A field that must match exactly but does not: the two reports
 * simulated different work, so their rates are not comparable.
 */
struct BenchMismatch
{
    std::string suite;
    /** Spec field ("workloads", "designs", "rf_config", "sms",
     *  "seed") or exact count ("instructions[BL]", "sim_cycles[BL]"). */
    std::string field;
    std::string old_value;
    std::string new_value;
};

/** Outcome of compareBench(); ok() when the fresh report passes. */
struct BenchComparison
{
    std::vector<BenchMismatch> mismatches;
    std::vector<BenchRegression> regressions;

    bool ok() const { return mismatches.empty() && regressions.empty(); }
};

/**
 * Compare every suite present in both reports. Each shared suite's
 * spec (workloads, designs, rf-config, SM count, seed; not reps) must
 * match, and then each design's simulated instructions and cycles
 * must match exactly, whatever @p tolerance is. Only then are rates
 * gated: the suite's cells/s and each design's instr/s must not fall
 * below old * (1 - tolerance). A suite whose spec differs is not
 * compared further. fatal() when the reports share no suite.
 */
BenchComparison compareBench(const BenchReport &baseline,
                             const BenchReport &fresh, double tolerance);

} // namespace ltrf::harness

#endif // LTRF_HARNESS_BENCH_HH
