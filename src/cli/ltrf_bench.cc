/**
 * @file
 * `ltrf_bench` — simulator performance benchmark and regression gate.
 *
 * Two modes:
 *
 *   Measure:  ltrf_bench --suites default,quick --out BENCH_NNNN.json
 *             times the canonical hot path (the default workload
 *             suite x {BL, RFC, LTRF, LTRF+} at rf-config #6 and
 *             fixed seeds) and emits a schema-versioned JSON report
 *             with suite cells/s and per-design instr/s.
 *
 *   Compare:  ltrf_bench --compare BENCH_old.json fresh.json \
 *                        --tolerance 0.25
 *             exits nonzero when a shared suite simulated different
 *             work (spec, or any design's exact instructions or
 *             simulated cycles) or when its cells/s or any design's
 *             instr/s fell below old * (1 - tolerance) — the CI gate
 *             against changed results and gross slowdowns.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_num.hh"
#include "harness/bench.hh"
#include "harness/emit.hh"
#include "harness/sweep.hh"

using namespace ltrf;
using namespace ltrf::harness;

namespace
{

constexpr const char *USAGE = R"(usage: ltrf_bench [options]

Measure (default mode):
  --suites LIST      comma-separated suites: default, quick
                     (default: default)
  --quick            shorthand for --suites quick
  --reps N           timing repetitions per cell, fastest kept
                     (default: 1)
  --prior PATH       annotate each suite with its speedup relative
                     to the matching suite in PATH
  --out PATH         write the JSON report to PATH ("-" for stdout)
  --quiet            suppress the throughput summary table

Compare:
  --compare OLD NEW  compare two reports; exit 1 if a shared suite's
                     spec or exact instruction/cycle counts differ,
                     or if NEW regressed
  --tolerance T      allowed fractional slowdown before a rate
                     counts as regressed (default: 0.25)

  --help             show this message
)";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "ltrf_bench: %s\n\n%s", msg.c_str(), USAGE);
    std::exit(2);
}

struct Options
{
    std::vector<std::string> suites;
    int reps = 1;
    std::string prior_path;
    std::string out_path;
    bool quiet = false;

    bool compare = false;
    std::string old_path;
    std::string new_path;
    double tolerance = 0.25;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::string suites = "default";

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--suites") {
            suites = value(i);
        } else if (a == "--quick") {
            suites = "quick";
        } else if (a == "--reps") {
            std::string v = value(i);
            int n = 0;
            if (!parseInt(v, n) || n < 1)
                usageError("bad --reps \"" + v + "\"");
            opt.reps = n;
        } else if (a == "--prior") {
            opt.prior_path = value(i);
        } else if (a == "--out") {
            opt.out_path = value(i);
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--compare") {
            opt.compare = true;
            opt.old_path = value(i);
            opt.new_path = value(i);
        } else if (a == "--tolerance") {
            std::string v = value(i);
            if (!parseDouble(v, opt.tolerance) ||
                opt.tolerance < 0.0 || opt.tolerance >= 1.0)
                usageError("bad --tolerance \"" + v +
                           "\" (expected [0, 1))");
        } else if (a == "--help" || a == "-h") {
            std::fputs(USAGE, stdout);
            std::exit(0);
        } else {
            usageError("unknown option \"" + a + "\"");
        }
    }

    if (opt.compare) {
        if (!opt.prior_path.empty() || !opt.out_path.empty() ||
            opt.reps != 1)
            usageError("--compare takes no measure-mode options");
        return opt;
    }
    opt.suites = splitList(suites);
    if (opt.suites.empty())
        usageError("--suites needs at least one suite name");
    return opt;
}

BenchReport
loadReport(const std::string &path)
{
    return BenchReport::fromJson(Json::parse(readTextFile(path)));
}

int
runCompare(const Options &opt)
{
    BenchReport baseline = loadReport(opt.old_path);
    BenchReport fresh = loadReport(opt.new_path);
    std::string old_host = baseline.machine.stringOr("host", "?");
    std::string new_host = fresh.machine.stringOr("host", "?");
    if (old_host != new_host)
        std::fprintf(stderr,
                     "ltrf_bench: note: comparing across machines "
                     "(%s vs %s); wall-clock rates are only "
                     "meaningful against a generous tolerance\n",
                     old_host.c_str(), new_host.c_str());

    const BenchComparison cmp =
            compareBench(baseline, fresh, opt.tolerance);
    for (const BenchSuiteResult &old_s : baseline.suites) {
        const BenchSuiteResult *new_s = fresh.find(old_s.spec.name);
        if (!new_s)
            continue;
        std::printf("suite %-8s cells/s %10.3f -> %10.3f  (%.2fx)\n",
                    old_s.spec.name.c_str(), old_s.cells_per_s,
                    new_s->cells_per_s,
                    old_s.cells_per_s > 0.0
                            ? new_s->cells_per_s / old_s.cells_per_s
                            : 0.0);
    }
    if (cmp.ok()) {
        std::printf("same simulated work; no regression beyond "
                    "tolerance %.2f\n",
                    opt.tolerance);
        return 0;
    }
    for (const BenchMismatch &m : cmp.mismatches)
        std::fprintf(stderr, "MISMATCH: %s %s: %s -> %s\n",
                     m.suite.c_str(), m.field.c_str(),
                     m.old_value.c_str(), m.new_value.c_str());
    if (!cmp.mismatches.empty())
        std::fprintf(stderr,
                     "ltrf_bench: %zu field(s) differ: the reports "
                     "simulated different work, whatever the "
                     "tolerance\n",
                     cmp.mismatches.size());
    for (const BenchRegression &r : cmp.regressions) {
        const double allowed = r.old_value * (1.0 - opt.tolerance);
        const double drop =
                r.old_value > 0.0
                        ? (1.0 - r.new_value / r.old_value) * 100.0
                        : 0.0;
        std::fprintf(stderr,
                     "REGRESSION: %s %s: %.3f -> %.3f (%.2fx, "
                     "-%.1f%%; allowed floor %.3f at tolerance "
                     "%.2f)\n",
                     r.suite.c_str(), r.metric.c_str(), r.old_value,
                     r.new_value, r.ratio, drop, allowed,
                     opt.tolerance);
    }
    if (!cmp.regressions.empty())
        std::fprintf(stderr,
                     "ltrf_bench: %zu metric(s) regressed beyond "
                     "tolerance %.2f (see REGRESSION lines above)\n",
                     cmp.regressions.size(), opt.tolerance);
    return 1;
}

int
runMeasure(const Options &opt)
{
    BenchReport report;
    report.machine = machineInfo();
    for (const std::string &name : opt.suites) {
        BenchSuiteSpec spec = benchSuite(name);
        spec.reps = opt.reps;
        if (!opt.quiet)
            std::printf("running suite %s: %zu workloads x %zu "
                        "designs, %d SMs, %d rep(s)...\n",
                        name.c_str(), spec.workloads.size(),
                        spec.designs.size(), spec.num_sms, spec.reps);
        BenchSuiteResult r = runBenchSuite(spec);
        if (!opt.quiet) {
            std::printf("  %d cells in %.2fs — %.3f cells/s, "
                        "%.3g instr/s, %.3g sim cycles/s\n",
                        r.cells, r.wall_s, r.cells_per_s,
                        r.instr_per_s, r.sim_cycles_per_s);
            for (const BenchDesignResult &d : r.designs)
                std::printf("    %-12s %2d cells  %8.2fs  "
                            "%.3g instr/s\n",
                            rfDesignName(d.design), d.cells, d.wall_s,
                            d.instr_per_s);
        }
        report.suites.push_back(std::move(r));
    }

    if (!opt.prior_path.empty()) {
        report.annotateSpeedup(loadReport(opt.prior_path));
        if (!opt.quiet) {
            for (const BenchSuiteResult &s : report.suites)
                if (s.speedup > 0.0)
                    std::printf("suite %-8s speedup vs prior: "
                                "%.2fx\n",
                                s.spec.name.c_str(), s.speedup);
        }
    }

    if (!opt.out_path.empty())
        writeTextFile(opt.out_path, report.toJson().dump(2) + "\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    return opt.compare ? runCompare(opt) : runMeasure(opt);
}
