/**
 * @file
 * `ltrf_dse` — the design-space exploration CLI.
 *
 * Exposes the parametric register file space (tech x banks x bank
 * size x network x cache x prefetch policy x active warps), a search
 * strategy with a point budget, and the IPC/energy/area Pareto
 * frontier:
 *
 *   ltrf_dse --strategy random --budget 200 --seed 7 --jobs 8 \
 *            --workloads sensitive --out frontier.json
 *
 * Axis flags take comma-separated lists and restrict the searched
 * space; restricting to the Table 2 axes and running `--strategy
 * grid` reproduces the paper's seven design points bit-identically
 * (they are anchor points of the parametric model). Output is
 * deterministic for a given seed regardless of --jobs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_num.hh"
#include "common/strutil.hh"
#include "dse/explorer.hh"
#include "harness/sweep.hh"
#include "obs/stats_json.hh"
#include "obs/trace_sink.hh"
#include "workloads/workload.hh"

using namespace ltrf;
using namespace ltrf::dse;

namespace
{

constexpr const char *USAGE = R"(usage: ltrf_dse [options]

Space bounds (comma-separated lists restrict each axis):
  --techs LIST       hp, lstp, tfet, dwm (default: all four)
  --banks LIST       bank-count multipliers, powers of two
                     (default: 1,2,4,8; 1x = 16 banks)
  --bank-sizes LIST  bank-size multipliers, powers of two
                     (default: 1,2,4,8; 1x = 16KB)
  --networks LIST    xbar, fbfly; or "auto" to pair crossbars with
                     1x banks and butterflies above (default: auto)
  --cache-kb LIST    register cache sizes in KB (default: 8,16,32)
  --policies LIST    none, rfc, shrf, strand, interval, interval+
                     (default: interval)
  --warps LIST       active warps per SM (default: 4,8,16)
  --intervals LIST   registers per interval, decoupled from the
                     cache partition; or "auto" to match each
                     point's per-warp cache partition (default:
                     auto)
  --collectors LIST  operand collectors per SM (default: 8)
  --dram-service LIST
                     DRAM data-bus cycles per 128B line at 24 SMs:
                     higher = less bandwidth (default: 1)

Search:
  --strategy S       grid | random | hill | evolve | halving
                     (default: grid)
  --budget N         max design points considered (screened points
                     count); required for random/hill, 0 = whole
                     space for grid and generations x population
                     for evolve/halving
  --shard I/N        restrict grid enumeration and all sampling to
                     the I-th of N balanced index-range stripes of
                     the space; merge shard reports by running the
                     next shard with --resume on the previous
                     shard's report (default: 0/1)
  --seed S           sampling + workload seed (default: 2018)
  --generations N    evolve: offspring generations after the initial
                     population; halving: screening rounds
                     (default: 8; 0 with --resume replays the saved
                     frontier without simulating)
  --population N     evolve population / halving per-round candidate
                     pool size (default: 16)
  --screen-workloads V
                     halving's low-fidelity screening subset: a
                     count N (the first N active workloads) or a
                     comma list of workload names (default: 2)
  --promote-frac F   halving's promotion fraction, applied at every
                     rung: ceil(F * rung pool) candidates (at least
                     one) advance to the next rung; F in (0, 1)
                     (default: 0.5)
  --rungs LIST       halving's rung schedule: per-rung workload
                     counts (each rung evaluates the first N active
                     workloads), strictly increasing, ending in
                     "all" — e.g. "2,6,all" screens pools on 2
                     workloads, promotes survivors to 6, then to
                     the full suite (default: the two-rung schedule
                     built from --screen-workloads). Excludes an
                     explicit --screen-workloads name list.
                     --screen-workloads, --promote-frac, and
                     --rungs require --strategy halving.
  --resume PATH      seed the frontier (and evolve's initial
                     population) from a saved ltrf_dse JSON report;
                     saved points are not re-simulated
  --hv-ref I,E,A     hypervolume reference point: minimum IPC,
                     maximum energy, maximum area
                     (default: 0,2,8)

Evaluation:
  --workloads LIST   all | sensitive | insensitive | name,name,...
                     (default: all)
  --sms N            SMs to simulate (default: 4)
  --jobs N           worker threads of the one simulation pool
                     every strategy admits its cells to; 0 = hardware
                     concurrency (default: 0); never changes the
                     results
  --cache-dir DIR    persistent simulation cache: every simulated
                     (config, workload) cell is stored in DIR keyed
                     by its content (sim key + workload + SM count +
                     seed + simulator version) and reused by later
                     runs instead of re-simulating; safe to share
                     between concurrent shards; never changes the
                     results (a repeated run writes a byte-identical
                     report while simulating zero cells)

Output:
  --out PATH         write the exploration report ("-" for stdout)
  --format F         json | csv (default: json)
  --quiet            suppress the frontier table
  --list             list axis values and workloads, then exit
  --help             show this message

Observability (stderr / a separate file; --out is unaffected):
  --trace PATH       record harness pool activity (per-worker cell
                     spans, baseline fills, batch commits, rung
                     promotions; wall-clock) as Chrome trace-event
                     JSON to PATH
  --progress         rate-limited stderr heartbeat of cells landed
                     vs submitted, plus a final pool summary
                     (includes cell-store hit/miss/store counters
                     when --cache-dir is active)
  --stats PATH       write the observability stat trees (the
                     cell_store group) as JSON to PATH
)";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "ltrf_dse: %s\n\n%s", msg.c_str(), USAGE);
    std::exit(2);
}

void
listTargets()
{
    std::printf("techs:     hp (HP SRAM), lstp (LSTP SRAM), "
                "tfet (TFET SRAM), dwm (DWM)\n");
    std::printf("networks:  xbar (Crossbar), fbfly (F. Butterfly), "
                "auto\n");
    std::printf("policies:  none (BL), rfc (RFC), shrf (SHRF), "
                "strand (LTRF strand), interval (LTRF),\n"
                "           interval+ (LTRF+)\n");
    std::printf("workloads: %s\n", WorkloadSuite::namesList().c_str());
    std::printf("axes:      ");
    bool first = true;
    for (const AxisDesc &ax : axisRegistry()) {
        std::printf("%s%s (%s)", first ? "" : ", ", ax.name,
                    ax.cli_flag);
        first = false;
    }
    std::printf("\n");
    const DesignSpace def = DesignSpace::defaults();
    std::printf("default space: %llu points\n",
                static_cast<unsigned long long>(def.size()));
}

struct Options
{
    DesignSpace space = DesignSpace::defaults();
    ExploreOptions explore;
    bool quiet = false;
    std::string out_path;
    harness::OutputFormat format = harness::OutputFormat::JSON;
    std::string trace_path;
    std::string stats_path;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;

    // Halving-only flags, remembered so a mismatch with the final
    // --strategy (which may appear anywhere on the line) is a usage
    // error instead of a silently ignored knob. --rungs and
    // --screen-workloads are likewise remembered jointly: the rung
    // schedule defines every screening subset, so combining them
    // would silently drop one (the count form leaves no trace in
    // ExploreOptions, so explore() cannot catch it).
    const char *halving_flag_seen = nullptr;
    bool saw_screen_workloads = false;
    bool saw_rungs = false;

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    // All numeric flags go through the checked common/ parsers: a
    // value outside the target range (e.g. --sms 4294967297, which
    // the old strtol + static_cast<int> silently wrapped to 1) is a
    // usage error naming the offending token, never a truncation.
    auto intValue = [&](int &i) {
        std::string v = value(i);
        int n = 0;
        if (!parseInt(v, n))
            usageError("bad integer \"" + v + "\"");
        return n;
    };
    auto intListFrom = [&](const std::string &v, const char *what) {
        std::vector<int> out;
        for (const std::string &s : harness::splitList(v)) {
            int n = 0;
            if (!parseInt(s, n))
                usageError("bad " + std::string(what) + " \"" + s +
                           "\"");
            out.push_back(n);
        }
        if (out.empty())
            usageError(std::string(what) + " list is empty");
        return out;
    };
    auto intList = [&](int &i, const char *what) {
        return intListFrom(value(i), what);
    };

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--techs") {
            opt.space.techs.clear();
            for (const std::string &s :
                 harness::splitList(value(i))) {
                CellTech t;
                if (!parseCellTech(s, t))
                    usageError("unknown tech \"" + s +
                               "\" (expected hp, lstp, tfet, dwm)");
                opt.space.techs.push_back(t);
            }
            if (opt.space.techs.empty())
                usageError("--techs list is empty");
        } else if (a == "--banks") {
            opt.space.banks = intList(i, "banks multiplier");
        } else if (a == "--bank-sizes") {
            opt.space.bank_sizes = intList(i, "bank-size multiplier");
        } else if (a == "--networks") {
            std::string v = value(i);
            opt.space.networks.clear();
            if (v != "auto") {
                for (const std::string &s : harness::splitList(v)) {
                    NetworkKind n;
                    if (!parseNetwork(s, n))
                        usageError("unknown network \"" + s +
                                   "\" (expected xbar, fbfly, auto)");
                    opt.space.networks.push_back(n);
                }
                if (opt.space.networks.empty())
                    usageError("--networks list is empty");
            }
        } else if (a == "--cache-kb") {
            opt.space.cache_kbs = intList(i, "cache size");
        } else if (a == "--policies") {
            opt.space.policies.clear();
            for (const std::string &s :
                 harness::splitList(value(i))) {
                PrefetchPolicy p;
                if (!parsePolicy(s, p))
                    usageError("unknown policy \"" + s +
                               "\" (expected none, rfc, shrf, "
                               "strand, interval, interval+)");
                opt.space.policies.push_back(p);
            }
            if (opt.space.policies.empty())
                usageError("--policies list is empty");
        } else if (a == "--warps") {
            opt.space.warps = intList(i, "warp count");
        } else if (a == "--intervals") {
            std::string v = value(i);
            opt.space.intervals.clear();
            if (v != "auto")
                opt.space.intervals =
                        intListFrom(v, "interval length");
        } else if (a == "--collectors") {
            opt.space.collectors =
                    intList(i, "operand collector count");
        } else if (a == "--dram-service") {
            opt.space.dram_service =
                    intList(i, "DRAM service-cycle scale");
        } else if (a == "--shard") {
            // Parse each side of I/N independently so the error can
            // name the token that is actually malformed (the old
            // combined strtol walk collapsed every failure into one
            // message and left idx = -1 behind on a bad index).
            std::string v = value(i);
            const std::size_t slash = v.find('/');
            if (slash == std::string::npos)
                usageError("bad --shard \"" + v +
                           "\" (expected I/N with 0 <= I < N)");
            const std::string idx_tok = v.substr(0, slash);
            const std::string cnt_tok = v.substr(slash + 1);
            int idx = 0, cnt = 0;
            if (!parseInt(idx_tok, idx) || idx < 0)
                usageError("bad --shard index \"" + idx_tok +
                           "\" (expected an integer 0 <= I < N)");
            if (!parseInt(cnt_tok, cnt) || cnt < 1)
                usageError("bad --shard count \"" + cnt_tok +
                           "\" (expected an integer N >= 1)");
            if (idx >= cnt)
                usageError("--shard index " + idx_tok +
                           " out of range (need I < " + cnt_tok +
                           ")");
            opt.explore.shard_index = idx;
            opt.explore.shard_count = cnt;
        } else if (a == "--promote-frac") {
            halving_flag_seen = "--promote-frac";
            std::string v = value(i);
            double f = 0.0;
            if (!parseDouble(v, f) || !(f > 0.0 && f < 1.0))
                usageError("--promote-frac must be a number in "
                           "(0, 1), got \"" + v + "\"");
            opt.explore.promote_frac = f;
        } else if (a == "--rungs") {
            halving_flag_seen = "--rungs";
            saw_rungs = true;
            std::string v = value(i);
            opt.explore.rungs.clear();
            for (const std::string &s : harness::splitList(v)) {
                if (lowered(s) == "all") {
                    opt.explore.rungs.push_back(0);
                    continue;
                }
                int n = 0;
                if (!parseInt(s, n) || n < 1)
                    usageError("bad rung \"" + s + "\" (expected a "
                               "workload count >= 1 or \"all\")");
                opt.explore.rungs.push_back(n);
            }
            if (opt.explore.rungs.size() < 2)
                usageError("--rungs needs at least two fidelity "
                           "levels, e.g. \"2,all\"");
        } else if (a == "--strategy") {
            std::string v = value(i);
            if (!parseStrategy(v, opt.explore.strategy))
                usageError("unknown strategy \"" + v +
                           "\" (expected grid, random, hill, "
                           "evolve, halving)");
        } else if (a == "--generations") {
            opt.explore.generations = intValue(i);
            if (opt.explore.generations < 0)
                usageError("--generations must be >= 0");
        } else if (a == "--population") {
            opt.explore.population = intValue(i);
            if (opt.explore.population < 2)
                usageError("--population must be >= 2");
        } else if (a == "--screen-workloads") {
            halving_flag_seen = "--screen-workloads";
            saw_screen_workloads = true;
            std::string v = value(i);
            int n = 0;
            opt.explore.screen_workloads.clear();
            if (parseInt(v, n)) {
                if (n < 1)
                    usageError("--screen-workloads count must be "
                               ">= 1");
                opt.explore.screen_count = n;
            } else {
                for (const std::string &w : harness::splitList(v)) {
                    if (!WorkloadSuite::find(w))
                        usageError("unknown screening workload \"" +
                                   w + "\" (valid names: " +
                                   WorkloadSuite::namesList() + ")");
                    opt.explore.screen_workloads.push_back(w);
                }
                if (opt.explore.screen_workloads.empty())
                    usageError("--screen-workloads list is empty");
            }
        } else if (a == "--resume") {
            opt.explore.resume = loadFrontierFile(value(i));
        } else if (a == "--hv-ref") {
            std::vector<std::string> parts =
                    harness::splitList(value(i));
            if (parts.size() != 3)
                usageError("--hv-ref needs three comma-separated "
                           "numbers: ipc,energy,area");
            double v3[3];
            for (int k = 0; k < 3; k++) {
                if (!parseDouble(parts[k], v3[k]))
                    usageError("bad --hv-ref number \"" + parts[k] +
                               "\"");
            }
            opt.explore.hv_ref.ipc = v3[0];
            opt.explore.hv_ref.energy = v3[1];
            opt.explore.hv_ref.area = v3[2];
        } else if (a == "--budget") {
            // The budget is a uint64 all the way through (it caps a
            // count of admitted points): a value above int range is
            // a large budget, not a parse error, and certainly not
            // the silent int wrap (--budget 4294967297 == 1) the old
            // int-typed parse produced.
            std::string v = value(i);
            if (!parseUint64(v, opt.explore.budget))
                usageError("bad --budget \"" + v +
                           "\" (expected an integer >= 0)");
        } else if (a == "--seed") {
            std::string v = value(i);
            if (!parseUint64(v, opt.explore.seed))
                usageError("bad seed \"" + v + "\"");
        } else if (a == "--workloads") {
            std::string v = value(i);
            // Selectors resolve like ltrf_run's; explicit names get
            // a CLI-grade error via WorkloadSuite::find().
            if (v == "all" || v == "sensitive" ||
                v == "insensitive") {
                opt.explore.workloads = harness::resolveWorkloads(v);
            } else {
                for (const std::string &n : harness::splitList(v)) {
                    if (!WorkloadSuite::find(n))
                        usageError("unknown workload \"" + n +
                                   "\" (valid names: " +
                                   WorkloadSuite::namesList() + ")");
                    opt.explore.workloads.push_back(n);
                }
                if (opt.explore.workloads.empty())
                    usageError("--workloads list is empty");
            }
        } else if (a == "--sms") {
            opt.explore.num_sms = intValue(i);
            if (opt.explore.num_sms < 1)
                usageError("--sms must be >= 1");
        } else if (a == "--jobs") {
            opt.explore.jobs = intValue(i);
            if (opt.explore.jobs < 0)
                usageError("--jobs must be >= 0 (0 = hardware "
                           "concurrency)");
        } else if (a == "--cache-dir") {
            opt.explore.cache_dir = value(i);
            if (opt.explore.cache_dir.empty())
                usageError("--cache-dir needs a directory path");
        } else if (a == "--stats") {
            opt.stats_path = value(i);
        } else if (a == "--out") {
            opt.out_path = value(i);
        } else if (a == "--format") {
            std::string v = value(i);
            if (!harness::parseOutputFormat(v, opt.format))
                usageError("unknown format \"" + v +
                           "\" (expected json or csv)");
        } else if (a == "--trace") {
            opt.trace_path = value(i);
        } else if (a == "--progress") {
            opt.explore.progress = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--list") {
            listTargets();
            std::exit(0);
        } else if (a == "--help" || a == "-h") {
            std::fputs(USAGE, stdout);
            std::exit(0);
        } else {
            usageError("unknown option \"" + a + "\"");
        }
    }
    if (halving_flag_seen &&
        opt.explore.strategy != Strategy::HALVING)
        usageError(std::string(halving_flag_seen) + " only applies "
                   "to --strategy halving (got --strategy " +
                   strategyName(opt.explore.strategy) +
                   "); the flag would be silently ignored");
    if (saw_rungs && saw_screen_workloads)
        usageError("--rungs and --screen-workloads are mutually "
                   "exclusive (the rung schedule defines every "
                   "screening subset)");
    return opt;
}

void
printFrontier(const DseResult &res)
{
    std::printf("%-28s %4s %6s %6s %8s | %7s %7s %7s\n", "design",
                "cfg", "cap", "banks", "latency", "IPC", "energy",
                "area");
    for (std::size_t i = 0; i < 28 + 4 + 6 + 6 + 8 + 3 + 7 * 3 + 6;
         i++)
        std::printf("-");
    std::printf("\n");
    for (int idx : res.frontier) {
        const PointResult &pr =
                res.evaluated[static_cast<std::size_t>(idx)];
        std::printf("%-28s %4d %5.0fx %5dx %7.2fx | %7.3f %7.3f "
                    "%7.3f\n",
                    pr.point.key().c_str(), pr.model.id,
                    pr.model.capacity, pr.point.banks_mult,
                    pr.model.latency, pr.obj.ipc, pr.obj.energy,
                    pr.obj.area);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    // The trace sink rides through ExploreOptions; the --out report
    // is byte-identical with or without it.
    std::unique_ptr<obs::TraceSink> sink;
    if (!opt.trace_path.empty()) {
        sink = std::make_unique<obs::TraceSink>();
        opt.explore.trace = sink.get();
    }

    const auto t0 = std::chrono::steady_clock::now();
    DseResult res = explore(opt.space, opt.explore);
    const double secs =
            std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

    if (!opt.quiet) {
        std::printf("%s search: %zu points evaluated (of %llu in "
                    "space), %llu sim reuses, %llu cells simulated, "
                    "%.1fs\n",
                    strategyName(res.strategy), res.evaluated.size(),
                    static_cast<unsigned long long>(res.space_size),
                    static_cast<unsigned long long>(res.sim_reuse),
                    static_cast<unsigned long long>(res.sim_cells),
                    secs);
        if (res.screened)
            std::printf("%llu screened on {%s}\n",
                        static_cast<unsigned long long>(res.screened),
                        joined(res.screen_workloads).c_str());
        for (std::size_t k = 0; k < res.rungs.size(); k++)
            std::printf("  rung %zu (%2d workloads): %3llu in, "
                        "%3llu promoted\n",
                        k, res.rungs[k],
                        static_cast<unsigned long long>(
                                res.rung_screened[k]),
                        static_cast<unsigned long long>(
                                res.rung_promoted[k]));
        if (res.resumed)
            std::printf("%llu points resumed without "
                        "re-simulation\n",
                        static_cast<unsigned long long>(res.resumed));
        if (res.progress.size() > 1)
            for (const DseResult::GenStat &s : res.progress)
                std::printf("  gen %2d: %3llu evaluated, frontier "
                            "%2llu, hypervolume %.4f\n",
                            s.gen,
                            static_cast<unsigned long long>(
                                    s.evaluated),
                            static_cast<unsigned long long>(
                                    s.frontier_size),
                            s.hypervolume);
        std::printf("Pareto frontier: %zu points (IPC vs energy vs "
                    "area), hypervolume %.4f\n\n",
                    res.frontier.size(), res.hv);
        printFrontier(res);
    }

    if (!opt.out_path.empty())
        harness::writeTextFile(opt.out_path, res.dumpAs(opt.format));
    if (!opt.stats_path.empty()) {
        // The observability stat trees (currently the cell_store
        // group) as their own schema-versioned document — a side
        // channel like --trace, so --out stays byte-identical with
        // or without it.
        harness::Json doc = harness::Json::object();
        doc.set("ltrf_stats_schema", obs::STATS_SCHEMA_VERSION);
        doc.set("stats", obs::statsTreeToJson(res.stats_lines));
        harness::writeTextFile(opt.stats_path, doc.dump(2) + "\n");
    }
    if (sink)
        sink->write(opt.trace_path);
    return 0;
}
