/**
 * @file
 * perfbench_driver — measures one benchmark workload against the LTRF
 * library and prints one JSON line of raw results (run.py adds set-up
 * time and peak memory, checks pinned digests, and prints the final
 * result line).
 *
 *   perfbench_driver setup WORKLOAD --dir DIR [common options]
 *   perfbench_driver run   WORKLOAD --dir DIR [common options]
 *
 *   --seed N      workload seed (cell-sweep trace seed; default 2018)
 *   --seconds S   length of the timed region (default 10)
 *   --trace 0|1   1 = per-layer pass with spans (default 0)
 *   --jobs N      explorer pool threads (default: nproc)
 *   --trace-out P write the spans of a traced pass to P
 *   --tiny        a small cell set, for the self-test
 *
 * Workloads:
 *   cell-sweep  serial Gpu construction + Gpu::run over 14 kernels x
 *               {BL, RFC, LTRF, LTRF+} at rf-config 6 and 4 SMs,
 *               with the cells also served warm from a CellStore.
 *   dse-search  `--strategy random --budget 8` explorations of the
 *               default space, each against a cold cell store, with
 *               serial warm explore() calls (replays: no cell is
 *               simulated) against a filled store between them.
 *
 * Layers are timed from outside: every span wraps one of the
 * benchmark's own calls into a public entry point.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parse_num.hh"
#include "compiler/verify.hh"
#include "core/compile.hh"
#include "dse/cell_store.hh"
#include "dse/explorer.hh"
#include "dse/hypervolume.hh"
#include "harness/emit.hh"
#include "harness/json.hh"
#include "harness/result_set.hh"
#include "harness/sweep.hh"
#include "obs/trace_sink.hh"
#include "sim/gpu.hh"
#include "tech/energy_model.hh"
#include "tech/rf_config.hh"
#include "workloads/workload.hh"

#include "spans.hh"

using namespace ltrf;
using harness::Json;
using perfbench::Scope;
using perfbench::SpanRecorder;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

/** dse-search explores one fixed random sample (see README). */
constexpr std::uint64_t DSE_SEED = 2018;
/**
 * Warm passes over the sweep's stored cells after each untraced sweep
 * cell, and the least number of warm explore() calls in a dse-search:
 * enough samples for a steady p10.
 */
constexpr int WARM_PASSES_PER_CELL = 3;
constexpr int WARM_EXPLORES = 500;
/** Warm passes of a traced cell-sweep (a fixed count, so the store
 *  counters it reports are exact). */
constexpr int TRACED_WARM_PASSES = 30;
/**
 * Untraced cell-sweep passes, at least. Each cell reports its fastest
 * pass, as `ltrf_bench --reps` does: the shared host runs for tens of
 * seconds at a time 1.5-1.9x slower, and a later pass often misses
 * such a stretch that swallowed an earlier one (the spread of ten
 * runs' cells_per_s was 0.33 with one pass, 0.10 with two).
 */
constexpr std::size_t MIN_SWEEP_PASSES = 3;
/**
 * Sweep cells simulated untimed before the timed region, as set-up
 * (about 0.8 s): the first cells of a process run measurably slower
 * than the rest, and a bare process start (3 ms) drifted by up to 50%
 * between sets of runs, too much for a set-up time to compare. Eight
 * cells (0.1 s) fell on one or the other of the host's two speed
 * levels, 40% apart; sixteen span several of its phases.
 */
constexpr std::size_t WARMUP_CELLS = 16;
/** Explorations that only replay stored cells run serially: every
 *  cell is a ~10 us load, so a pool adds only its thread start-up,
 *  and on a shared host the tail of that start-up. */
constexpr int WARM_JOBS = 1;

/** Warm explore() calls in a traced dse-search, untraced and traced
 *  each. */
constexpr int TRACED_REPLAYS = 40;

const std::vector<RfDesign> SWEEP_DESIGNS = {
        RfDesign::BL, RfDesign::RFC, RfDesign::LTRF, RfDesign::LTRF_PLUS};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
}

/** Continued fraction of the incomplete beta function. */
double
betacf(double a, double b, double x)
{
    constexpr double EPS = 1e-14, TINY = 1e-300;
    auto clamp = [](double v) { return std::fabs(v) < TINY ? TINY : v; };
    double c = 1.0;
    double d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 100000; m++) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
        d = 1.0 / clamp(1.0 + aa * d);
        c = clamp(1.0 + aa / c);
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
        d = 1.0 / clamp(1.0 + aa * d);
        c = clamp(1.0 + aa / c);
        h *= d * c;
        if (std::fabs(d * c - 1.0) < EPS)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
ibeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double front =
            std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                     a * std::log(x) + b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betacf(a, b, x) / a;
    return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

/**
 * Harrell-Davis estimate of quantile @p q of @p v (0 when empty): a
 * Beta-weighted mean of the order statistics. Cell times cluster by
 * kernel, and a plain order statistic jumps between clusters from run
 * to run; the weighted mean moves smoothly.
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
    double est = 0.0, prev = 0.0;
    for (std::size_t i = 0; i < v.size(); i++) {
        const double cdf = ibeta(a, b, static_cast<double>(i + 1) / n);
        est += (cdf - prev) * v[i];
        prev = cdf;
    }
    return est;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of every numeric SimResult field a cell store persists. */
std::string
resultDigest(const SimResult &r)
{
    char buf[640];
    std::snprintf(
            buf, sizeof(buf),
            "%llu|%llu|%.17g|%d|%llu|%llu|%llu|%llu|%llu|%llu|%llu|"
            "%.17g|%.17g|%.17g|%.17g|%.17g|%.17g",
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.instructions), r.ipc,
            r.resident_warps,
            static_cast<unsigned long long>(r.main_accesses),
            static_cast<unsigned long long>(r.cache_accesses),
            static_cast<unsigned long long>(r.wcb_accesses),
            static_cast<unsigned long long>(r.xfer_regs),
            static_cast<unsigned long long>(r.prefetch_ops),
            static_cast<unsigned long long>(r.writeback_regs),
            static_cast<unsigned long long>(r.prefetch_stall_cycles),
            r.cache_hit_rate, r.l1d_hit_rate,
            r.activity.main_accesses_per_cycle,
            r.activity.cache_accesses_per_cycle,
            r.activity.wcb_accesses_per_cycle,
            r.activity.xfer_regs_per_cycle);
    return hex64(fnv1a(buf));
}

/** Metric-name suffix of a sweep design ("LTRF+" -> "LTRF_PLUS"). */
std::string
designKey(RfDesign d)
{
    return d == RfDesign::LTRF_PLUS ? "LTRF_PLUS" : rfDesignName(d);
}

/**
 * Failed tryIssue() attempts on the scoreboard. Not in the SM stat
 * tree; read from Sm::pipeStats() while that accessor exists, so the
 * benchmark still builds (reporting 0) once it is removed.
 */
template <class SmT>
std::uint64_t
scoreboardFails(const SmT &sm)
{
    if constexpr (requires { sm.pipeStats().dep_stalls; })
        return sm.pipeStats().dep_stalls;
    else
        return 0;
}

// ----- options -------------------------------------------------------

struct Options
{
    std::string mode;
    std::string workload;
    std::string dir;
    std::string trace_out;
    std::uint64_t seed = 2018;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 0;
    bool tiny = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "setup|run cell-sweep|dse-search --dir DIR "
                 "[--seed N] [--seconds S] [--trace 0|1] [--jobs N] "
                 "[--trace-out PATH] [--tiny]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        usage("missing mode or workload");
    Options o;
    o.mode = argv[1];
    o.workload = argv[2];
    if (o.mode != "setup" && o.mode != "run")
        usage("unknown mode \"" + o.mode + "\"");
    if (o.workload != "cell-sweep" && o.workload != "dse-search")
        usage("unknown workload \"" + o.workload + "\"");
    for (int i = 3; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--dir") {
            o.dir = value();
        } else if (a == "--seed") {
            const std::string v = value();
            if (!parseUint64(v, o.seed))
                usage("bad --seed \"" + v + "\"");
        } else if (a == "--seconds") {
            const std::string v = value();
            if (!parseDouble(v, o.seconds) || o.seconds <= 0.0)
                usage("bad --seconds \"" + v + "\"");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("bad --trace \"" + v + "\"");
            o.trace = v == "1";
        } else if (a == "--jobs") {
            const std::string v = value();
            if (!parseInt(v, o.jobs) || o.jobs < 1)
                usage("bad --jobs \"" + v + "\"");
        } else if (a == "--trace-out") {
            o.trace_out = value();
        } else if (a == "--tiny") {
            o.tiny = true;
        } else {
            usage("unknown option \"" + a + "\"");
        }
    }
    if (o.dir.empty())
        usage("--dir is required");
    if (o.jobs == 0)
        o.jobs = static_cast<int>(std::thread::hardware_concurrency());
    return o;
}

// ----- output --------------------------------------------------------

/** Raw result of one driver invocation, printed as one JSON line. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        Json m = Json::object();
        m.set("value", value);
        m.set("unit", unit);
        metrics.set(name, std::move(m));
    }

    /** Count one checked output; record it when it is wrong. */
    void
    check(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            if (failures.size() < 20)
                failures.push(what);
        }
    }

    void digest(const std::string &key, const std::string &d)
    {
        digests.set(key, d);
    }

    void extra(const std::string &key, Json v) { extras.set(key, v); }

    void
    print(const Json &machine) const
    {
        Json j = Json::object();
        j.set("machine", machine);
        j.set("attempted", attempted);
        j.set("failed", failed);
        j.set("failures", failures);
        j.set("digests", digests);
        j.set("metrics", metrics);
        j.set("extra", extras);
        std::printf("%s\n", j.dump().c_str());
    }

  private:
    Json metrics = Json::object();
    Json digests = Json::object();
    Json extras = Json::object();
    Json failures = Json::array();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Host and build context; every result carries it. */
Json
machineInfo(int jobs)
{
    Json m = Json::object();
    m.set("nproc", static_cast<std::uint64_t>(
                           std::thread::hardware_concurrency()));
    m.set("jobs", jobs);
#if defined(__clang__)
    m.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    m.set("compiler", std::string("gcc ") + __VERSION__);
#else
    m.set("compiler", "unknown");
#endif
    m.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
    m.set("ndebug", true);
#else
    m.set("ndebug", false);
#endif
    return m;
}

/** Reason the numbers would mean nothing, or "" when they are valid. */
std::string
invalidReason(int jobs)
{
#ifndef NDEBUG
    (void)jobs;
    return "assertions are on (NDEBUG undefined): timings would not "
           "describe a release build";
#else
    const unsigned nproc = std::thread::hardware_concurrency();
    if (nproc > 0 && static_cast<unsigned>(jobs) > nproc)
        return "--jobs " + std::to_string(jobs) + " exceeds nproc " +
               std::to_string(nproc);
    return "";
#endif
}

/**
 * Per-layer values of a traced pass. A layer the workload bypasses
 * keeps its zeros: it did no work there.
 */
struct Layers
{
    double suite_build_ms = 0.0;

    double static_us = 0.0, trace_us = 0.0, verify_us = 0.0;
    std::uint64_t trace_refs = 0;

    std::vector<double> build_us[4], run_ms[4];
    double host_ns_per_sm_cycle = 0.0;
    double steps_per_sm_cycle = 0.0;
    double attempts_per_instr = 0.0;
    std::uint64_t collector_fails = 0, scoreboard_fails = 0;
    double sim_self_share = 0.0;

    std::uint64_t main_accesses = 0, prefetch_ops = 0;
    std::uint64_t prefetch_stall_cycles = 0;
    double cache_hit_rate = 0.0, l1d_hit_rate = 0.0;

    double stall_frac[obs::NUM_STALL_CAUSES] = {};
    double trace_overhead_frac = 0.0;

    double pool_efficiency = 0.0;

    double load_us = 0.0, store_us = 0.0;
    double explorer_self_ms = 0.0, report_ms = 0.0;
    std::uint64_t sim_cells = 0, frontier_size = 0;
    std::uint64_t hits = 0, misses = 0, stores = 0, errors = 0;

    /**
     * Fold model outputs of @p results into the core/mem layers;
     * @p cached marks the cells whose design keeps a register-cache
     * hit rate (RFC, SHRF).
     */
    void
    addModel(const std::vector<SimResult> &results,
             const std::vector<bool> &cached)
    {
        std::vector<double> hit, l1;
        for (std::size_t i = 0; i < results.size(); i++) {
            const SimResult &r = results[i];
            main_accesses += r.main_accesses;
            prefetch_ops += r.prefetch_ops;
            prefetch_stall_cycles += r.prefetch_stall_cycles;
            l1.push_back(r.l1d_hit_rate);
            if (cached[i])
                hit.push_back(r.cache_hit_rate);
        }
        cache_hit_rate = mean(hit);
        l1d_hit_rate = mean(l1);
    }

    void
    emit(Report &rep) const
    {
        rep.metric("workloads.suite_build_ms", suite_build_ms, "ms");
        rep.metric("compiler.static_us_per_cell", static_us, "us");
        rep.metric("compiler.trace_us_per_cell", trace_us, "us");
        rep.metric("compiler.verify_us_per_cell", verify_us, "us");
        rep.metric("compiler.trace_refs",
                   static_cast<double>(trace_refs), "count");
        for (std::size_t d = 0; d < SWEEP_DESIGNS.size(); d++) {
            const std::string k = designKey(SWEEP_DESIGNS[d]);
            rep.metric("sim.build_us_per_cell." + k, mean(build_us[d]),
                       "us");
            rep.metric("sim.run_ms_per_cell." + k, mean(run_ms[d]),
                       "ms");
        }
        rep.metric("sim.host_ns_per_sm_cycle", host_ns_per_sm_cycle,
                   "ns");
        rep.metric("sim.steps_per_sm_cycle", steps_per_sm_cycle,
                   "ratio");
        rep.metric("sim.issue_attempts_per_instr", attempts_per_instr,
                   "ratio");
        rep.metric("sim.failed_attempts.collector",
                   static_cast<double>(collector_fails), "count");
        rep.metric("sim.failed_attempts.scoreboard",
                   static_cast<double>(scoreboard_fails), "count");
        rep.metric("sim.self_share", sim_self_share, "ratio");
        rep.metric("core.rf.main_accesses",
                   static_cast<double>(main_accesses), "count");
        rep.metric("core.rf.cache_hit_rate", cache_hit_rate, "ratio");
        rep.metric("core.rf.prefetch_ops",
                   static_cast<double>(prefetch_ops), "count");
        rep.metric("core.rf.prefetch_stall_cycles",
                   static_cast<double>(prefetch_stall_cycles), "cycles");
        rep.metric("mem.l1d_hit_rate", l1d_hit_rate, "ratio");
        for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
            rep.metric(std::string("obs.stall_frac.") +
                               obs::stallCauseName(
                                       static_cast<obs::StallCause>(c)),
                       stall_frac[c], "ratio");
        rep.metric("obs.trace_overhead_frac", trace_overhead_frac,
                   "ratio");
        rep.metric("harness.pool_efficiency", pool_efficiency, "ratio");
        rep.metric("dse.cell_store.load_us", load_us, "us");
        rep.metric("dse.cell_store.store_us", store_us, "us");
        rep.metric("dse.explorer_self_ms", explorer_self_ms, "ms");
        rep.metric("dse.report_ms", report_ms, "ms");
        rep.metric("dse.sim_cells", static_cast<double>(sim_cells),
                   "count");
        rep.metric("dse.frontier_size",
                   static_cast<double>(frontier_size), "count");
        rep.metric("dse.cell_store.hits", static_cast<double>(hits),
                   "count");
        rep.metric("dse.cell_store.misses", static_cast<double>(misses),
                   "count");
        rep.metric("dse.cell_store.stores", static_cast<double>(stores),
                   "count");
        rep.metric("dse.cell_store.errors", static_cast<double>(errors),
                   "count");
    }
};

/** Sums of a traced pass's spans, by name. */
struct SpanTotals
{
    std::vector<SpanRecorder::Row> rows;

    explicit SpanTotals(const SpanRecorder &rec) : rows(rec.rows()) {}

    double
    durUs(const std::string &name) const
    {
        double s = 0.0;
        for (const SpanRecorder::Row &r : rows)
            if (r.name == name)
                s += r.dur_us;
        return s;
    }

    double
    selfUs(const std::string &name) const
    {
        double s = 0.0;
        for (const SpanRecorder::Row &r : rows)
            if (r.name == name)
                s += r.self_us;
        return s;
    }

    int
    count(const std::string &name) const
    {
        int n = 0;
        for (const SpanRecorder::Row &r : rows)
            n += r.name == name;
        return n;
    }
};

/**
 * Time compileWorkloadStatic, verifyAnalysis and compileWorkload for
 * one cell under its own "cell" span; verification must be clean.
 */
void
probeCompiler(SpanRecorder &rec, Report &rep, const SimConfig &cfg,
              const std::string &workload, std::uint64_t seed, int cell,
              Layers &layers)
{
    const Kernel &k = WorkloadSuite::byName(workload).kernel;
    Scope root(rec, "cell", cell);
    CompiledWorkload st;
    {
        Scope s(rec, "compiler.static");
        st = compileWorkloadStatic(k, cfg);
    }
    VerifyResult vr;
    {
        Scope s(rec, "compiler.verify");
        vr = verifyAnalysis(st.analysis, cfg.regs_per_interval);
    }
    rep.check(vr.clean(), "verifyAnalysis diagnostics on " + workload +
                                  ": " + vr.report());
    CompiledWorkload cw;
    {
        Scope s(rec, "compiler.compile");
        cw = compileWorkload(k, cfg, seed);
    }
    for (const WarpTrace &t : cw.traces)
        layers.trace_refs += t.refs.size();
}

/** Fill the compiler layer from the probe spans of @p cells cells. */
void
compilerLayer(const SpanTotals &sp, int cells, Layers &layers)
{
    const double n = static_cast<double>(std::max(cells, 1));
    layers.static_us = sp.durUs("compiler.static") / n;
    layers.verify_us = sp.durUs("compiler.verify") / n;
    // compileWorkload = the static half + trace generation.
    layers.trace_us = std::max(0.0, sp.durUs("compiler.compile") -
                                            sp.durUs("compiler.static")) /
                      n;
}

/**
 * A fresh CellStore the benchmark writes cells into (each store
 * timed) and reads back in timed passes. A pass is @p pass_size loads
 * cycling over the cells stored so far, each checked against what was
 * stored; once every cell is in, a pass reads each cell once.
 */
class WarmStore
{
  public:
    WarmStore(SpanRecorder &rec, Report &rep, const std::string &dir,
              const std::string &context, std::size_t pass_size)
        : rec(rec), rep(rep), pass_size(pass_size),
          store((fs::remove_all(dir), dir), context)
    {
    }

    void
    add(const std::string &key, const std::string &workload,
        const SimResult &r)
    {
        const double t = rec.nowUs();
        {
            Scope s(rec, "dse.cell_store.store");
            store.store(key, workload, r);
        }
        store_us.push_back(rec.nowUs() - t);
        keys.emplace_back(key, workload);
        want.push_back(resultDigest(r));
    }

    /** One timed pass; its wall lands in pass_ms. */
    void
    pass()
    {
        double pass_us = 0.0;
        for (std::size_t n = 0; n < pass_size; n++) {
            const std::size_t i = next++ % keys.size();
            SimResult got;
            bool hit = false;
            const double t = rec.nowUs();
            {
                Scope s(rec, "dse.cell_store.load");
                hit = store.load(keys[i].first, keys[i].second, got);
            }
            const double us = rec.nowUs() - t;
            load_us.push_back(us);
            pass_us += us;
            rep.check(hit && resultDigest(got) == want[i],
                      "cell store round trip of " + keys[i].second);
        }
        pass_ms.push_back(pass_us / 1000.0);
    }

    dse::CellStore::Counts counts() const { return store.counts(); }

    std::vector<double> pass_ms, load_us, store_us;

  private:
    SpanRecorder &rec;
    Report &rep;
    std::size_t pass_size;
    std::size_t next = 0;
    std::vector<std::pair<std::string, std::string>> keys;
    std::vector<std::string> want;
    dse::CellStore store;
};

// ----- cell-sweep ----------------------------------------------------

std::vector<harness::SweepCell>
sweepCells(const Options &o)
{
    harness::SweepSpec s;
    s.workloads = o.tiny ? std::vector<std::string>{"bfs", "btree"}
                         : harness::resolveWorkloads("all");
    s.designs = SWEEP_DESIGNS;
    s.rf_cfg_ids = {6};
    s.num_sms = o.tiny ? 2 : 4;
    s.seed = o.seed;
    std::vector<harness::SweepCell> cells = harness::expandSweep(s);
    for (harness::SweepCell &c : cells) {
        // Verification runs as its own checked call, not inside the
        // timed Gpu constructor.
        c.config.verify_kernels = false;
    }
    return cells;
}

/** Designs whose SimResult::cache_hit_rate is a register-cache rate. */
bool
tracksHitRate(RfDesign d)
{
    return d == RfDesign::RFC || d == RfDesign::SHRF;
}

int
designIndex(RfDesign d)
{
    for (std::size_t i = 0; i < SWEEP_DESIGNS.size(); i++)
        if (SWEEP_DESIGNS[i] == d)
            return static_cast<int>(i);
    return 0;
}

/** Exact work counts of a traced pass, read after Gpu::run. */
struct SimCounts
{
    std::uint64_t steps = 0, sm_cycles = 0, instructions = 0;
    std::uint64_t issued_slots = 0, collector = 0, scoreboard = 0;
    obs::StallBreakdown stalls;
};

/** One serial cell: Gpu construction + Gpu::run, timed. */
SimResult
runCell(const harness::SweepCell &c, bool traced, SpanRecorder &rec,
        Report &rep, SimCounts &counts, double &wall_ms)
{
    const Kernel &k = WorkloadSuite::byName(c.workload).kernel;
    SimConfig cfg = c.config;
    cfg.collect_stall_stats = traced;
    const auto t0 = Clock::now();
    std::unique_ptr<Gpu> gpu;
    {
        Scope s(rec, "sim.build");
        gpu = std::make_unique<Gpu>(cfg, k, c.seed);
    }
    SimResult r;
    {
        Scope s(rec, "sim.run");
        r = gpu->run();
    }
    wall_ms = msSince(t0);
    const std::string name =
            c.workload + "/" + rfDesignName(c.design);
    if (!traced) {
        const VerifyResult vr = verifyAnalysis(
                gpu->compiledWorkload().analysis, cfg.regs_per_interval);
        rep.check(vr.clean(), "verifyAnalysis diagnostics on " + name +
                                      ": " + vr.report());
        return r;
    }

    std::map<std::string, std::uint64_t> tree;
    for (const StatLine &l : r.stats_lines)
        tree[l.name] = l.value;
    auto path = [&](const std::string &p) -> std::uint64_t {
        auto it = tree.find(p);
        rep.check(it != tree.end(), "stat path " + p + " missing");
        return it == tree.end() ? 0 : it->second;
    };
    for (int s = 0; s < cfg.num_sms; s++) {
        const std::string sm = "sm" + std::to_string(s) + ".";
        counts.steps += path(sm + "issue_per_cycle.count");
        counts.collector += path(sm + "collector_wait.count");
        counts.issued_slots +=
                path(sm + "instructions") + path(sm + "prefetch_slots");
        counts.scoreboard += scoreboardFails(gpu->sm(s));
    }
    counts.sm_cycles += r.cycles * static_cast<std::uint64_t>(cfg.num_sms);
    counts.instructions += r.instructions;
    counts.stalls += r.stall_total;
    // The issue-slot account must close exactly.
    rep.check(r.stall_total.accountedSlots() == r.stall_total.issue_slots,
              "issue-slot account of " + name + " does not close");
    return r;
}

/** IPC gain of LTRF+ over BL, geomean over the swept kernels. */
double
ipcGain(const std::vector<harness::SweepCell> &cells,
        const std::vector<SimResult> &res)
{
    std::map<std::string, double> bl, plus;
    for (std::size_t i = 0; i < cells.size(); i++) {
        if (cells[i].design == RfDesign::BL)
            bl[cells[i].workload] = res[i].ipc;
        if (cells[i].design == RfDesign::LTRF_PLUS)
            plus[cells[i].workload] = res[i].ipc;
    }
    std::vector<double> g;
    for (const auto &[w, ipc] : plus)
        g.push_back(ipc / bl.at(w));
    return harness::ResultSet::geomean(g);
}

/**
 * Hypervolume of the swept designs, scored the way the explorer
 * scores a design point: geomean IPC over BL, mean RF power
 * normalized to BL's main-RF rate, and area (RF + register cache).
 * The reference is the explorer's default with its area bound
 * doubled: every swept design carries rf-config 6's 8x-area register
 * file, which the default bound (8) would not count.
 */
double
sweepHypervolume(const std::vector<harness::SweepCell> &cells,
                 const std::vector<SimResult> &res)
{
    std::map<std::string, const SimResult *> bl;
    for (std::size_t i = 0; i < cells.size(); i++)
        if (cells[i].design == RfDesign::BL)
            bl[cells[i].workload] = &res[i];
    std::vector<dse::Objectives> pts;
    for (RfDesign d : SWEEP_DESIGNS) {
        std::vector<double> norm;
        double energy = 0.0;
        const bool cached = usesRegCache(d);
        double cache_kb = 0.0;
        const RfConfig &model = rfConfig(cells.front().rf_cfg_id);
        for (std::size_t i = 0; i < cells.size(); i++) {
            if (cells[i].design != d)
                continue;
            const SimResult &b = *bl.at(cells[i].workload);
            norm.push_back(res[i].ipc / b.ipc);
            energy += rfPower(model, res[i].activity, cached,
                              b.activity.main_accesses_per_cycle);
            cache_kb = static_cast<double>(cells[i].config.rf_cache_bytes) /
                       1024.0;
        }
        dse::Objectives ob;
        ob.ipc = harness::ResultSet::geomean(norm);
        ob.energy = energy / static_cast<double>(norm.size());
        ob.area = model.area + (cached ? cache_kb / 256.0 : 0.0);
        pts.push_back(ob);
    }
    dse::Objectives ref = dse::defaultHvRef();
    ref.area *= 2.0;
    return dse::hypervolume(pts, ref);
}

/** One pass over every cell; returns results in cell order. */
std::vector<SimResult>
sweepPass(const std::vector<harness::SweepCell> &cells, bool traced,
          SpanRecorder &rec, Report &rep, SimCounts &counts,
          std::vector<double> &wall_ms, Layers *layers)
{
    std::vector<SimResult> out;
    for (std::size_t i = 0; i < cells.size(); i++) {
        const harness::SweepCell &c = cells[i];
        const int cell = static_cast<int>(i);
        if (traced)
            probeCompiler(rec, rep, c.config, c.workload, c.seed, cell,
                          *layers);
        Scope root(rec, "cell", cell);
        double ms = 0.0;
        out.push_back(runCell(c, traced, rec, rep, counts, ms));
        wall_ms.push_back(ms);
    }
    return out;
}

/** Simulate the first WARMUP_CELLS sweep cells (all, if fewer), untimed. */
void
warmUp(const Options &o, Report &rep)
{
    const std::vector<harness::SweepCell> cells = sweepCells(o);
    SpanRecorder off(false);
    SimCounts none;
    for (std::size_t i = 0; i < std::min(WARMUP_CELLS, cells.size()); i++) {
        double ms = 0.0;
        runCell(cells[i], false, off, rep, none, ms);
    }
}

void
cellSweep(const Options &o, Report &rep, Layers &layers)
{
    const std::vector<harness::SweepCell> cells = sweepCells(o);
    SpanRecorder off(false);
    SimCounts no_counts;

    warmUp(o, rep);

    std::vector<std::pair<std::string, std::string>> keys;
    std::vector<bool> cached;
    for (const harness::SweepCell &c : cells) {
        keys.emplace_back(dse::simKey(c.config), c.workload);
        cached.push_back(tracksHitRate(c.design));
    }
    const std::string store_dir = o.dir + "/sweep-store";
    const std::string context = "perfbench|sms=" +
                                std::to_string(cells.front().config.num_sms) +
                                "|seed=" + std::to_string(o.seed);

    // Untraced passes: the end-to-end numbers. Whole passes only: at
    // least MIN_SWEEP_PASSES, and another while it would still end
    // within --seconds. The first pass writes each result to the warm
    // store as it lands, and every cell of every pass is followed by
    // a few warm passes, so the warm passes span the run: the host's
    // speed flips between two levels every few hundred ms, and 300
    // passes of ~1 ms in one burst caught one level or the other.
    std::vector<std::vector<double>> pass_ms;
    std::vector<SimResult> first;
    std::unique_ptr<WarmStore> warm;
    if (!o.trace)
        warm = std::make_unique<WarmStore>(off, rep, store_dir, context,
                                           cells.size());
    double timed_ms = 0.0;
    do {
        std::vector<double> ms;
        std::vector<SimResult> res;
        for (std::size_t i = 0; i < cells.size(); i++) {
            double wall = 0.0;
            res.push_back(runCell(cells[i], false, off, rep, no_counts,
                                  wall));
            ms.push_back(wall);
            if (!warm)
                continue;
            if (first.empty())
                warm->add(keys[i].first, keys[i].second, res.back());
            for (int k = 0; k < WARM_PASSES_PER_CELL; k++)
                warm->pass();
        }
        for (std::size_t i = 0; i < res.size() && !first.empty(); i++)
            rep.check(resultDigest(res[i]) == resultDigest(first[i]),
                      "repeat pass changed " + cells[i].workload);
        if (first.empty())
            first = std::move(res);
        timed_ms += sum(ms);
        pass_ms.push_back(std::move(ms));
    } while (!o.trace && (pass_ms.size() < MIN_SWEEP_PASSES ||
                          timed_ms + sum(pass_ms.back()) <=
                                  o.seconds * 1000.0));

    for (std::size_t i = 0; i < cells.size(); i++)
        rep.digest(cells[i].workload + "/" + designKey(cells[i].design),
                   resultDigest(first[i]));

    if (!o.trace) {
        // Each cell's fastest pass.
        std::vector<double> best = pass_ms.front();
        for (const std::vector<double> &ms : pass_ms)
            for (std::size_t i = 0; i < ms.size(); i++)
                best[i] = std::min(best[i], ms[i]);
        std::uint64_t instructions = 0;
        for (const SimResult &r : first)
            instructions += r.instructions;
        const double best_s = sum(best) / 1000.0;
        rep.metric("cells_per_s",
                   static_cast<double>(best.size()) / best_s, "1/s");
        rep.metric("sim_instr_per_s",
                   static_cast<double>(instructions) / best_s, "1/s");
        rep.metric("cell_ms_p50", quantile(best, 0.5), "ms");
        rep.metric("cell_ms_p80", quantile(best, 0.8), "ms");
        rep.metric("search_s", best_s, "s");
        rep.metric("replay_ms_p10", quantile(warm->pass_ms, 0.1), "ms");
        rep.metric("search_hv", sweepHypervolume(cells, first), "1");
        rep.metric("ltrf_ipc_gain", ipcGain(cells, first), "x");
        rep.extra("cell_samples", static_cast<std::uint64_t>(best.size()));
        rep.extra("passes", static_cast<std::uint64_t>(pass_ms.size()));
        rep.extra("replay_samples",
                  static_cast<std::uint64_t>(warm->pass_ms.size()));
        return;
    }

    // Traced pass: spans around every layer call, stall stats on.
    SpanRecorder rec(true);
    SimCounts counts;
    std::vector<double> traced_ms;
    const std::vector<SimResult> traced = sweepPass(
            cells, true, rec, rep, counts, traced_ms, &layers);
    for (std::size_t i = 0; i < cells.size(); i++)
        rep.check(resultDigest(traced[i]) == resultDigest(first[i]),
                  "tracing changed the result of " + cells[i].workload);

    WarmStore ws(rec, rep, store_dir, context, cells.size());
    for (std::size_t i = 0; i < cells.size(); i++)
        ws.add(keys[i].first, keys[i].second, first[i]);
    for (int p = 0; p < TRACED_WARM_PASSES; p++)
        ws.pass();

    const SpanTotals sp(rec);
    const int n = static_cast<int>(cells.size());
    compilerLayer(sp, n, layers);
    for (const SpanRecorder::Row &r : sp.rows) {
        if (r.cell < 0 || r.cell >= n)
            continue;
        const int d = designIndex(cells[r.cell].design);
        if (r.name == "sim.build")
            layers.build_us[d].push_back(r.dur_us);
        else if (r.name == "sim.run")
            layers.run_ms[d].push_back(r.dur_us / 1000.0);
    }
    const double untraced_us = sum(pass_ms.front()) * 1000.0;
    layers.host_ns_per_sm_cycle =
            ratio(sp.durUs("sim.run") * 1000.0,
                  static_cast<double>(counts.sm_cycles));
    layers.steps_per_sm_cycle =
            ratio(static_cast<double>(counts.steps),
                  static_cast<double>(counts.sm_cycles));
    layers.attempts_per_instr = ratio(
            static_cast<double>(counts.issued_slots + counts.collector +
                                counts.scoreboard),
            static_cast<double>(counts.instructions));
    layers.collector_fails = counts.collector;
    layers.scoreboard_fails = counts.scoreboard;
    layers.sim_self_share =
            ratio(sp.selfUs("sim.build") + sp.selfUs("sim.run"),
                  untraced_us);
    layers.addModel(first, cached);
    for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
        layers.stall_frac[c] =
                ratio(static_cast<double>(counts.stalls.stalls[c]),
                      static_cast<double>(counts.stalls.issue_slots));
    // Traced cell = compile probes + Gpu with stall stats + spans.
    double traced_cell_us = 0.0;
    for (const SpanRecorder::Row &r : sp.rows)
        if (r.name == "cell")
            traced_cell_us += r.dur_us;
    layers.trace_overhead_frac = ratio(traced_cell_us, untraced_us) - 1.0;
    layers.load_us = mean(ws.load_us);
    layers.store_us = mean(ws.store_us);
    const dse::CellStore::Counts sc = ws.counts();
    layers.hits = sc.hits;
    layers.misses = sc.misses;
    layers.stores = sc.stores;
    layers.errors = sc.errors;
    if (!o.trace_out.empty())
        harness::writeTextFile(o.trace_out, rec.chromeJson());
}

// ----- dse-search ----------------------------------------------------

dse::ExploreOptions
exploreOptions(const Options &o, const std::string &cache_dir,
               obs::TraceSink *sink, int jobs)
{
    dse::ExploreOptions e;
    e.strategy = dse::Strategy::RANDOM;
    e.budget = o.tiny ? 2 : 8;
    e.seed = DSE_SEED;
    e.num_sms = o.tiny ? 2 : 4;
    if (o.tiny)
        e.workloads = {"bfs", "btree"};
    e.jobs = jobs;
    e.cache_dir = cache_dir;
    e.trace = sink;
    return e;
}

std::string
reportText(const dse::DseResult &r)
{
    return r.toJson().dump(2) + "\n";
}

/** A cell the explorer stores: its configuration and workload. */
struct DseCell
{
    SimConfig config;
    std::string key;
    std::string workload;
};

/** Every (simKey, workload) cell of @p res: baselines, then points. */
std::vector<DseCell>
dseCells(const dse::DseResult &res)
{
    std::vector<SimConfig> cfgs;
    SimConfig base;
    base.num_sms = res.num_sms;
    base.design = RfDesign::BL;
    cfgs.push_back(base);
    for (const dse::PointResult &p : res.evaluated)
        cfgs.push_back(dse::configFor(p.point, res.num_sms));
    std::set<std::pair<std::string, std::string>> seen;
    std::vector<DseCell> out;
    for (const SimConfig &c : cfgs) {
        const std::string key = dse::simKey(c);
        for (const std::string &w : res.workloads)
            if (seen.emplace(key, w).second)
                out.push_back({c, key, w});
    }
    return out;
}

/** The explorer's store context for these options. */
std::string
storeContext(const dse::ExploreOptions &e)
{
    return "sms=" + std::to_string(e.num_sms) +
           "|seed=" + std::to_string(e.seed);
}

double
bestIpc(const dse::DseResult &res)
{
    double best = 0.0;
    for (int i : res.frontier)
        best = std::max(best, res.evaluated[i].obj.ipc);
    return best;
}

std::uint64_t
statPath(const dse::DseResult &res, const std::string &path, Report &rep)
{
    for (const StatLine &l : res.stats_lines)
        if (l.name == path)
            return l.value;
    rep.check(false, "stat path " + path + " missing");
    return 0;
}

/** Pool cell spans the explorer traced, in trace order. */
struct PoolCells
{
    std::vector<double> ms;
    std::vector<bool> baseline;
    std::vector<std::pair<double, double>> span_us;   ///< [start, end)
    std::vector<int> tid;
};

PoolCells
poolCells(const obs::TraceSink &sink)
{
    PoolCells out;
    const Json j = Json::parse(sink.toJsonText());
    const Json &ev = j.at("traceEvents");
    for (std::size_t i = 0; i < ev.size(); i++) {
        const Json &e = ev.at(i);
        if (e.at("ph").asString() != "X")
            continue;
        const std::string &name = e.at("name").asString();
        const bool base = name.rfind("baseline ", 0) == 0;
        if (!base && name.rfind("sim ", 0) != 0)
            continue;
        const double ts = e.at("ts").asDouble();
        const double dur = e.at("dur").asDouble();
        out.ms.push_back(dur / 1000.0);
        out.baseline.push_back(base);
        out.span_us.emplace_back(ts, ts + dur);
        out.tid.push_back(static_cast<int>(e.at("tid").asInt()));
    }
    return out;
}

/** Load every cell of @p cells from the explorer's store at @p dir. */
std::vector<SimResult>
loadStored(Report &rep, const std::string &dir, const std::string &context,
           const std::vector<DseCell> &cells)
{
    dse::CellStore store(dir, context);
    std::vector<SimResult> out;
    for (const DseCell &c : cells) {
        SimResult r;
        rep.check(store.load(c.key, c.workload, r),
                  "explorer store lacks " + c.workload);
        out.push_back(r);
    }
    return out;
}

/** One timed exploration; @return wall ms. */
double
timedExplore(const dse::DesignSpace &space, const dse::ExploreOptions &e,
             dse::DseResult &res)
{
    const auto t0 = Clock::now();
    res = dse::explore(space, e);
    return msSince(t0);
}

/**
 * The end-to-end metrics of a dse-search run. Rates are per median
 * exploration (@p explore_ms) of @p res's cells and their @p instr
 * simulated instructions: the exploration-time tail comes and goes
 * with the host's load.
 */
void
emitDse(Report &rep, const dse::DseResult &res, double explore_ms,
        std::uint64_t instr, const std::vector<double> &cell_ms,
        const std::vector<double> &replay_ms)
{
    const double explore_s = explore_ms / 1000.0;
    rep.metric("cells_per_s", static_cast<double>(res.sim_cells) / explore_s,
               "1/s");
    rep.metric("sim_instr_per_s", static_cast<double>(instr) / explore_s,
               "1/s");
    rep.metric("cell_ms_p50", quantile(cell_ms, 0.5), "ms");
    rep.metric("cell_ms_p80", quantile(cell_ms, 0.8), "ms");
    rep.metric("search_s", explore_s, "s");
    rep.metric("replay_ms_p10", quantile(replay_ms, 0.1), "ms");
    rep.metric("search_hv", res.hv, "1");
    rep.metric("ltrf_ipc_gain", bestIpc(res), "x");
    rep.extra("cell_samples", static_cast<std::uint64_t>(cell_ms.size()));
    rep.extra("replay_samples",
              static_cast<std::uint64_t>(replay_ms.size()));
    rep.digest("report", hex64(fnv1a(reportText(res))));
}

/**
 * The traced dse-search pass: one cold exploration untraced, then one
 * with spans and the explorer's pool trace; TRACED_REPLAYS replays of
 * the traced search's store the same two ways; then the benchmark's
 * own cell-store, report and compiler calls.
 */
void
tracedSearch(const Options &o, Report &rep, Layers &layers,
             const dse::DesignSpace &space)
{
    SpanRecorder rec(true);
    std::string want;
    dse::DseResult res;
    // One explore() against @p dir; @return its wall ms. When @p name
    // is set, the call is a span of that name, and the pool cells the
    // explorer traced become its children, named @p child and also
    // appended to @p pool.
    auto explore = [&](const std::string &dir, int jobs, const char *name,
                       const char *child, PoolCells *pool) {
        double ms = 0.0;
        if (name == nullptr) {
            ms = timedExplore(space, exploreOptions(o, dir, nullptr, jobs),
                              res);
        } else {
            obs::TraceSink sink;
            const double start = rec.nowUs();
            Scope s(rec, name);
            ms = timedExplore(space, exploreOptions(o, dir, &sink, jobs),
                              res);
            const PoolCells pc = poolCells(sink);
            for (std::size_t k = 0; k < pc.ms.size(); k++)
                rec.add(child, s.spanId(), -1, pc.tid[k] + 1,
                        start + pc.span_us[k].first,
                        start + pc.span_us[k].second);
            if (pool != nullptr) {
                pool->ms.insert(pool->ms.end(), pc.ms.begin(), pc.ms.end());
                pool->baseline.insert(pool->baseline.end(),
                                      pc.baseline.begin(),
                                      pc.baseline.end());
            }
        }
        std::string text;
        {
            Scope s(rec, "dse.report");
            text = reportText(res);
        }
        if (want.empty())
            want = text;
        rep.check(text == want,
                  "exploration report differs from the first search's");
        return ms;
    };

    const std::string cold_dir = o.dir + "/cold-untraced";
    const std::string store_dir = o.dir + "/cold-traced";
    fs::remove_all(cold_dir);
    fs::remove_all(store_dir);
    PoolCells pool;
    const double base_ms = explore(cold_dir, o.jobs, nullptr, nullptr, nullptr);
    const double traced_ms = explore(store_dir, o.jobs, "dse.explore",
                                     "harness.pool_cell", &pool);
    const dse::DseResult cold = res;
    double replay_ms = 0.0, traced_replay_ms = 0.0;
    for (int i = 0; i < TRACED_REPLAYS; i++)
        replay_ms += explore(store_dir, WARM_JOBS, nullptr, nullptr, nullptr);
    for (int i = 0; i < TRACED_REPLAYS; i++)
        traced_replay_ms += explore(store_dir, WARM_JOBS, "dse.replay",
                                    "dse.replay.store_hit", nullptr);

    const dse::ExploreOptions e = exploreOptions(o, store_dir, nullptr, o.jobs);
    const std::vector<DseCell> cells = dseCells(cold);
    const std::vector<SimResult> stored =
            loadStored(rep, store_dir, storeContext(e), cells);

    // The benchmark's own store calls: one write and a few read
    // passes over every cell, into a scratch store.
    std::vector<bool> cached;
    WarmStore ws(rec, rep, o.dir + "/scratch-store", storeContext(e),
                 cells.size());
    for (std::size_t i = 0; i < cells.size(); i++) {
        ws.add(cells[i].key, cells[i].workload, stored[i]);
        cached.push_back(tracksHitRate(cells[i].config.design));
    }
    for (int p = 0; p < TRACED_WARM_PASSES; p++)
        ws.pass();
    for (std::size_t i = 0; i < cells.size(); i++)
        probeCompiler(rec, rep, cells[i].config, cells[i].workload,
                      DSE_SEED, static_cast<int>(i), layers);

    const SpanTotals sp(rec);
    compilerLayer(sp, static_cast<int>(cells.size()), layers);
    layers.pool_efficiency =
            ratio(sp.durUs("harness.pool_cell") / 1000.0,
                  traced_ms * static_cast<double>(o.jobs));
    // Pool spans cover a whole simulate() (compile, verify, build and
    // run); cold-store cells are BL baselines or the sampled design.
    const RfDesign point =
            cold.evaluated.empty()
                    ? RfDesign::LTRF
                    : dse::configFor(cold.evaluated.front().point,
                                     cold.num_sms)
                              .design;
    for (std::size_t k = 0; k < pool.ms.size(); k++)
        layers.run_ms[designIndex(pool.baseline[k] ? RfDesign::BL : point)]
                .push_back(pool.ms[k]);
    layers.load_us = mean(ws.load_us);
    layers.store_us = mean(ws.store_us);
    layers.report_ms = sp.durUs("dse.report") / 1000.0 /
                       std::max(1, sp.count("dse.report"));
    // Explorer self time: replay wall not covered by its store loads
    // (admission, commits, frontier, hypervolume, pool start-up).
    layers.explorer_self_ms = sp.selfUs("dse.replay") / 1000.0 /
                              std::max(1, sp.count("dse.replay"));
    layers.trace_overhead_frac = ratio(traced_ms + traced_replay_ms,
                                       base_ms + replay_ms) -
                                 1.0;
    layers.sim_cells = cold.sim_cells;
    layers.frontier_size = cold.frontier.size();
    // Store counters of the cold search (misses, stores) and of the
    // last replay (hits).
    auto counter = [&](const std::string &path) {
        return statPath(cold, path, rep) + statPath(res, path, rep);
    };
    layers.hits = counter("cell_store.hits");
    layers.misses = counter("cell_store.misses");
    layers.stores = counter("cell_store.stores");
    layers.errors = counter("cell_store.errors");
    layers.addModel(stored, cached);
    rep.digest("report", hex64(fnv1a(want)));
    if (!o.trace_out.empty())
        harness::writeTextFile(o.trace_out, rec.chromeJson());
}

void
dseSearch(const Options &o, Report &rep, Layers &layers)
{
    const dse::DesignSpace space = dse::DesignSpace::defaults();
    if (o.trace) {
        tracedSearch(o, rep, layers, space);
        return;
    }
    warmUp(o, rep);

    // Cold explorations until the timed region, replays included,
    // reaches --seconds (at least two explorations), each against its
    // own empty store. After each one,
    // warm explore() calls (replays) run for a second against the
    // first search's store: long enough to span several of the host's
    // speed phases (a few hundred ms each), so their quantiles do not
    // hang on the phase a short burst caught. Every replay's report
    // must equal the search's byte for byte.
    const std::string warm_dir = o.dir + "/search-0";
    const dse::ExploreOptions warm_opt =
            exploreOptions(o, warm_dir, nullptr, WARM_JOBS);
    std::vector<double> search_ms, cell_ms, replay_ms;
    std::string want;
    dse::DseResult res;
    const auto start = Clock::now();
    auto warmExplore = [&] {
        dse::DseResult warm;
        replay_ms.push_back(timedExplore(space, warm_opt, warm));
        rep.check(reportText(warm) == want,
                  "replay report differs from the search report");
    };
    do {
        const std::string d =
                o.dir + "/search-" + std::to_string(search_ms.size());
        fs::remove_all(d);
        obs::TraceSink sink;
        search_ms.push_back(
                timedExplore(space, exploreOptions(o, d, &sink, o.jobs), res));
        const PoolCells pc = poolCells(sink);
        cell_ms.insert(cell_ms.end(), pc.ms.begin(), pc.ms.end());
        const std::string text = reportText(res);
        if (want.empty())
            want = text;
        rep.check(text == want, "cold exploration reports differ");
        for (const auto t0 = Clock::now(); msSince(t0) < 1000.0;)
            warmExplore();
    } while (search_ms.size() < 2 || msSince(start) < o.seconds * 1000.0);
    while (replay_ms.size() < static_cast<std::size_t>(WARM_EXPLORES))
        warmExplore();

    const std::vector<DseCell> dcells = dseCells(res);
    rep.check(dcells.size() == res.sim_cells,
              "benchmark and explorer disagree on the cell count");
    std::uint64_t instr = 0;
    for (const SimResult &r :
         loadStored(rep, warm_dir, storeContext(warm_opt), dcells))
        instr += r.instructions;

    emitDse(rep, res, quantile(search_ms, 0.5), instr, cell_ms, replay_ms);
}

/** Set-up: build the suite, then simulate the warm-up cells. */
void
setup(const Options &o, Report &rep, double suite_ms)
{
    rep.extra("suite_build_ms", suite_ms);
    fs::create_directories(o.dir);
    warmUp(o, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = Clock::now();
    const Options o = parseArgs(argc, argv);
    const Json machine = machineInfo(o.jobs);
    const std::string invalid = invalidReason(o.jobs);
    if (!invalid.empty()) {
        std::fprintf(stderr, "perfbench_driver: invalid run: %s\n",
                     invalid.c_str());
        return 3;
    }
    WorkloadSuite::all();
    const double suite_ms = msSince(t0);

    Report rep;
    Layers layers;
    layers.suite_build_ms = suite_ms;
    if (o.mode == "setup")
        setup(o, rep, suite_ms);
    else if (o.workload == "cell-sweep")
        cellSweep(o, rep, layers);
    else
        dseSearch(o, rep, layers);
    if (o.mode == "run" && o.trace)
        layers.emit(rep);
    rep.print(machine);
    return 0;
}
