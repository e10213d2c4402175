#include "dse/explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "dse/cell_store.hh"
#include "harness/runner.hh"
#include "obs/trace_sink.hh"
#include "sim/gpu.hh"
#include "tech/energy_model.hh"
#include "workloads/workload.hh"

namespace ltrf::dse
{

using harness::Json;

namespace
{

/**
 * Full-fidelity candidates are admitted to the cell pipeline in
 * fixed-size batches and committed in admission order, so every
 * commit depends on the admission sequence alone — never on the job
 * count or on which cell finishes first.
 */
constexpr std::size_t POINT_BATCH = 16;

/**
 * Admitted-but-uncommitted batches tolerated before the oldest is
 * committed. Deep enough that the pool never starves (depth x
 * POINT_BATCH points in flight), fixed so a 10^7-point walk never
 * holds 10^7 / POINT_BATCH tickets.
 */
constexpr std::size_t MAX_DEPTH = 64;

/**
 * Disjoint RNG stream tags, mixed with the search seed (mixSeeds)
 * plus a per-restart / per-generation index. Every random decision
 * sequence therefore depends only on (seed, purpose, index) — a
 * hill-climb restart or an evolutionary generation draws the same
 * values no matter how many samples earlier phases consumed.
 */
constexpr std::uint64_t STREAM_HILL_RESTART = 0x10000000ull;
constexpr std::uint64_t STREAM_EVOLVE_INIT = 0x20000000ull;
constexpr std::uint64_t STREAM_EVOLVE_GEN = 0x30000000ull;
constexpr std::uint64_t STREAM_HALVING_GEN = 0x40000000ull;

/** Chance that an offspring steps to a random neighbor. */
constexpr double MUTATION_P = 0.25;

/** Trace lane of the admission thread's instants (batch commits,
 *  rung promotions), well clear of the pool worker ids. */
constexpr int EXPLORER_TID = 1000;

/** Per-workload baseline measurements (BL on configuration #1). */
struct BaselineRow
{
    double ipc = 0.0;
    double main_rate = 0.0;
};

/**
 * Evaluates design points across workload subsets on a cell-level
 * pipeline, memoizing each simulated (simKey, workload) cell: a
 * point screened on a workload subset and later promoted to a
 * larger one only simulates the workloads it has not already run.
 *
 * The pipeline splits evaluation into begin() — claim the missing
 * cells and submit each one as an independent task on the harness
 * work-stealing pool — and collect() — block until a ticket's cells
 * have landed and fold them into objectives. Because admission and
 * collection are decoupled, the explorer can admit the next batch's
 * cells while a straggler from an earlier batch is still
 * simulating; because every cell simulation is a pure seeded
 * function of its configuration, the folded objectives are
 * bit-identical no matter which worker ran which cell when.
 */
class Evaluator
{
  public:
    /** The trace pid all harness pool activity lands on. */
    static constexpr int POOL_PID = 0;

    Evaluator(const ExploreOptions &opt,
              std::vector<std::string> workload_names)
        : runner(opt.jobs), names(std::move(workload_names)),
          num_sms(opt.num_sms), seed(opt.seed), trace(opt.trace),
          progress(opt.progress), t0(std::chrono::steady_clock::now())
    {
        if (trace)
            trace->processName(POOL_PID, "ltrf_dse harness pool");
        if (!opt.cache_dir.empty()) {
            // simKey() deliberately omits the SM count and the
            // workload seed (the in-memory cache lives inside one
            // run, where both are fixed); on disk they must join the
            // entry address or runs with different parameters would
            // poison each other.
            store = std::make_unique<CellStore>(
                    opt.cache_dir,
                    "sms=" + std::to_string(num_sms) +
                            "|seed=" + std::to_string(seed));
        }
    }

    /** Workers write into cache cells the fold reads; finish them
     *  before the cache goes away. */
    ~Evaluator() { runner.drain(); }

    /** One simulation cell: a (simKey, workload) result slot. */
    struct Cell
    {
        SimResult result;
        /** A ticket owns the simulation (submitted or finished);
         *  later tickets reuse instead of resubmitting. */
        bool claimed = false;
        /** result is valid. Guarded by mu. */
        bool done = false;
    };

    /**
     * A batch admitted to the pipeline: every missing cell has been
     * submitted; collect() folds once they land. Cells claimed by
     * earlier tickets that this batch also reads are listed too —
     * collect() must wait for them even though it did not submit
     * them.
     */
    struct Ticket
    {
        std::vector<DesignPoint> points;
        std::vector<std::size_t> wsel;
        std::vector<const Cell *> cells;
    };

    /**
     * Admit @p points (deduplicated by the caller) for evaluation
     * on the workloads selected by @p wsel (indices into the
     * suite): claim and submit every cell not already claimed, and
     * return the ticket collect() redeems. Baseline cells are
     * submitted lazily on the first admission — a resumed search
     * that admits nothing (--resume with --generations 0) must not
     * simulate at all.
     */
    Ticket
    begin(std::vector<DesignPoint> points,
          std::vector<std::size_t> wsel)
    {
        Ticket t;
        t.points = std::move(points);
        t.wsel = std::move(wsel);
        ensureBaselines();
        for (const DesignPoint &p : t.points) {
            SimConfig cfg = configFor(p, num_sms);
            CacheRow &row = rowFor(simKey(cfg));
            for (std::size_t w : t.wsel) {
                Cell &cell = row.cells[w];
                t.cells.push_back(&cell);
                if (cell.claimed) {
                    sim_reuse++;
                    continue;
                }
                cell.claimed = true;
                sim_cells++;
                submitCell(cell, cfg, names[w]);
            }
        }
        // Folding normalizes against the baselines, so the ticket
        // waits on them like any other cell.
        for (const Cell &b : baseline_cells)
            t.cells.push_back(&b);
        return t;
    }

    /**
     * Block until every cell @p t reads has landed, then fold each
     * point's rows into an objective vector over the ticket's
     * workload subset.
     */
    std::vector<PointResult>
    collect(const Ticket &t)
    {
        {
            std::unique_lock<std::mutex> lk(mu);
            cell_done.wait(lk, [&] {
                for (const Cell *c : t.cells)
                    if (!c->done)
                        return false;
                return true;
            });
        }
        ensureBaselineRows();
        std::vector<PointResult> out;
        out.reserve(t.points.size());
        for (const DesignPoint &p : t.points)
            out.push_back(fold(p, t.wsel));
        return out;
    }

    std::uint64_t simCells() const { return sim_cells; }
    std::uint64_t simReuse() const { return sim_reuse; }

    /** Emit the end-of-run pool summary on stderr (--progress), with
     *  per-cell wall-time quantiles. */
    void
    informSummary()
    {
        std::vector<std::uint64_t> us;
        {
            std::lock_guard<std::mutex> lk(mu);
            us = cell_us;
        }
        std::sort(us.begin(), us.end());
        auto ms_at = [&](double q) {
            if (us.empty())
                return 0.0;
            const std::size_t i = std::min(
                    us.size() - 1,
                    static_cast<std::size_t>(
                            q * static_cast<double>(us.size())));
            return static_cast<double>(us[i]) / 1000.0;
        };
        ltrf_inform("pool: %llu cells simulated (%llu reused, %llu "
                    "cache rows), cell wall time p50 %.1f ms / p90 "
                    "%.1f ms / max %.1f ms, queue high-water %zu, "
                    "in-flight high-water %zu",
                    static_cast<unsigned long long>(sim_cells),
                    static_cast<unsigned long long>(sim_reuse),
                    static_cast<unsigned long long>(row_inserts),
                    ms_at(0.50), ms_at(0.90), ms_at(1.0),
                    runner.queueHighWater(),
                    runner.inFlightHighWater());
        if (store) {
            // Misses are the cells this run actually simulated; a
            // fully warm store reports "0 misses, 0 stores" (CI's
            // cache-reuse smoke greps this line).
            const CellStore::Counts c = store->counts();
            ltrf_inform("cell store: %llu hits, %llu misses, %llu "
                        "stores, %llu errors (%s)",
                        static_cast<unsigned long long>(c.hits),
                        static_cast<unsigned long long>(c.misses),
                        static_cast<unsigned long long>(c.stores),
                        static_cast<unsigned long long>(c.errors),
                        store->dir().c_str());
        }
    }

    /** The persistent cell store, or null when cache_dir is off. */
    const CellStore *cellStore() const { return store.get(); }

  private:
    struct CacheRow
    {
        /** One slot per suite workload; sized once at creation so
         *  cell addresses stay stable for in-flight tasks. */
        std::vector<Cell> cells;
    };

    CacheRow &
    rowFor(const std::string &key)
    {
        auto it = sim_cache.find(key);
        if (it == sim_cache.end()) {
            CacheRow row;
            row.cells.resize(names.size());
            it = sim_cache.emplace(key, std::move(row)).first;
            row_inserts++;
        }
        return it->second;
    }

    /** Microseconds on the observability clock: the trace's own
     *  epoch when tracing (so spans line up with the instants the
     *  explorer emits), this evaluator's otherwise. */
    std::uint64_t
    tickUs() const
    {
        if (trace)
            return trace->wallUs();
        return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }

    /** Submit @p cell's simulation; the task publishes its result
     *  under the evaluator lock and wakes any collector. @p kind
     *  labels the trace span ("sim" or "baseline"). */
    void
    submitCell(Cell &cell, const SimConfig &cfg,
               const std::string &workload,
               const char *kind = "sim")
    {
        const bool timing = trace || progress;
        if (trace) {
            cells_submitted++;
            trace->counter("cells in flight", POOL_PID, tickUs(),
                           cells_submitted - cells_landed);
        }
        runner.submit([this, &cell, cfg, workload, kind, timing] {
            const std::uint64_t start_us = timing ? tickUs() : 0;
            // Persistent store first: a hit replaces the whole
            // simulation. simulate() is a pure seeded function of
            // (cfg, kernel, seed) and the stored numbers round-trip
            // exactly, so a loaded cell folds bit-identically to a
            // fresh one — the committed report cannot tell them
            // apart.
            SimResult r;
            bool from_store = false;
            if (store) {
                const std::string skey = simKey(cfg);
                from_store = store->load(skey, workload, r);
                if (!from_store) {
                    r = simulate(cfg,
                                 WorkloadSuite::byName(workload).kernel,
                                 seed);
                    store->store(skey, workload, r);
                } else {
                    r.design = cfg.design;
                }
            } else {
                r = simulate(cfg, WorkloadSuite::byName(workload).kernel,
                             seed);
            }
            const std::uint64_t end_us = timing ? tickUs() : 0;
            if (trace) {
                const int tid = trace->workerTid();
                {
                    std::lock_guard<std::mutex> lk(mu);
                    if (named_tids.insert(tid).second)
                        trace->threadName(
                                POOL_PID, tid,
                                "worker " + std::to_string(tid));
                }
                trace->complete(
                        (std::string(kind) +
                         (from_store ? " [store hit] " : " ") +
                         workload)
                                .c_str(),
                        POOL_PID, tid, start_us, end_us - start_us);
            }
            bool beat = false;
            std::uint64_t landed = 0;
            {
                std::lock_guard<std::mutex> lk(mu);
                cell.result = std::move(r);
                cell.done = true;
                cells_landed++;
                landed = cells_landed;
                if (timing)
                    cell_us.push_back(end_us - start_us);
                if (progress && end_us >= next_beat_us) {
                    next_beat_us = end_us + 1'000'000;
                    beat = true;
                }
            }
            if (trace)
                trace->counter("cells in flight", POOL_PID, end_us,
                               cells_submitted >= landed
                                       ? cells_submitted - landed
                                       : 0);
            if (beat)
                ltrf_inform("progress: %llu/%llu cells landed "
                            "(%llu reused, %.1f s)",
                            static_cast<unsigned long long>(landed),
                            static_cast<unsigned long long>(
                                    sim_cells),
                            static_cast<unsigned long long>(
                                    sim_reuse),
                            static_cast<double>(end_us) / 1e6);
            cell_done.notify_all();
        });
    }

    void
    ensureBaselines()
    {
        if (!baseline_cells.empty())
            return;
        baseline_cells.resize(names.size());
        for (std::size_t w = 0; w < names.size(); w++) {
            SimConfig cfg;
            cfg.num_sms = num_sms;
            cfg.design = RfDesign::BL;
            baseline_cells[w].claimed = true;
            sim_cells++;
            submitCell(baseline_cells[w], cfg, names[w], "baseline");
        }
    }

    /** Derive the per-workload normalization rows once the baseline
     *  cells have landed (collect() waited on them already). */
    void
    ensureBaselineRows()
    {
        if (!baselines.empty())
            return;
        for (std::size_t w = 0; w < names.size(); w++) {
            const SimResult &r = baseline_cells[w].result;
            ltrf_assert(r.ipc > 0.0, "baseline IPC of %s is zero",
                        names[w].c_str());
            baselines.push_back(
                    {r.ipc, r.activity.main_accesses_per_cycle});
        }
    }

    /** Fold @p p's cached rows over @p wsel into objectives. */
    PointResult
    fold(const DesignPoint &p, const std::vector<std::size_t> &wsel)
    {
        PointResult pr;
        pr.point = p;
        pr.model = makeRfConfig(p.modelPoint());
        const bool cached_design =
                usesRegCache(policyDesign(p.policy));

        const CacheRow &row =
                sim_cache.at(simKey(configFor(p, num_sms)));
        std::vector<double> norm_ipc;
        double energy_sum = 0.0;
        for (std::size_t w : wsel) {
            const SimResult &r = row.cells[w].result;
            norm_ipc.push_back(r.ipc / baselines[w].ipc);
            // rfPower() is normalized so the baseline design on
            // configuration #1 at the baseline access rate is 1.0,
            // so the per-workload quotient is rfPower itself.
            energy_sum += rfPower(pr.model, r.activity, cached_design,
                                  baselines[w].main_rate);
        }
        pr.obj.ipc = harness::ResultSet::geomean(norm_ipc);
        pr.obj.energy =
                energy_sum / static_cast<double>(wsel.size());
        // The 256KB baseline array is area 1.0; a cache-based design
        // spends cache_kb more KB of HP-SRAM next to the cores.
        pr.obj.area =
                pr.model.area +
                (cached_design ? p.cache_kb / 256.0 : 0.0);
        return pr;
    }

    harness::ExperimentRunner runner;
    std::vector<std::string> names;
    /** Persistent cell store (null = off). Internally locked; the
     *  worker tasks use it without taking mu. */
    std::unique_ptr<CellStore> store;
    int num_sms;
    std::uint64_t seed;
    obs::TraceSink *trace;
    bool progress;
    std::chrono::steady_clock::time_point t0;
    std::vector<BaselineRow> baselines;
    std::vector<Cell> baseline_cells;
    std::map<std::string, CacheRow> sim_cache;
    std::mutex mu;
    std::condition_variable cell_done;
    // Admission happens on one thread but workers read the counters
    // for the heartbeat and the in-flight track, so they are atomic.
    std::atomic<std::uint64_t> sim_cells{0};
    std::atomic<std::uint64_t> sim_reuse{0};
    std::atomic<std::uint64_t> cells_submitted{0};
    std::atomic<std::uint64_t> cells_landed{0};
    std::uint64_t row_inserts = 0;    ///< admission thread only
    std::vector<std::uint64_t> cell_us;    ///< guarded by mu
    std::set<int> named_tids;              ///< guarded by mu
    std::uint64_t next_beat_us = 0;        ///< guarded by mu
};

// ----- NSGA-II machinery (EVOLVE selection, HALVING promotion) -----

/**
 * Non-domination rank per objective vector: 0 for the Pareto set,
 * 1 for the Pareto set of the remainder, and so on (repeated
 * peeling, O(n^2) per front — populations are tens of points).
 */
std::vector<int>
nonDominationRanks(const std::vector<Objectives> &objs)
{
    const std::size_t n = objs.size();
    std::vector<int> rank(n, -1);
    std::size_t assigned = 0;
    for (int r = 0; assigned < n; r++) {
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n; i++) {
            if (rank[i] >= 0)
                continue;
            bool dom = false;
            for (std::size_t j = 0; j < n && !dom; j++)
                dom = j != i && rank[j] < 0 &&
                      dominates(objs[j], objs[i]);
            if (!dom)
                front.push_back(i);
        }
        for (std::size_t i : front)
            rank[i] = r;
        assigned += front.size();
    }
    return rank;
}

/**
 * NSGA-II crowding distance, computed per front: boundary points of
 * each objective get infinity, interior points accumulate the
 * normalized span of their neighbors. Sorts break ties on the index
 * so the result is deterministic.
 */
std::vector<double>
crowdingDistances(const std::vector<Objectives> &objs,
                  const std::vector<int> &rank)
{
    const std::size_t n = objs.size();
    std::vector<double> crowd(n, 0.0);
    const int max_rank =
            n ? *std::max_element(rank.begin(), rank.end()) : -1;
    auto axis = [](const Objectives &o, int a) {
        return a == 0 ? o.ipc : a == 1 ? o.energy : o.area;
    };
    for (int r = 0; r <= max_rank; r++) {
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n; i++)
            if (rank[i] == r)
                front.push_back(i);
        for (int a = 0; a < 3; a++) {
            std::sort(front.begin(), front.end(),
                      [&](std::size_t x, std::size_t y) {
                          const double vx = axis(objs[x], a);
                          const double vy = axis(objs[y], a);
                          if (vx != vy)
                              return vx < vy;
                          return x < y;
                      });
            const double lo = axis(objs[front.front()], a);
            const double hi = axis(objs[front.back()], a);
            crowd[front.front()] =
                    std::numeric_limits<double>::infinity();
            crowd[front.back()] =
                    std::numeric_limits<double>::infinity();
            if (hi <= lo)
                continue;
            for (std::size_t k = 1; k + 1 < front.size(); k++)
                crowd[front[k]] += (axis(objs[front[k + 1]], a) -
                                    axis(objs[front[k - 1]], a)) /
                                   (hi - lo);
        }
    }
    return crowd;
}

/** NSGA-II total order: rank up, crowding down, index up. */
bool
nsgaBetter(std::size_t a, std::size_t b, const std::vector<int> &rank,
           const std::vector<double> &crowd)
{
    if (rank[a] != rank[b])
        return rank[a] < rank[b];
    if (crowd[a] != crowd[b])
        return crowd[a] > crowd[b];
    return a < b;
}

/**
 * Order 0..n-1 by NSGA-II preference over @p objs (used both for
 * EVOLVE's environmental selection and HALVING's promotion cut).
 */
std::vector<std::size_t>
nsgaOrder(const std::vector<Objectives> &objs)
{
    const std::vector<int> rank = nonDominationRanks(objs);
    const std::vector<double> crowd = crowdingDistances(objs, rank);
    std::vector<std::size_t> order(objs.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return nsgaBetter(a, b, rank, crowd);
              });
    return order;
}

/** Registry-wise uniform crossover; auto axes (network pairing,
 *  derived interval length) are re-derived on the child. */
DesignPoint
crossover(const DesignPoint &a, const DesignPoint &b, Rng &rng,
          const DesignSpace &space)
{
    DesignPoint c;
    for (const AxisDesc &axis : axisRegistry())
        axis.set(c, rng.nextBool(0.5) ? axis.get(a) : axis.get(b));
    space.finalize(c);
    return c;
}

Json
pointToJson(const PointResult &pr)
{
    const DesignPoint &p = pr.point;
    Json j = Json::object();
    j.set("key", p.key());
    // The explicit axis map: one entry per registry axis, numeric
    // axes as numbers, token axes as their parseable CLI tokens.
    Json axes = Json::object();
    for (const AxisDesc &a : axisRegistry()) {
        if (a.numeric)
            axes.set(a.name, a.get(p));
        else
            axes.set(a.name, a.token(a.get(p)));
    }
    j.set("axes", std::move(axes));
    j.set("rf_config", pr.model.id);
    j.set("capacity", pr.model.capacity);
    j.set("area", pr.model.area);
    j.set("power", pr.model.power);
    j.set("latency", pr.model.latency);
    j.set("ipc", pr.obj.ipc);
    j.set("energy", pr.obj.energy);
    j.set("total_area", pr.obj.area);
    j.set("frontier", pr.on_frontier);
    j.set("resumed", pr.resumed);
    j.set("gen", pr.gen);
    return j;
}

/**
 * Draws the distinct-point sampler may spend on @p want points:
 * generous enough to fill a mostly-seen stripe, finite so an
 * exhausted one ends. Saturates instead of wrapping, so a budget near
 * 2^64 samples until the stripe runs out like any other large one.
 */
std::uint64_t
drawCap(std::uint64_t want)
{
    constexpr std::uint64_t MAX = std::numeric_limits<std::uint64_t>::max();
    return want > (MAX - 1024) / 64 ? MAX : want * 64 + 1024;
}

/** Workload indices 0..n-1: the first @p n of the active suite. */
std::vector<std::size_t>
firstWorkloads(std::size_t n)
{
    std::vector<std::size_t> sel(n);
    for (std::size_t w = 0; w < n; w++)
        sel[w] = w;
    return sel;
}

/**
 * The one admission path every strategy runs through. It owns
 *
 *  - the seen set: no strategy offers a point twice, and resumed
 *    points count as seen;
 *  - this run's shard stripe and the distinct-point sampler over it;
 *  - the budget, which caps the distinct candidates strategies claim
 *    (screened ones included; resumed points are free);
 *  - full-fidelity admission in POINT_BATCH slices, with at most
 *    MAX_DEPTH batches awaiting commit;
 *  - commits in admission order, with progress marks queued among
 *    them so each records the frontier exactly as the commits before
 *    it left it.
 *
 * Strategies interleave claims, admissions, and commits however
 * their data dependencies allow; the committed state sequence only
 * ever depends on the admission sequence.
 */
class AdmissionPipeline
{
  public:
    /** Seeds the frontier from opt.resume: the saved points enter
     *  res.evaluated first, with their saved objectives, unbudgeted
     *  and never re-simulated. */
    AdmissionPipeline(const DesignSpace &space, const ExploreOptions &opt,
                      Evaluator &ev, std::vector<std::size_t> all_sel,
                      DseResult &res);

    /** Record @p p as seen and count it toward the budget; false
     *  (and nothing counted) if it already was seen. */
    bool claim(const DesignPoint &p);

    std::uint64_t budgetLeft() const;

    /** A cursor over this run's stripe of the enumeration order. */
    PointCursor stripe() const;

    /** Up to @p want distinct unseen points drawn uniformly from the
     *  stripe with @p rng, each claimed as it is drawn. */
    std::vector<DesignPoint> sample(Rng &rng, std::uint64_t want);

    /** Stamp the points admitted from now on with generation @p g. */
    void generation(int g);

    /** Admit the claimed or screened @p p at full fidelity. */
    void admit(const DesignPoint &p);

    /** Record generation @p g's progress once everything admitted so
     *  far has committed. */
    void mark(int g);

    /** Commit everything admitted; @return the res.evaluated indices
     *  committed since the previous call. */
    std::vector<int> commitAll();

    /** Commit everything, then publish the frontier into res. */
    void finish();

    const ParetoFrontier &frontier() const { return front; }

  private:
    /** A queued admission batch, or a progress mark (empty ticket). */
    struct Entry
    {
        Evaluator::Ticket ticket;
        int gen;
        bool mark;
    };

    /** Insert @p p into the seen set, counting in-stripe keys. */
    bool insertSeen(const DesignPoint &p);
    /** Admit the partial batch, then commit down to MAX_DEPTH. */
    void flush();
    void commitFront();

    const DesignSpace &space;
    const ExploreOptions &opt;
    Evaluator &ev;
    const std::vector<std::size_t> all_sel;
    DseResult &res;
    ParetoFrontier front;

    /** The sampled stripe of the enumeration order: all of it for an
     *  unsharded run, the shard_index-th of shard_count balanced
     *  index ranges otherwise. */
    std::uint64_t stripe_lo = 0;
    std::uint64_t stripe_size = 0;
    std::set<std::string> seen;
    /** Seen keys inside the stripe: resumed points from a wider space
     *  (or another shard) must not make the sampler think the stripe
     *  is exhausted. */
    std::uint64_t in_stripe_seen = 0;
    std::uint64_t claimed = 0;

    std::vector<DesignPoint> batch;
    int gen = -1;
    std::deque<Entry> queue;
    std::vector<int> committed;
    std::uint64_t batches_committed = 0;
};

AdmissionPipeline::AdmissionPipeline(const DesignSpace &space_,
                                     const ExploreOptions &opt_,
                                     Evaluator &ev_,
                                     std::vector<std::size_t> all_sel_,
                                     DseResult &res_)
    : space(space_), opt(opt_), ev(ev_), all_sel(std::move(all_sel_)),
      res(res_)
{
    const std::uint64_t count =
            static_cast<std::uint64_t>(opt.shard_count);
    const std::uint64_t index =
            static_cast<std::uint64_t>(opt.shard_index);
    const std::uint64_t base = space.size() / count;
    const std::uint64_t rem = space.size() % count;
    stripe_lo = base * index + std::min(index, rem);
    stripe_size = base + (index < rem ? 1 : 0);

    if (opt.trace)
        opt.trace->threadName(Evaluator::POOL_PID, EXPLORER_TID,
                              "explorer");

    for (const SeedPoint &sp : opt.resume.points) {
        if (!insertSeen(sp.point))
            continue;
        PointResult pr;
        pr.point = sp.point;
        pr.model = makeRfConfig(sp.point.modelPoint());
        pr.obj = sp.obj;
        pr.resumed = true;
        front.insert(static_cast<int>(res.evaluated.size()), pr.obj);
        res.evaluated.push_back(std::move(pr));
        res.resumed++;
    }
}

bool
AdmissionPipeline::insertSeen(const DesignPoint &p)
{
    if (!seen.insert(p.key()).second)
        return false;
    if (space.contains(p)) {
        const std::uint64_t idx = space.indexOf(p);
        if (idx >= stripe_lo && idx - stripe_lo < stripe_size)
            in_stripe_seen++;
    }
    return true;
}

bool
AdmissionPipeline::claim(const DesignPoint &p)
{
    if (!insertSeen(p))
        return false;
    claimed++;
    return true;
}

std::uint64_t
AdmissionPipeline::budgetLeft() const
{
    if (opt.budget == 0)
        return std::numeric_limits<std::uint64_t>::max();
    return opt.budget > claimed ? opt.budget - claimed : 0;
}

PointCursor
AdmissionPipeline::stripe() const
{
    return PointCursor(space, stripe_lo, stripe_size);
}

std::vector<DesignPoint>
AdmissionPipeline::sample(Rng &rng, std::uint64_t want)
{
    std::vector<DesignPoint> out;
    std::uint64_t tries = drawCap(want);
    while (out.size() < want && in_stripe_seen < stripe_size &&
           tries > 0) {
        tries--;
        DesignPoint p =
                space.pointAt(stripe_lo + rng.nextBounded(stripe_size));
        if (claim(p))
            out.push_back(p);
    }
    return out;
}

void
AdmissionPipeline::generation(int g)
{
    flush();
    gen = g;
}

void
AdmissionPipeline::admit(const DesignPoint &p)
{
    batch.push_back(p);
    if (batch.size() == POINT_BATCH)
        flush();
}

void
AdmissionPipeline::flush()
{
    if (!batch.empty()) {
        queue.push_back({ev.begin(std::move(batch), all_sel), gen, false});
        batch.clear();
    }
    while (queue.size() > MAX_DEPTH)
        commitFront();
}

void
AdmissionPipeline::mark(int g)
{
    flush();
    queue.push_back({Evaluator::Ticket{}, g, true});
}

void
AdmissionPipeline::commitFront()
{
    const Entry e = std::move(queue.front());
    queue.pop_front();
    if (e.mark) {
        DseResult::GenStat s;
        s.gen = e.gen;
        s.evaluated = res.evaluated.size();
        s.frontier_size = front.size();
        s.hypervolume = hypervolume(front.objectives(), opt.hv_ref);
        res.progress.push_back(s);
        return;
    }
    batches_committed++;
    std::size_t added = 0;
    for (PointResult &pr : ev.collect(e.ticket)) {
        const int idx = static_cast<int>(res.evaluated.size());
        pr.gen = e.gen;
        front.insert(idx, pr.obj);
        res.evaluated.push_back(std::move(pr));
        committed.push_back(idx);
        added++;
    }
    if (opt.trace)
        opt.trace->instant(("commit batch " +
                            std::to_string(batches_committed) + " (+" +
                            std::to_string(added) + " points)")
                                   .c_str(),
                           Evaluator::POOL_PID, EXPLORER_TID,
                           opt.trace->wallUs());
}

std::vector<int>
AdmissionPipeline::commitAll()
{
    flush();
    while (!queue.empty())
        commitFront();
    return std::exchange(committed, {});
}

void
AdmissionPipeline::finish()
{
    commitAll();
    for (const ParetoFrontier::Member &m : front.members()) {
        res.frontier.push_back(m.point_index);
        res.evaluated[static_cast<std::size_t>(m.point_index)]
                .on_frontier = true;
    }
    res.hv = res.progress.empty() ? 0.0
                                  : res.progress.back().hypervolume;
}

// ----- Strategies: each drives the pipeline, none owns admission
// state of its own. -----

/** GRID: the stripe in enumeration order, skipping resumed points,
 *  up to the budget. */
void
runGrid(AdmissionPipeline &pipe)
{
    PointCursor cur = pipe.stripe();
    for (DesignPoint p; pipe.budgetLeft() > 0 && cur.next(p);)
        if (pipe.claim(p))
            pipe.admit(p);
    pipe.mark(0);
}

/** RANDOM: a budget of distinct samples from the seed's stream. */
void
runRandom(AdmissionPipeline &pipe, const ExploreOptions &opt)
{
    Rng rng(opt.seed);
    for (const DesignPoint &p : pipe.sample(rng, pipe.budgetLeft()))
        pipe.admit(p);
    pipe.mark(0);
}

/**
 * HILL_CLIMB: starting from the stripe's first point, expand the
 * best-IPC frontier member not yet expanded into its single-step
 * neighbors; once every in-space member has been expanded, restart
 * from a seeded sample.
 */
void
runHill(AdmissionPipeline &pipe, const DesignSpace &space,
        const ExploreOptions &opt, DseResult &res)
{
    PointCursor first = pipe.stripe();
    DesignPoint start;
    if (first.next(start) && pipe.claim(start))
        pipe.admit(start);
    pipe.commitAll();

    std::set<std::string> expanded;
    while (pipe.budgetLeft() > 0) {
        // Resumed members outside the restricted space still anchor
        // the frontier, but expanding them would step sideways out of
        // the space the user asked for (neighbors() only skips the
        // out-of-range axis itself).
        const DesignPoint *pick = nullptr;
        for (const ParetoFrontier::Member &m : pipe.frontier().members()) {
            const DesignPoint &p =
                    res.evaluated[static_cast<std::size_t>(m.point_index)]
                            .point;
            if (!expanded.count(p.key()) && space.contains(p)) {
                pick = &p;
                break;
            }
        }
        if (pick) {
            expanded.insert(pick->key());
            for (const DesignPoint &n : space.neighbors(*pick)) {
                if (pipe.budgetLeft() == 0)
                    break;
                if (pipe.claim(n))
                    pipe.admit(n);
            }
        } else {
            // Each restart draws from its own (seed, restart index)
            // stream, so restart K's sample cannot drift with how
            // many draws earlier restarts consumed.
            Rng rng(mixSeeds(opt.seed, STREAM_HILL_RESTART + res.restarts));
            res.restarts++;
            const std::vector<DesignPoint> restart = pipe.sample(rng, 1);
            if (restart.empty())
                break;    // stripe exhausted
            pipe.admit(restart.front());
        }
        pipe.commitAll();
    }
    pipe.mark(0);
}

/** The objectives of res.evaluated[i] for each i in @p idxs. */
std::vector<Objectives>
objectivesOf(const DseResult &res, const std::vector<int> &idxs)
{
    std::vector<Objectives> objs;
    objs.reserve(idxs.size());
    for (int i : idxs)
        objs.push_back(res.evaluated[static_cast<std::size_t>(i)].obj);
    return objs;
}

/** Binary tournament: the NSGA-II-better of two uniform draws from a
 *  population ranked by @p rank and @p crowd. */
std::size_t
tournament(Rng &rng, const std::vector<int> &rank,
           const std::vector<double> &crowd)
{
    const std::size_t a = rng.nextBounded(rank.size());
    const std::size_t b = rng.nextBounded(rank.size());
    return nsgaBetter(a, b, rank, crowd) ? a : b;
}

/**
 * EVOLVE: generation 0 is the in-space resumed points plus a seeded
 * random top-up; each later generation breeds up to a population of
 * unseen offspring (tournament, crossover, mutation) and keeps the
 * NSGA-II best of parents and offspring.
 */
void
runEvolve(AdmissionPipeline &pipe, const DesignSpace &space,
          const ExploreOptions &opt, DseResult &res)
{
    const std::uint64_t pop = static_cast<std::uint64_t>(opt.population);
    std::vector<int> population;
    for (std::size_t i = 0; i < res.resumed; i++)
        if (space.contains(res.evaluated[i].point))
            population.push_back(static_cast<int>(i));
    pipe.generation(0);
    // A resume with --generations 0 is a pure replay and evaluates
    // nothing.
    if (opt.generations > 0 || res.resumed == 0) {
        Rng rng(mixSeeds(opt.seed, STREAM_EVOLVE_INIT));
        const std::uint64_t top_up =
                pop > population.size() ? pop - population.size() : 0;
        for (const DesignPoint &p :
             pipe.sample(rng, std::min(pipe.budgetLeft(), top_up)))
            pipe.admit(p);
        const std::vector<int> added = pipe.commitAll();
        population.insert(population.end(), added.begin(), added.end());
    }
    pipe.mark(0);

    for (int g = 1; g <= opt.generations; g++) {
        if (population.size() < 2 || pipe.budgetLeft() == 0)
            break;
        pipe.generation(g);
        Rng rng(mixSeeds(opt.seed,
                         STREAM_EVOLVE_GEN + static_cast<std::uint64_t>(g)));
        const std::vector<Objectives> objs = objectivesOf(res, population);
        const std::vector<int> rank = nonDominationRanks(objs);
        const std::vector<double> crowd = crowdingDistances(objs, rank);

        // Breed up to a population of distinct, unseen offspring
        // (bounded attempts: a tight space or a converged population
        // may have nothing new to offer).
        const std::uint64_t want = std::min(pipe.budgetLeft(), pop);
        std::uint64_t bred = 0;
        for (std::uint64_t tries = want * 64 + 256; bred < want && tries > 0;
             tries--) {
            const std::size_t a = tournament(rng, rank, crowd);
            const std::size_t b = tournament(rng, rank, crowd);
            DesignPoint child = crossover(
                    res.evaluated[static_cast<std::size_t>(population[a])]
                            .point,
                    res.evaluated[static_cast<std::size_t>(population[b])]
                            .point,
                    rng, space);
            if (rng.nextBool(MUTATION_P)) {
                const std::vector<DesignPoint> nb = space.neighbors(child);
                if (!nb.empty())
                    child = nb[rng.nextBounded(nb.size())];
            }
            if (pipe.claim(child)) {
                pipe.admit(child);
                bred++;
            }
        }
        if (bred == 0) {
            pipe.mark(g);
            break;
        }

        // Environmental selection over parents + offspring.
        std::vector<int> pool = population;
        const std::vector<int> added = pipe.commitAll();
        pool.insert(pool.end(), added.begin(), added.end());
        const std::vector<std::size_t> order =
                nsgaOrder(objectivesOf(res, pool));
        population.clear();
        for (std::size_t k = 0; k < order.size() && k < pop; k++)
            population.push_back(pool[order[k]]);
        pipe.mark(g);
    }
}

/** HALVING's fidelity levels: workload index subsets, smallest
 *  first, each a subset of the next, the last the full suite. */
using RungSchedule = std::vector<std::vector<std::size_t>>;

/**
 * Resolve HALVING's rung schedule: --rungs builds K prefix subsets;
 * the default is the legacy two rungs [screening subset, all] with
 * the subset from explicit names or screen_count. Empty for the
 * other strategies.
 */
RungSchedule
rungSchedule(const ExploreOptions &opt,
             const std::vector<std::string> &names)
{
    RungSchedule rs;
    if (opt.strategy != Strategy::HALVING) {
        if (!opt.rungs.empty())
            ltrf_fatal("--rungs only applies to the halving strategy "
                       "(got --strategy %s)", strategyName(opt.strategy));
        return rs;
    }
    if (!opt.rungs.empty()) {
        if (!opt.screen_workloads.empty())
            ltrf_fatal("--rungs and an explicit --screen-workloads list "
                       "are mutually exclusive (the rung schedule "
                       "defines every screening subset)");
        if (opt.rungs.size() < 2)
            ltrf_fatal("--rungs needs at least two fidelity levels (a "
                       "screening rung and the full suite)");
        int prev = 0;
        for (std::size_t k = 0; k < opt.rungs.size(); k++) {
            const int n = opt.rungs[k] == 0    // "all"
                                  ? static_cast<int>(names.size())
                                  : opt.rungs[k];
            if (n < 1 || n > static_cast<int>(names.size()))
                ltrf_fatal("rung %zu asks for %d workloads but the "
                           "active suite has %zu", k, opt.rungs[k],
                           names.size());
            if (n <= prev)
                ltrf_fatal("rung workload counts must be strictly "
                           "increasing (rung %zu: %d after %d)", k, n,
                           prev);
            prev = n;
            rs.push_back(firstWorkloads(static_cast<std::size_t>(n)));
        }
        if (prev != static_cast<int>(names.size()))
            ltrf_fatal("the last rung must be the full suite (\"all\" or "
                       "%zu workloads); got %d", names.size(), prev);
        return rs;
    }

    std::vector<std::size_t> screen;
    if (!opt.screen_workloads.empty()) {
        for (const std::string &s : opt.screen_workloads) {
            const auto it = std::find(names.begin(), names.end(), s);
            if (it == names.end())
                ltrf_fatal("screening workload \"%s\" is not in the "
                           "active suite", s.c_str());
            const std::size_t w =
                    static_cast<std::size_t>(it - names.begin());
            if (std::find(screen.begin(), screen.end(), w) != screen.end())
                ltrf_fatal("screening workload \"%s\" listed twice",
                           s.c_str());
            screen.push_back(w);
        }
    } else {
        if (opt.screen_count < 1)
            ltrf_fatal("--screen-workloads must name at least one "
                       "workload");
        screen = firstWorkloads(std::min(
                static_cast<std::size_t>(opt.screen_count), names.size()));
    }
    return {std::move(screen), firstWorkloads(names.size())};
}

/** HALVING's per-rung cut: ceil(n * frac), at least one, at most n. */
std::size_t
promoteCut(std::size_t n, double frac)
{
    return std::min(n, std::max<std::size_t>(
                               1, static_cast<std::size_t>(std::ceil(
                                          static_cast<double>(n) * frac))));
}

/**
 * HALVING: every generation's pool is sampled and screened on the
 * first rung before any result is collected — sampling reads only
 * the seen set and the budget — so later generations' screens run
 * while earlier generations' promotions are in flight. Each pool
 * then cascades through the rung schedule: ranking a rung waits only
 * on that rung's cells, and a promotion reuses every cell screened
 * below it, simulating just the workloads the next rung adds.
 * Survivors reach full fidelity through the pipeline, so one
 * generation's stragglers never gate the next generation's rungs.
 */
void
runHalving(AdmissionPipeline &pipe, Evaluator &ev,
           const RungSchedule &rungs, const ExploreOptions &opt,
           DseResult &res)
{
    pipe.mark(0);
    std::vector<std::vector<DesignPoint>> pools;
    std::vector<Evaluator::Ticket> screens;
    for (int g = 0; g < opt.generations && pipe.budgetLeft() > 0; g++) {
        Rng rng(mixSeeds(opt.seed,
                         STREAM_HALVING_GEN + static_cast<std::uint64_t>(g)));
        std::vector<DesignPoint> pool = pipe.sample(
                rng, std::min(pipe.budgetLeft(),
                              static_cast<std::uint64_t>(opt.population)));
        if (pool.empty())
            break;    // stripe exhausted
        res.screened += pool.size();
        res.rung_screened[0] += pool.size();
        screens.push_back(ev.begin(pool, rungs[0]));
        pools.push_back(std::move(pool));
    }

    const std::size_t last = rungs.size() - 1;
    for (std::size_t gi = 0; gi < pools.size(); gi++) {
        const int gen = static_cast<int>(gi) + 1;
        std::vector<DesignPoint> &survivors = pools[gi];
        Evaluator::Ticket ticket = std::move(screens[gi]);
        for (std::size_t k = 0; k < last; k++) {
            std::vector<Objectives> objs;
            for (const PointResult &pr : ev.collect(ticket))
                objs.push_back(pr.obj);
            const std::vector<std::size_t> order = nsgaOrder(objs);
            const std::size_t promote =
                    promoteCut(survivors.size(), opt.promote_frac);
            std::vector<DesignPoint> next;
            next.reserve(promote);
            for (std::size_t j = 0; j < promote; j++)
                next.push_back(survivors[order[j]]);
            res.rung_promoted[k] += promote;
            if (opt.trace)
                opt.trace->instant(
                        ("gen " + std::to_string(gen) + " rung " +
                         std::to_string(k) + ": promote " +
                         std::to_string(promote) + "/" +
                         std::to_string(survivors.size()))
                                .c_str(),
                        Evaluator::POOL_PID, EXPLORER_TID,
                        opt.trace->wallUs());
            survivors = std::move(next);
            res.rung_screened[k + 1] += survivors.size();
            if (k + 1 < last) {
                // An intermediate rung: still below full fidelity, so
                // its points count as screened, not evaluated.
                res.screened += survivors.size();
                ticket = ev.begin(survivors, rungs[k + 1]);
            }
        }
        pipe.generation(gen);
        for (const DesignPoint &p : survivors)
            pipe.admit(p);
        pipe.mark(gen);
    }
}

// ----- explore() set-up -----

/** fatal() on options no strategy can run with. */
void
checkOptions(const ExploreOptions &opt)
{
    if ((opt.strategy == Strategy::RANDOM ||
         opt.strategy == Strategy::HILL_CLIMB) &&
        opt.budget == 0)
        ltrf_fatal("--budget is required for the %s strategy (grid "
                   "alone may walk the whole space)",
                   strategyName(opt.strategy));
    if (opt.strategy == Strategy::EVOLVE ||
        opt.strategy == Strategy::HALVING) {
        if (opt.population < 2)
            ltrf_fatal("--population must be >= 2 (got %d)",
                       opt.population);
        if (opt.generations < 0)
            ltrf_fatal("--generations must be >= 0 (got %d)",
                       opt.generations);
    }
    if (!(opt.promote_frac > 0.0 && opt.promote_frac < 1.0))
        ltrf_fatal("--promote-frac must be in (0, 1) (got %g)",
                   opt.promote_frac);
    if (opt.shard_count < 1 || opt.shard_index < 0 ||
        opt.shard_index >= opt.shard_count)
        ltrf_fatal("--shard %d/%d out of range (need 0 <= index < "
                   "count)", opt.shard_index, opt.shard_count);
}

/** The active suite: opt.workloads (each name checked), or all. */
std::vector<std::string>
activeWorkloads(const ExploreOptions &opt)
{
    std::vector<std::string> names = opt.workloads;
    if (names.empty())
        for (const Workload &w : WorkloadSuite::all())
            names.push_back(w.name);
    else
        for (const std::string &n : names)
            WorkloadSuite::byName(n);    // fatal(), listing names
    return names;
}

/**
 * A resumed frontier's objectives were measured under the saved
 * report's simulation parameters; mixing suites, SM counts, or
 * workload seeds would compare incomparable numbers. (A field absent
 * from the report cannot be checked.)
 */
void
checkResume(const ExploreOptions &opt,
            const std::vector<std::string> &names)
{
    const FrontierSeed &r = opt.resume;
    if (!r.workloads.empty() && r.workloads != names)
        ltrf_fatal("--resume report was measured on a different "
                   "workload suite (saved {%s}, active {%s}; order "
                   "matters)",
                   joined(r.workloads).c_str(), joined(names).c_str());
    if (r.has_num_sms && r.num_sms != opt.num_sms)
        ltrf_fatal("--resume report was measured at %d SMs, not %d",
                   r.num_sms, opt.num_sms);
    if (r.has_seed && r.seed != opt.seed)
        ltrf_fatal("--resume report used workload seed %llu, not %llu",
                   static_cast<unsigned long long>(r.seed),
                   static_cast<unsigned long long>(opt.seed));
}

} // namespace

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::GRID:       return "grid";
      case Strategy::RANDOM:     return "random";
      case Strategy::HILL_CLIMB: return "hill";
      case Strategy::EVOLVE:     return "evolve";
      case Strategy::HALVING:    return "halving";
    }
    return "?";
}

bool
parseStrategy(const std::string &name, Strategy &out)
{
    const std::string low = lowered(name);
    if (low == "grid") {
        out = Strategy::GRID;
        return true;
    }
    if (low == "random") {
        out = Strategy::RANDOM;
        return true;
    }
    if (low == "hill" || low == "hillclimb" || low == "hill-climb") {
        out = Strategy::HILL_CLIMB;
        return true;
    }
    if (low == "evolve" || low == "nsga" || low == "nsga2" ||
        low == "ea") {
        out = Strategy::EVOLVE;
        return true;
    }
    if (low == "halving" || low == "sh" ||
        low == "successive-halving") {
        out = Strategy::HALVING;
        return true;
    }
    return false;
}

DseResult
explore(const DesignSpace &space, const ExploreOptions &opt)
{
    space.validate();
    checkOptions(opt);
    const std::vector<std::string> names = activeWorkloads(opt);
    const RungSchedule rungs = rungSchedule(opt, names);
    if (!opt.resume.empty())
        checkResume(opt, names);

    DseResult res;
    res.strategy = opt.strategy;
    res.budget = opt.budget;
    res.seed = opt.seed;
    res.workloads = names;
    res.num_sms = opt.num_sms;
    res.space_size = space.size();
    if (opt.strategy == Strategy::EVOLVE ||
        opt.strategy == Strategy::HALVING) {
        res.generations = opt.generations;
        res.population = opt.population;
    }
    if (!rungs.empty())
        for (std::size_t w : rungs.front())
            res.screen_workloads.push_back(names[w]);
    res.promote_frac = opt.promote_frac;
    for (const std::vector<std::size_t> &sel : rungs)
        res.rungs.push_back(static_cast<int>(sel.size()));
    res.rung_screened.assign(rungs.size(), 0);
    res.rung_promoted.assign(rungs.size(), 0);
    res.shard_index = opt.shard_index;
    res.shard_count = opt.shard_count;
    res.hv_ref = opt.hv_ref;

    Evaluator ev(opt, names);
    AdmissionPipeline pipe(space, opt, ev, firstWorkloads(names.size()),
                           res);
    switch (opt.strategy) {
      case Strategy::GRID:
          runGrid(pipe);
          break;
      case Strategy::RANDOM:
          runRandom(pipe, opt);
          break;
      case Strategy::HILL_CLIMB:
          runHill(pipe, space, opt, res);
          break;
      case Strategy::EVOLVE:
          runEvolve(pipe, space, opt, res);
          break;
      case Strategy::HALVING:
          runHalving(pipe, ev, rungs, opt, res);
          break;
    }
    pipe.finish();

    res.sim_reuse = ev.simReuse();
    res.sim_cells = ev.simCells();
    if (const CellStore *cs = ev.cellStore())
        cs->stats().flatten(res.stats_lines);
    if (opt.progress)
        ev.informSummary();
    return res;
}

Json
DseResult::toJson() const
{
    Json root = Json::object();
    root.set("schema", "ltrf.dse.v4");
    root.set("strategy", strategyName(strategy));
    root.set("budget", budget);
    // As a string, like ResultSet seeds: doubles round above 2^53.
    root.set("seed", std::to_string(seed));
    root.set("num_sms", num_sms);
    // Frozen v4 fields, kept so v4 reports, goldens and digests stay
    // byte-identical: "prune" is true for random/hill, and
    // counters.pruned is always 0 (no sampled point is skipped).
    root.set("prune",
             strategy == Strategy::RANDOM ||
                     strategy == Strategy::HILL_CLIMB);
    root.set("space_size", space_size);
    root.set("shard_index", shard_index);
    root.set("shard_count", shard_count);
    root.set("generations", generations);
    root.set("population", population);
    if (!screen_workloads.empty()) {
        Json sw = Json::array();
        for (const std::string &w : screen_workloads)
            sw.push(w);
        root.set("screen_workloads", std::move(sw));
        root.set("promote_frac", promote_frac);
    }
    if (!rungs.empty()) {
        // The rung schedule and its per-rung counters (v4): how
        // many points entered each fidelity level and how many it
        // promoted, summed over generations.
        Json rc = Json::array();
        for (int n : rungs)
            rc.push(n);
        root.set("rungs", std::move(rc));
        Json rs = Json::array();
        for (std::uint64_t v : rung_screened)
            rs.push(v);
        root.set("rung_screened", std::move(rs));
        Json rp = Json::array();
        for (std::uint64_t v : rung_promoted)
            rp.push(v);
        root.set("rung_promoted", std::move(rp));
    }
    Json ref = Json::object();
    ref.set("ipc", hv_ref.ipc);
    ref.set("energy", hv_ref.energy);
    ref.set("area", hv_ref.area);
    root.set("hv_ref", std::move(ref));
    Json wl = Json::array();
    for (const std::string &w : workloads)
        wl.push(w);
    root.set("workloads", std::move(wl));

    Json counters = Json::object();
    counters.set("evaluated", std::uint64_t{evaluated.size()});
    counters.set("pruned", std::uint64_t{0});    // frozen, see "prune"
    counters.set("sim_reuse", sim_reuse);
    counters.set("sim_cells", sim_cells);
    counters.set("screened", screened);
    counters.set("resumed", resumed);
    counters.set("restarts", restarts);
    root.set("counters", std::move(counters));

    root.set("hypervolume", hv);
    Json prog = Json::array();
    for (const GenStat &s : progress) {
        Json j = Json::object();
        j.set("gen", s.gen);
        j.set("evaluated", s.evaluated);
        j.set("frontier_size", s.frontier_size);
        j.set("hypervolume", s.hypervolume);
        prog.push(std::move(j));
    }
    root.set("progress", std::move(prog));

    Json pts = Json::array();
    for (const PointResult &pr : evaluated)
        pts.push(pointToJson(pr));
    root.set("points", std::move(pts));

    Json front = Json::array();
    for (int idx : frontier)
        front.push(evaluated[static_cast<std::size_t>(idx)]
                           .point.key());
    root.set("frontier", std::move(front));
    return root;
}

std::string
DseResult::toCsv() const
{
    // Header and rows walk pointToJson()'s keys (the nested axis
    // map flattens to one column per registry axis), so the column
    // set cannot drift from the JSON schema. String fields are
    // RFC 4180-quoted; number/bool texts never need it.
    auto cell = [](const Json &v) {
        return v.type() == Json::Type::STRING
                       ? harness::csvField(v.asString())
                       : v.dump();
    };
    std::string out;
    for (std::size_t i = 0; i < evaluated.size(); i++) {
        const Json j = pointToJson(evaluated[i]);
        if (i == 0) {
            bool first = true;
            for (const auto &[key, v] : j.items()) {
                if (v.type() == Json::Type::OBJECT) {
                    for (const auto &[name, av] : v.items()) {
                        (void)av;
                        if (!first)
                            out += ',';
                        first = false;
                        out += name;
                    }
                    continue;
                }
                if (!first)
                    out += ',';
                first = false;
                out += key;
            }
            out += '\n';
        }
        bool first = true;
        for (const auto &[key, v] : j.items()) {
            (void)key;
            if (v.type() == Json::Type::OBJECT) {
                for (const auto &[name, av] : v.items()) {
                    (void)name;
                    if (!first)
                        out += ',';
                    first = false;
                    out += cell(av);
                }
                continue;
            }
            if (!first)
                out += ',';
            first = false;
            out += cell(v);
        }
        out += '\n';
    }
    // The per-generation hypervolume table, as a second CSV block.
    if (!progress.empty()) {
        if (!out.empty())
            out += '\n';
        out += "gen,evaluated,frontier_size,hypervolume\n";
        for (const GenStat &s : progress) {
            out += std::to_string(s.gen);
            out += ',' + std::to_string(s.evaluated);
            out += ',' + std::to_string(s.frontier_size);
            out += ',' + harness::jsonNumberText(s.hypervolume);
            out += '\n';
        }
    }
    return out;
}

std::string
DseResult::dumpAs(harness::OutputFormat format) const
{
    return format == harness::OutputFormat::CSV
                   ? toCsv()
                   : toJson().dump(2) + "\n";
}

} // namespace ltrf::dse
