/**
 * @file
 * Multi-threaded experiment runner.
 *
 * Each (workload, config) cell of a sweep is an independent Gpu
 * instance, so the runner executes cells on one persistent
 * work-stealing pool of std::threads, fed through submit()/drain().
 * Idle workers steal the next task from a shared queue the moment
 * they finish their current one, so a straggler task never gates
 * tasks submitted after it — the foundation of the DSE engine's
 * cell-level pipeline, where the next candidate batch's cells run
 * while a previous batch's slow cell is still simulating. Callers
 * that need a specific task's output synchronize on their own
 * completion flags; drain() waits for everything.
 *
 * run() is a sweep on that same pool: each cell writes its result to
 * a preassigned index, so results are in sweep order and
 * bit-identical regardless of the job count — the property the CI
 * determinism guard (`--jobs 1` vs `--jobs 8`) checks.
 *
 * When a BaselineCache is supplied, run() first warms it for every
 * distinct workload in the sweep (as pool work, so baselines also
 * run in parallel) and then attaches baseline IPCs to every row for
 * normalization.
 */

#ifndef LTRF_HARNESS_RUNNER_HH
#define LTRF_HARNESS_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/baseline_cache.hh"
#include "harness/result_set.hh"
#include "harness/sweep.hh"

namespace ltrf::harness
{

class ExperimentRunner
{
  public:
    /**
     * @param jobs worker thread count; 0 picks the hardware
     *             concurrency, 1 runs inline without spawning.
     */
    explicit ExperimentRunner(int jobs = 0);

    /** Joins the pool after finishing submitted work. */
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * Execute every cell of @p cells on the pool (in parallel up to
     * the job count) and collect results in cell order. If
     * @p baselines is non-null, each row is normalized against its
     * workload's baseline IPC from that cache.
     */
    ResultSet run(const std::vector<SweepCell> &cells,
                  BaselineCache *baselines = nullptr);

    /**
     * Enqueue @p task on the pool and return immediately.
     * The pool's workers (spawned lazily on the first submit) pull
     * tasks in submission order, but completion order is whatever
     * the hardware gives — the task must publish its output through
     * its own synchronization. With 1 job the task runs inline
     * before submit() returns, which keeps single-threaded runs
     * deterministic and debuggable.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void drain();

    int jobs() const { return num_jobs; }

    /**
     * Pool observability: the deepest the shared queue ever got, and
     * the most tasks ever queued + running at once. Both 0 with 1 job
     * (submit() runs inline).
     */
    std::size_t queueHighWater();
    std::size_t inFlightHighWater();

  private:
    void workerLoop();

    int num_jobs;

    // Pool state. The queue is deliberately simple: one
    // mutex-guarded deque all workers steal from. Simulation cells
    // run for milliseconds to seconds, so queue contention is noise,
    // and a single queue keeps submission order = start order, which
    // makes the pipeline's admission-order commits easy to reason
    // about.
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex pool_mu;
    std::condition_variable work_ready;
    std::condition_variable pool_idle;
    std::size_t in_flight = 0;    ///< queued + running tasks
    bool stopping = false;
    std::size_t queue_hwm = 0;    ///< max queue depth observed
    std::size_t in_flight_hwm = 0;///< max in_flight observed
};

} // namespace ltrf::harness

#endif // LTRF_HARNESS_RUNNER_HH
