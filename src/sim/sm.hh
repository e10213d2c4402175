/**
 * @file
 * Streaming multiprocessor cycle model.
 *
 * Per cycle: the two-level scheduler refills the active pool, then
 * up to issue_width instructions issue from ready active warps in
 * round-robin order. Each issued instruction occupies an operand
 * collector until its source operands are collected through the
 * register file system (which models WCB lookups, cache/MRF bank
 * contention, and crossbars), then executes on its functional-unit
 * latency. A warp that finds every collector busy parks until one
 * frees (Warp::parked_since) instead of re-attempting its issue.
 * Global memory accesses walk the real cache hierarchy; an L1D miss
 * deactivates the warp until the data returns (the latency-hiding
 * the whole paper builds on).
 */

#ifndef LTRF_SIM_SM_HH
#define LTRF_SIM_SM_HH

#include <memory>
#include <vector>

#include "core/regfile_system.hh"
#include "mem/mem_system.hh"
#include "obs/stall.hh"
#include "sim/scheduler.hh"
#include "sim/warp.hh"

namespace ltrf
{

/** One streaming multiprocessor. */
class Sm
{
  public:
    /**
     * @param sm_id          index within the GPU
     * @param cfg            system configuration
     * @param cw             compiled workload (shared, read-only)
     * @param mem            shared memory hierarchy
     * @param resident_warps warps admitted by the occupancy model
     */
    Sm(int sm_id, const SimConfig &cfg, const CompiledWorkload &cw,
       MemSystem &mem, int resident_warps);

    /** Advance one cycle at global time @p now. */
    void step(Cycle now);

    /** @return true once every resident warp has finished. */
    bool
    done() const
    {
        return sched.finishedCount() ==
               static_cast<int>(warps.size());
    }

    /**
     * Earliest future cycle at which stepping can make progress.
     * Must follow step(@p now): the pool part of the bound comes
     * from that step's walk.
     */
    Cycle nextEvent(Cycle now) const;

    /** Dynamic (non-PREFETCH) instructions issued so far. */
    std::uint64_t instructionsIssued() const;

    const RegFileSystem &rf() const { return *regfile; }

    /** Pipeline introspection (diagnostics and tests). */
    struct PipeStats
    {
        std::uint64_t issued_sum = 0;      ///< slots used, PREFETCH too
        std::uint64_t dep_stalls = 0;      ///< attempts blocked on deps
        std::uint64_t deactivations = 0;
    };

    const PipeStats &pipeStats() const { return pipe; }

    /**
     * Close the stall account once the run is over: derives the
     * DRAIN remainder against @p total_cycles (panics if the live
     * attribution over-counted), backfills the derived counters into
     * the stat tree, and returns this SM's breakdown. Only
     * meaningful when collect_stall_stats was on.
     */
    obs::StallBreakdown finalizeStallStats(Cycle total_cycles);

    /** Flatten this SM's stat tree ("smN.stall.scoreboard", ...). */
    void
    flattenStats(std::vector<StatLine> &out) const
    {
        stat_root.flatten(out);
    }

    const StatGroup &statGroup() const { return stat_root; }

  private:
    /** Try to issue one instruction from @p w; true if a slot used. */
    bool tryIssue(Warp &w, Cycle now);

    /**
     * Index of an operand collector free at @p now, or -1. A scan
     * that finds every collector busy stores their earliest
     * busy-until in coll_free_at, so later calls answer -1 without
     * scanning until that cycle.
     */
    int freeCollector(Cycle now);

    /** Generate the cache-line address for a memory instruction. */
    std::uint64_t lineFor(Warp &w, const Instruction &in);

    int id;
    const SimConfig &config;
    const CompiledWorkload &compiled;
    MemSystem &mem;
    std::unique_ptr<RegFileSystem> regfile;
    /** SoA backing store for all warps' scoreboard/stream state;
     *  must be constructed before (and outlive) `warps`. */
    WarpStateArena arena;
    std::vector<Warp> warps;
    TwoLevelScheduler sched;
    std::vector<Cycle> collectors;  ///< busy-until per operand collector
    /**
     * No operand collector frees before this cycle: the earliest
     * busy-until the last all-busy scan found, and the cycle a
     * parked warp retries. It stays exact until it passes, since no
     * collector can be claimed while every one is busy.
     */
    Cycle coll_free_at = 0;
    /** Earliest ready_at (ACTIVE) / wait_until (ACTIVATING) over the
     *  pool the last step() walked; nextEvent()'s pool bound. */
    Cycle pool_wake = NEVER;
    /** Reused snapshot of the active pool (deactivations mutate the
     *  pool mid-issue); hoisted here so step() never allocates. */
    std::vector<WarpId> pool_scratch;
    PipeStats pipe;

    // ----- Observability (src/obs/) -----
    /** Attribute the fast-forwarded gap before a step at @p now. */
    void accountGap(Cycle now);

    bool collect;            ///< config.collect_stall_stats, cached
    obs::TraceSink *trace;   ///< null = per-warp tracing off
    int trace_pid;           ///< trace_pid_base + sm id
    /** Failure causes seen this cycle, in RR arbitration order;
     *  unused issue slots are attributed round-robin over them. */
    std::vector<obs::StallCause> fail_scratch;
    /** Cycle of the previous step (NEVER before the first). */
    Cycle prev_step = NEVER;

    // Live stall counters (DRAIN derived in finalizeStallStats).
    Counter stall_counters[obs::NUM_STALL_CAUSES];
    // Derived slot counters, backfilled at finalize.
    Counter stat_issue_slots;
    Counter stat_instructions;
    Counter stat_prefetch_slots;
    Counter stat_bank_conflicts;
    Distribution issue_per_cycle;   ///< issued per stepped cycle
    Distribution collector_wait;    ///< cycles parked, one per wait
    Distribution mem_stall;         ///< load-miss deactivation latency

    StatGroup stat_root;            ///< "smN"
    StatGroup stall_group;          ///< "smN.stall"
    StatGroup rf_group;             ///< "smN.rf"
    StatGroup sched_group;          ///< "smN.sched"
};

} // namespace ltrf

#endif // LTRF_SIM_SM_HH
