/**
 * @file
 * Per-warp execution state.
 *
 * The scoreboard and address-generation arrays live in a WarpStateArena
 * (structure-of-arrays): one flat allocation per SM instead of two
 * heap vectors per warp, so the issue loop's scoreboard lookups walk
 * contiguous memory and warp construction costs no per-warp
 * allocations. Warp itself keeps only the hot scalars the scheduler
 * and issue loop touch every cycle.
 */

#ifndef LTRF_SIM_WARP_HH
#define LTRF_SIM_WARP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "compiler/trace_gen.hh"
#include "obs/stall.hh"

namespace ltrf
{

/**
 * Flat structure-of-arrays backing store for all resident warps'
 * scoreboard (reg_ready) and per-stream access counters. Owned by
 * the SM and constructed before its warps; Warp holds raw pointers
 * into it, so the arena must not move or resize while warps live.
 */
class WarpStateArena
{
  public:
    WarpStateArena(int num_warps, int num_regs, int num_streams)
        : num_regs_(num_regs), num_streams_(num_streams),
          reg_ready_(static_cast<std::size_t>(num_warps) *
                             static_cast<std::size_t>(num_regs),
                     0),
          stream_pos_(static_cast<std::size_t>(num_warps) *
                              static_cast<std::size_t>(num_streams),
                      0)
    {}

    /** Warp @p w's scoreboard: cycle each register's value lands. */
    Cycle *
    regReady(WarpId w)
    {
        return reg_ready_.data() +
               static_cast<std::size_t>(w) *
                       static_cast<std::size_t>(num_regs_);
    }

    /** Warp @p w's per-memory-stream access counters. */
    std::uint32_t *
    streamPos(WarpId w)
    {
        return stream_pos_.data() +
               static_cast<std::size_t>(w) *
                       static_cast<std::size_t>(num_streams_);
    }

  private:
    int num_regs_;
    int num_streams_;
    std::vector<Cycle> reg_ready_;
    std::vector<std::uint32_t> stream_pos_;
};

/** Two-level scheduler warp states (paper section 3.2). */
enum class WarpState
{
    INACTIVE_READY,   ///< in the inactive pool, eligible to activate
    ACTIVATING,       ///< activation (register refetch) in flight
    ACTIVE,           ///< in the active pool, may issue
    INACTIVE_WAIT,    ///< deactivated, waiting on a long-latency op
    FINISHED,         ///< reached EXIT
};

/** One warp's dynamic state in the SM pipeline. */
struct Warp
{
    Warp(WarpId id_, const WarpTrace *trace_, WarpStateArena &arena)
        : id(id_), trace(trace_), reg_ready(arena.regReady(id_)),
          stream_pos(arena.streamPos(id_))
    {}

    WarpId id;
    const WarpTrace *trace;
    std::size_t pc = 0;
    WarpState state = WarpState::INACTIVE_READY;
    /** ACTIVATING / INACTIVE_WAIT: cycle the condition resolves. */
    Cycle wait_until = 0;
    /** ACTIVE: earliest cycle the next issue attempt can succeed. */
    Cycle ready_at = 0;
    /**
     * Cycle the issue attempt that first found every operand
     * collector busy ran, or NEVER. While parked, the warp's pc and
     * scoreboard cannot change, so the SM re-settles it without
     * re-attempting until a collector frees; the issue that ends the
     * wait records it once (collector_wait, stall:collector).
     */
    Cycle parked_since = NEVER;
    /** Scoreboard: cycle each architectural register's value lands
     *  (points into the SM's WarpStateArena). */
    Cycle *reg_ready;
    /** Per memory stream access counter (address generation). */
    std::uint32_t *stream_pos;
    /** Dynamic (non-PREFETCH) instructions issued. */
    std::uint64_t issued = 0;
    /** Why ready_at was last pushed into the future (stall
     *  attribution; written unconditionally — a 1-byte store — read
     *  only when collect_stall_stats is on). COLLECTOR while parked. */
    obs::StallCause last_stall = obs::StallCause::SCOREBOARD;

    bool finished() const { return state == WarpState::FINISHED; }
    bool atEnd() const { return pc >= trace->refs.size(); }
};

} // namespace ltrf

#endif // LTRF_SIM_WARP_HH
