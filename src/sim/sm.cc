#include "sim/sm.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/rng.hh"
#include "obs/trace_sink.hh"

namespace ltrf
{

namespace
{

/**
 * Regions are placed at hashed base addresses so that concurrent
 * warps' streams spread uniformly over cache sets and DRAM banks
 * (consecutive or arithmetically related bases alias into the same
 * index bits and fake conflict misses). The odd multiplier keeps
 * bases misaligned with power-of-two set counts while leaving
 * REGION_SPAN lines of room for the stream itself.
 */
constexpr std::uint64_t REGION_SPAN = 32771;

std::uint64_t
regionBase(std::uint64_t region)
{
    return (mixSeeds(region, 0x517e0ull) % (1ull << 40)) * REGION_SPAN;
}

std::vector<Warp>
makeWarps(const CompiledWorkload &cw, int resident_warps,
          WarpStateArena &arena)
{
    std::vector<Warp> out;
    out.reserve(static_cast<size_t>(resident_warps));
    for (int w = 0; w < resident_warps; w++)
        out.emplace_back(w, &cw.traces[w], arena);
    return out;
}

} // namespace

Sm::Sm(int sm_id, const SimConfig &cfg, const CompiledWorkload &cw,
       MemSystem &mem_, int resident_warps)
    : id(sm_id), config(cfg), compiled(cw), mem(mem_),
      regfile(makeRegFileSystem(cfg, cw, resident_warps)),
      arena(resident_warps, cw.kernel().num_regs,
            static_cast<int>(cw.kernel().mem_streams.size())),
      warps(makeWarps(cw, resident_warps, arena)),
      sched(cfg.num_active_warps, warps),
      collectors(static_cast<size_t>(cfg.num_operand_collectors), 0),
      collect(cfg.collect_stall_stats), trace(cfg.trace),
      trace_pid(cfg.trace_pid_base + sm_id),
      stat_root("sm" + std::to_string(sm_id)), stall_group("stall"),
      rf_group("rf"), sched_group("sched")
{
    ltrf_assert(resident_warps >= 1 &&
                resident_warps <= cfg.max_warps_per_sm,
                "resident warp count %d out of range", resident_warps);
    ltrf_assert(static_cast<size_t>(resident_warps) <= cw.traces.size(),
                "not enough traces for %d resident warps",
                resident_warps);

    // Stat-tree registration (once per SM; dumping is opt-in).
    for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
        stall_group.add(obs::stallCauseName(
                                static_cast<obs::StallCause>(c)),
                        &stall_counters[c]);
    stat_root.add("issue_slots", &stat_issue_slots);
    stat_root.add("instructions", &stat_instructions);
    stat_root.add("prefetch_slots", &stat_prefetch_slots);
    stat_root.addDist("issue_per_cycle", &issue_per_cycle);
    stat_root.addDist("collector_wait", &collector_wait);
    stat_root.addDist("mem_stall", &mem_stall);
    stat_root.addChild(&stall_group);
    regfile->registerStats(rf_group);
    rf_group.add("bank_conflict_cycles", &stat_bank_conflicts);
    stat_root.addChild(&rf_group);
    sched.registerStats(sched_group);
    stat_root.addChild(&sched_group);

    if (trace)
        trace->processName(
                trace_pid,
                cw.kernel().name + "/" +
                        std::string(rfDesignName(cfg.design)) + " sm" +
                        std::to_string(sm_id));
}

int
Sm::freeCollector(Cycle now)
{
    if (now < coll_free_at)
        return -1;
    Cycle earliest = NEVER;
    for (size_t i = 0; i < collectors.size(); i++) {
        if (collectors[i] <= now)
            return static_cast<int>(i);
        earliest = std::min(earliest, collectors[i]);
    }
    coll_free_at = earliest;
    return -1;
}

std::uint64_t
Sm::lineFor(Warp &w, const Instruction &in)
{
    const MemStreamSpec &spec =
            compiled.kernel().mem_streams[in.mem_stream];
    std::uint64_t pos = w.stream_pos[in.mem_stream]++;
    std::uint64_t within =
            (pos % static_cast<std::uint64_t>(spec.working_set_lines)) *
            static_cast<std::uint64_t>(spec.stride_lines);
    // Shared streams use one region for all warps and SMs
    // (inter-warp reuse); private streams get disjoint regions.
    ltrf_assert(static_cast<std::uint64_t>(spec.working_set_lines) *
                static_cast<std::uint64_t>(spec.stride_lines) <=
                REGION_SPAN,
                "memory stream exceeds its region span");
    std::uint64_t region =
            static_cast<std::uint64_t>(in.mem_stream) * 4096 +
            (spec.shared_across_warps
                     ? 0
                     : 1 + static_cast<std::uint64_t>(id) * 64 +
                               static_cast<std::uint64_t>(w.id));
    return regionBase(region) + within;
}

bool
Sm::tryIssue(Warp &w, Cycle now)
{
    const Kernel &kernel = compiled.kernel();

    // Skip no-op PREFETCHes for free; a triggered PREFETCH blocks the
    // warp until the working set arrives and consumes the slot.
    while (!w.atEnd()) {
        const TraceRef &ref = w.trace->refs[w.pc];
        const Instruction &in = kernel.block(ref.bb).instrs[ref.idx];
        if (in.op != Opcode::PREFETCH)
            break;
        Cycle done = regfile->prefetch(w.id, ref.bb, in, now);
        w.pc++;
        if (done > now) {
            w.ready_at = done;
            w.last_stall = obs::StallCause::PREFETCH_WAIT;
            if (trace)
                trace->complete("prefetch", trace_pid, w.id, now,
                                done - now);
            return true;
        }
    }
    ltrf_assert(!w.atEnd(), "warp %d ran past its trace", w.id);

    const TraceRef &ref = w.trace->refs[w.pc];
    const Instruction &in = kernel.block(ref.bb).instrs[ref.idx];

    // Scoreboard: all sources ready, destination write ordered.
    Cycle dep = now;
    for (RegId s : in.srcs)
        if (s != INVALID_REG)
            dep = std::max(dep, w.reg_ready[s]);
    if (in.hasDst())
        dep = std::max(dep, w.reg_ready[in.dst]);
    if (dep > now) {
        w.ready_at = dep;
        w.last_stall = obs::StallCause::SCOREBOARD;
        pipe.dep_stalls++;
        if (trace)
            trace->complete("stall:scoreboard", trace_pid, w.id, now,
                            dep - now);
        return false;
    }

    if (in.op == Opcode::EXIT) {
        w.pc++;
        w.issued++;
        sched.finish(w, *regfile, now);
        return true;
    }

    // Structural hazard: need a free operand collector. None frees
    // before coll_free_at, so the warp parks with its next attempt
    // deferred to that cycle; step() re-settles it there without
    // re-attempting for as long as every collector stays busy.
    int c = freeCollector(now);
    if (c < 0) {
        w.ready_at = coll_free_at;
        w.last_stall = obs::StallCause::COLLECTOR;
        w.parked_since = now;
        return false;
    }

    Cycle ops_ready = regfile->readOperands(w.id, in, now);
    collectors[c] = ops_ready;
    if (w.parked_since != NEVER) {
        const Cycle waited = now - w.parked_since;
        if (collect)
            collector_wait.sample(waited);
        if (trace)
            trace->complete("stall:collector", trace_pid, w.id,
                            w.parked_since, waited);
        w.parked_since = NEVER;
    }
    w.pc++;
    w.issued++;
    if (trace)
        trace->complete("issue", trace_pid, w.id, now, ops_ready - now);

    if (isGlobalMem(in.op)) {
        MemAccessResult res = mem.accessGlobal(id, lineFor(w, in),
                                               isStore(in.op), ops_ready);
        if (isLoad(in.op)) {
            w.reg_ready[in.dst] = res.done;
            if (!res.l1_hit) {
                // Long-latency miss: the two-level scheduler swaps
                // the warp out; the result lands in the MRF.
                regfile->writeResult(w.id, in, res.done, false);
                sched.deactivate(w, res.done, *regfile, now);
                pipe.deactivations++;
                if (collect)
                    mem_stall.sample(res.done - ops_ready);
                if (trace)
                    trace->complete("memwait", trace_pid, w.id,
                                    ops_ready, res.done - ops_ready);
            } else {
                regfile->writeResult(w.id, in, res.done, true);
                w.ready_at = now + 1;
            }
        } else {
            // Stores retire through write buffers; the warp runs on.
            w.ready_at = now + 1;
        }
    } else {
        Cycle done = ops_ready + execLatency(in.op);
        if (in.hasDst()) {
            w.reg_ready[in.dst] = done;
            regfile->writeResult(w.id, in, done, true);
        }
        w.ready_at = now + 1;
    }
    return true;
}

void
Sm::accountGap(Cycle now)
{
    // Attribute the fast-forwarded cycles since the previous step.
    // The pool has not been re-ticked yet, so it still holds exactly
    // the warps that were asleep across the gap; the slots go to the
    // cause of the warp whose wake time ends the gap (what the SM
    // was actually waiting for), or NO_READY_WARP on an empty pool.
    if (prev_step == NEVER) {
        prev_step = now;
        return;
    }
    Cycle gap = now - prev_step - 1;
    prev_step = now;
    if (gap == 0)
        return;
    obs::StallCause cause = obs::StallCause::NO_READY_WARP;
    Cycle best = NEVER;
    for (WarpId wid : sched.activePool()) {
        const Warp &w = warps[wid];
        Cycle t = w.state == WarpState::ACTIVE ? w.ready_at
                                               : w.wait_until;
        if (t < best) {
            best = t;
            cause = w.state == WarpState::ACTIVE
                            ? w.last_stall
                            : obs::StallCause::PREFETCH_WAIT;
        }
    }
    stall_counters[static_cast<int>(cause)] +=
            gap * static_cast<std::uint64_t>(config.issue_width);
}

void
Sm::step(Cycle now)
{
    if (collect)
        accountGap(now);

    sched.tick(now, *regfile);

    // Snapshot the pool: deactivations mutate it mid-loop. The
    // assignment reuses pool_scratch's capacity, so no allocation.
    pool_scratch = sched.activePool();
    const std::vector<WarpId> &pool = pool_scratch;
    pool_wake = NEVER;
    if (pool.empty()) {
        if (collect) {
            stall_counters[static_cast<int>(
                    obs::StallCause::NO_READY_WARP)] +=
                    static_cast<std::uint64_t>(config.issue_width);
            issue_per_cycle.sample(0);
        }
        return;
    }
    int issued = 0;
    int n = static_cast<int>(pool.size());
    int start = sched.rrIndex() % n;
    if (collect)
        fail_scratch.clear();
    // One walk of the pool: the warps in front attempt to issue, and
    // every warp's wake time (after its attempt) feeds pool_wake,
    // nextEvent()'s pool bound. A warp that just deactivated or
    // finished has left the pool and no longer counts.
    Cycle next = NEVER;
    auto wake = [&next](const Warp &w) {
        if (w.state == WarpState::ACTIVE)
            next = std::min(next, w.ready_at);
        else if (w.state == WarpState::ACTIVATING)
            next = std::min(next, w.wait_until);
    };
    // start + k < 2n, so a conditional subtract replaces the modulo
    // in this per-cycle loop.
    auto at = [&](int k) -> Warp & {
        int idx = start + k;
        return warps[pool[idx >= n ? idx - n : idx]];
    };
    int k = 0;
    for (; k < n && issued < config.issue_width; k++) {
        Warp &w = at(k);
        if (w.state != WarpState::ACTIVE || w.ready_at > now) {
            if (collect)
                fail_scratch.push_back(
                        w.state == WarpState::ACTIVE
                                ? w.last_stall
                                : obs::StallCause::PREFETCH_WAIT);
        } else if (w.parked_since != NEVER && freeCollector(now) < 0) {
            // Still no free collector: the retry would fail exactly
            // as the parking attempt did, so settle it in place.
            w.ready_at = coll_free_at;
            if (collect)
                fail_scratch.push_back(obs::StallCause::COLLECTOR);
        } else if (tryIssue(w, now)) {
            issued++;
        } else if (collect) {
            fail_scratch.push_back(w.last_stall);
        }
        wake(w);
    }
    for (; k < n; k++)
        wake(at(k));
    pool_wake = next;
    pipe.issued_sum += static_cast<std::uint64_t>(issued);
    if (issued > 0)
        sched.advanceRr();
    if (collect) {
        issue_per_cycle.sample(static_cast<std::uint64_t>(issued));
        // Unused slots round-robin over this cycle's failure causes
        // (NO_READY_WARP when every pool warp issued but the pool is
        // narrower than the issue width).
        int unused = config.issue_width - issued;
        for (int i = 0; i < unused; i++) {
            obs::StallCause c =
                    fail_scratch.empty()
                            ? obs::StallCause::NO_READY_WARP
                            : fail_scratch[static_cast<std::size_t>(i) %
                                           fail_scratch.size()];
            stall_counters[static_cast<int>(c)]++;
        }
    }
}

Cycle
Sm::nextEvent(Cycle now) const
{
    // Equivalent to scanning every resident warp, but built from the
    // scheduler's incremental bookkeeping: the active pool holds
    // exactly the ACTIVE/ACTIVATING warps (step() folded their wake
    // times into pool_wake), nextTransition() bounds every
    // ACTIVATING/INACTIVE_WAIT wait_until from below (and the
    // ACTIVATING ones are already covered exactly by pool_wake), and
    // the ready queue holds exactly the INACTIVE_READY warps.
    if (done())
        return NEVER;
    Cycle e = std::max(pool_wake, now + 1);
    if (sched.waitCount() > 0)
        e = std::min(e, std::max(sched.nextTransition(), now + 1));
    if (sched.readyCount() > 0 &&
        static_cast<int>(sched.activePool().size()) <
                config.num_active_warps)
        e = std::min(e, now + 1);
    return e;
}

std::uint64_t
Sm::instructionsIssued() const
{
    std::uint64_t n = 0;
    for (const Warp &w : warps)
        n += w.issued;
    return n;
}

obs::StallBreakdown
Sm::finalizeStallStats(Cycle total_cycles)
{
    obs::StallBreakdown b;
    b.issue_slots = static_cast<std::uint64_t>(total_cycles) *
                    static_cast<std::uint64_t>(config.issue_width);
    b.instructions = instructionsIssued();
    // tryIssue() returns true (slot consumed) for triggered
    // PREFETCHes without bumping Warp::issued, so the difference is
    // exactly the slots PREFETCH occupied.
    ltrf_assert(pipe.issued_sum >= b.instructions,
                "issued slots below instruction count");
    b.prefetch_slots = pipe.issued_sum - b.instructions;
    for (int c = 0; c < obs::NUM_LIVE_STALL_CAUSES; c++)
        b.stalls[c] = stall_counters[c].value();
    std::uint64_t used = b.accountedSlots();
    // The real over-count check: live attribution must never claim
    // more slots than the run had. The remainder is DRAIN — cycles
    // after this SM finished while others kept the clock running.
    ltrf_assert(used <= b.issue_slots,
                "stall attribution over-counted: %llu of %llu slots",
                static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(b.issue_slots));
    std::uint64_t drain = b.issue_slots - used;
    b.stalls[static_cast<int>(obs::StallCause::DRAIN)] = drain;
    stall_counters[static_cast<int>(obs::StallCause::DRAIN)] += drain;
    b.bank_conflict_cycles = regfile->bankConflictCycles();

    // Backfill the derived counters so the flattened tree is a
    // complete account too.
    stat_issue_slots += b.issue_slots;
    stat_instructions += b.instructions;
    stat_prefetch_slots += b.prefetch_slots;
    stat_bank_conflicts += b.bank_conflict_cycles;
    return b;
}

} // namespace ltrf
