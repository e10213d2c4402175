/**
 * @file
 * Reproduces paper Table 4: the average, minimum, and maximum
 * dynamic length of real register-intervals versus optimal ones.
 *
 * Real lengths: dynamic instructions between PREFETCH events on the
 * interval-transformed kernel. Optimal lengths: the greedy best-case
 * segmentation of the same execution trace with no control-flow
 * constraints (section 6.5). The paper finds the real average is 89%
 * of optimal — control flow barely limits interval length.
 *
 * The per-workload analyses (compiler passes + 8 sampled warp
 * traces) are independent, so they run on the ExperimentRunner pool
 * into preassigned slots; --jobs N bounds the worker count.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "compiler/prefetch_insert.hh"
#include "compiler/trace_gen.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

using namespace ltrf;

int
main(int argc, char **argv)
{
    SimConfig cfg;
    const int warps_sampled = 8;
    const std::vector<Workload> &suite = WorkloadSuite::all();

    // One task per workload, writing its stats to its own slot.
    std::vector<IntervalLengthStats> real_by_wl(suite.size());
    std::vector<IntervalLengthStats> opt_by_wl(suite.size());
    harness::ExperimentRunner runner(bench::jobsFromArgs(argc, argv));
    for (std::size_t i = 0; i < suite.size(); i++)
        runner.submit([&, i] {
            const Workload &w = suite[i];
            FormationOptions opt;
            opt.max_regs = cfg.regs_per_interval;
            IntervalAnalysis ia = formRegisterIntervals(w.kernel, opt);
            insertPrefetchOps(ia);
            for (int wi = 0; wi < warps_sampled; wi++) {
                WarpTrace t =
                        generateTrace(ia.kernel, mixSeeds(2018, wi));
                real_by_wl[i].merge(realIntervalLengths(ia, t));
                opt_by_wl[i].merge(optimalIntervalLengths(
                        ia.kernel, t, opt.max_regs));
            }
        });
    runner.drain();

    std::printf("Table 4: register-interval dynamic lengths (N=%d)\n\n",
                cfg.regs_per_interval);
    std::printf("%-16s %21s %21s %8s\n", "", "real (avg/min/max)",
                "optimal (avg/min/max)", "ratio");

    IntervalLengthStats real_all, opt_all;
    for (std::size_t i = 0; i < suite.size(); i++) {
        const IntervalLengthStats &real = real_by_wl[i];
        const IntervalLengthStats &optimal = opt_by_wl[i];
        std::printf("%-16s %8.1f /%4llu /%5llu %8.1f /%4llu /%5llu %7.2f\n",
                    suite[i].name.c_str(), real.avg,
                    static_cast<unsigned long long>(real.min),
                    static_cast<unsigned long long>(real.max),
                    optimal.avg,
                    static_cast<unsigned long long>(optimal.min),
                    static_cast<unsigned long long>(optimal.max),
                    real.avg / optimal.avg);
        real_all.merge(real);
        opt_all.merge(optimal);
    }

    std::printf("%-16s %8.1f /%4llu /%5llu %8.1f /%4llu /%5llu %7.2f\n",
                "SUITE", real_all.avg,
                static_cast<unsigned long long>(real_all.min),
                static_cast<unsigned long long>(real_all.max),
                opt_all.avg,
                static_cast<unsigned long long>(opt_all.min),
                static_cast<unsigned long long>(opt_all.max),
                real_all.avg / opt_all.avg);

    std::printf("\nPaper reference: real 31.2/7/45 vs optimal "
                "34.7/9/53 — real is ~89%% of optimal.\n");
    return 0;
}
