#include "harness/bench.hh"

#include <chrono>
#include <thread>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/log.hh"
#include "harness/sweep.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

namespace ltrf::harness
{

namespace
{

const std::vector<RfDesign> BENCH_DESIGNS = {
        RfDesign::BL, RfDesign::RFC, RfDesign::LTRF, RfDesign::LTRF_PLUS};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
}

double
rate(std::uint64_t n, double wall_s)
{
    return wall_s > 0.0 ? static_cast<double>(n) / wall_s : 0.0;
}

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

std::string
designList(const BenchSuiteResult &s)
{
    std::vector<std::string> names;
    for (const BenchDesignResult &d : s.designs)
        names.push_back(rfDesignName(d.design));
    return joined(names);
}

} // namespace

BenchSuiteSpec
benchSuite(const std::string &name)
{
    BenchSuiteSpec s;
    s.name = name;
    s.designs = BENCH_DESIGNS;
    if (name == "default") {
        s.workloads = resolveWorkloads("all");
        s.num_sms = 4;
    } else if (name == "quick") {
        s.workloads = {"bfs", "btree", "streamcluster", "histo"};
        s.num_sms = 2;
    } else {
        ltrf_fatal("unknown bench suite \"%s\" (expected %s)",
                   name.c_str(), benchSuiteNames().c_str());
    }
    return s;
}

std::string
benchSuiteNames()
{
    return "default, quick";
}

BenchSuiteResult
runBenchSuite(const BenchSuiteSpec &spec)
{
    ltrf_assert(spec.reps >= 1, "bench reps must be >= 1, got %d",
                spec.reps);
    SweepSpec sweep;
    sweep.workloads = spec.workloads;
    sweep.designs = spec.designs;
    sweep.rf_cfg_ids = {spec.rf_cfg_id};
    sweep.num_sms = spec.num_sms;
    sweep.seed = spec.seed;
    std::vector<SweepCell> cells = expandSweep(sweep);

    BenchSuiteResult out;
    out.spec = spec;
    for (RfDesign d : spec.designs) {
        BenchDesignResult dr;
        dr.design = d;
        out.designs.push_back(dr);
    }

    for (SweepCell &cell : cells) {
        const Workload &w = WorkloadSuite::byName(cell.workload);
        // The bench measures simulator throughput; static verification
        // is covered by tests and `ltrf_run --verify-only`, so keep it
        // off the timed path.
        cell.config.verify_kernels = false;
        SimResult best_r;
        double best_wall = 0.0;
        for (int rep = 0; rep < spec.reps; rep++) {
            auto t0 = std::chrono::steady_clock::now();
            SimResult r = simulate(cell.config, w.kernel, cell.seed);
            double wall = secondsSince(t0);
            if (rep == 0 || wall < best_wall) {
                best_wall = wall;
                best_r = r;
            }
        }
        for (BenchDesignResult &dr : out.designs) {
            if (dr.design != cell.design)
                continue;
            dr.cells++;
            dr.instructions += best_r.instructions;
            dr.sim_cycles += best_r.cycles;
            dr.wall_s += best_wall;
        }
        out.cells++;
        out.instructions += best_r.instructions;
        out.sim_cycles += best_r.cycles;
        out.wall_s += best_wall;
    }

    for (BenchDesignResult &dr : out.designs) {
        dr.instr_per_s = rate(dr.instructions, dr.wall_s);
        dr.sim_cycles_per_s = rate(dr.sim_cycles, dr.wall_s);
    }
    out.cells_per_s = rate(static_cast<std::uint64_t>(out.cells),
                           out.wall_s);
    out.instr_per_s = rate(out.instructions, out.wall_s);
    out.sim_cycles_per_s = rate(out.sim_cycles, out.wall_s);
    return out;
}

Json
machineInfo()
{
    Json m = Json::object();
    std::string host = "unknown";
#ifdef __unix__
    char buf[256] = {0};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0')
        host = buf;
#endif
    m.set("host", host);
    m.set("cpus", static_cast<std::uint64_t>(
                          std::thread::hardware_concurrency()));
#if defined(__clang__)
    m.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    m.set("compiler", std::string("gcc ") + __VERSION__);
#else
    m.set("compiler", "unknown");
#endif
#ifdef NDEBUG
    m.set("assertions_off", true);
#else
    m.set("assertions_off", false);
#endif
    return m;
}

Json
BenchReport::toJson() const
{
    Json j = Json::object();
    j.set("bench_schema", schema);
    j.set("generated_by", "ltrf_bench");
    j.set("machine", machine);
    Json arr = Json::array();
    for (const BenchSuiteResult &s : suites) {
        Json js = Json::object();
        js.set("name", s.spec.name);
        Json wl = Json::array();
        for (const std::string &w : s.spec.workloads)
            wl.push(w);
        js.set("workloads", std::move(wl));
        js.set("rf_config", s.spec.rf_cfg_id);
        js.set("sms", s.spec.num_sms);
        js.set("seed", s.spec.seed);
        js.set("reps", s.spec.reps);
        js.set("cells", s.cells);
        js.set("wall_s", s.wall_s);
        js.set("cells_per_s", s.cells_per_s);
        js.set("instructions", s.instructions);
        js.set("sim_cycles", s.sim_cycles);
        js.set("instr_per_s", s.instr_per_s);
        js.set("sim_cycles_per_s", s.sim_cycles_per_s);
        if (s.prior_cells_per_s > 0.0) {
            js.set("prior_cells_per_s", s.prior_cells_per_s);
            js.set("speedup", s.speedup);
        }
        Json designs = Json::array();
        for (const BenchDesignResult &d : s.designs) {
            Json jd = Json::object();
            jd.set("design", rfDesignName(d.design));
            jd.set("cells", d.cells);
            jd.set("wall_s", d.wall_s);
            jd.set("instructions", d.instructions);
            jd.set("sim_cycles", d.sim_cycles);
            jd.set("instr_per_s", d.instr_per_s);
            jd.set("sim_cycles_per_s", d.sim_cycles_per_s);
            designs.push(std::move(jd));
        }
        js.set("designs", std::move(designs));
        arr.push(std::move(js));
    }
    j.set("suites", std::move(arr));
    return j;
}

BenchReport
BenchReport::fromJson(const Json &j)
{
    BenchReport r;
    r.schema = static_cast<int>(j.at("bench_schema").asInt());
    if (r.schema > BENCH_SCHEMA_VERSION)
        ltrf_fatal("bench report schema %d is newer than this "
                   "binary's %d",
                   r.schema, BENCH_SCHEMA_VERSION);
    if (j.contains("machine"))
        r.machine = j.at("machine");
    const Json &arr = j.at("suites");
    for (std::size_t i = 0; i < arr.size(); i++) {
        const Json &js = arr.at(i);
        BenchSuiteResult s;
        s.spec.name = js.at("name").asString();
        const Json &wl = js.at("workloads");
        for (std::size_t k = 0; k < wl.size(); k++)
            s.spec.workloads.push_back(wl.at(k).asString());
        s.spec.rf_cfg_id = static_cast<int>(js.at("rf_config").asInt());
        s.spec.num_sms = static_cast<int>(js.at("sms").asInt());
        s.spec.seed = js.at("seed").asUint();
        s.spec.reps = static_cast<int>(js.numberOr("reps", 1));
        s.cells = static_cast<int>(js.at("cells").asInt());
        s.wall_s = js.at("wall_s").asDouble();
        s.cells_per_s = js.at("cells_per_s").asDouble();
        s.instructions = js.at("instructions").asUint();
        s.sim_cycles = js.at("sim_cycles").asUint();
        s.instr_per_s = js.at("instr_per_s").asDouble();
        s.sim_cycles_per_s = js.at("sim_cycles_per_s").asDouble();
        s.prior_cells_per_s = js.numberOr("prior_cells_per_s", 0.0);
        s.speedup = js.numberOr("speedup", 0.0);
        const Json &designs = js.at("designs");
        for (std::size_t k = 0; k < designs.size(); k++) {
            const Json &jd = designs.at(k);
            BenchDesignResult d;
            d.design = parseRfDesign(jd.at("design").asString());
            d.cells = static_cast<int>(jd.at("cells").asInt());
            d.wall_s = jd.at("wall_s").asDouble();
            d.instructions = jd.at("instructions").asUint();
            d.sim_cycles = jd.at("sim_cycles").asUint();
            d.instr_per_s = jd.at("instr_per_s").asDouble();
            d.sim_cycles_per_s = jd.at("sim_cycles_per_s").asDouble();
            s.designs.push_back(d);
        }
        r.suites.push_back(std::move(s));
    }
    return r;
}

const BenchSuiteResult *
BenchReport::find(const std::string &name) const
{
    for (const BenchSuiteResult &s : suites)
        if (s.spec.name == name)
            return &s;
    return nullptr;
}

void
BenchReport::annotateSpeedup(const BenchReport &prior)
{
    for (BenchSuiteResult &s : suites) {
        const BenchSuiteResult *p = prior.find(s.spec.name);
        if (!p || p->cells_per_s <= 0.0)
            continue;
        s.prior_cells_per_s = p->cells_per_s;
        s.speedup = s.cells_per_s / p->cells_per_s;
    }
}

BenchComparison
compareBench(const BenchReport &baseline, const BenchReport &fresh,
             double tolerance)
{
    ltrf_assert(tolerance >= 0.0 && tolerance < 1.0,
                "tolerance must be in [0, 1), got %f", tolerance);
    BenchComparison out;
    auto exact = [&](const std::string &suite, const std::string &field,
                     const std::string &old_v, const std::string &new_v) {
        if (old_v != new_v)
            out.mismatches.push_back({suite, field, old_v, new_v});
    };
    auto check = [&](const std::string &suite, const std::string &metric,
                     double old_v, double new_v) {
        if (old_v <= 0.0)
            return;
        if (new_v >= old_v * (1.0 - tolerance))
            return;
        BenchRegression r;
        r.suite = suite;
        r.metric = metric;
        r.old_value = old_v;
        r.new_value = new_v;
        r.ratio = new_v / old_v;
        out.regressions.push_back(std::move(r));
    };
    bool compared_any = false;
    for (const BenchSuiteResult &old_s : baseline.suites) {
        const BenchSuiteResult *new_s = fresh.find(old_s.spec.name);
        if (!new_s)
            continue;
        compared_any = true;
        const std::string &name = old_s.spec.name;
        const BenchSuiteSpec &os = old_s.spec, &ns = new_s->spec;
        const std::size_t spec_mismatches = out.mismatches.size();
        exact(name, "workloads", joined(os.workloads),
              joined(ns.workloads));
        exact(name, "designs", designList(old_s), designList(*new_s));
        exact(name, "rf_config", std::to_string(os.rf_cfg_id),
              std::to_string(ns.rf_cfg_id));
        exact(name, "sms", std::to_string(os.num_sms),
              std::to_string(ns.num_sms));
        exact(name, "seed", std::to_string(os.seed),
              std::to_string(ns.seed));
        if (out.mismatches.size() != spec_mismatches)
            continue;

        check(name, "cells_per_s", old_s.cells_per_s, new_s->cells_per_s);
        // Equal design lists, so the designs pair up by index.
        for (std::size_t k = 0; k < old_s.designs.size(); k++) {
            const BenchDesignResult &od = old_s.designs[k];
            const BenchDesignResult &nd = new_s->designs[k];
            const std::string d = rfDesignName(od.design);
            exact(name, "instructions[" + d + "]",
                  std::to_string(od.instructions),
                  std::to_string(nd.instructions));
            exact(name, "sim_cycles[" + d + "]",
                  std::to_string(od.sim_cycles),
                  std::to_string(nd.sim_cycles));
            check(name, "instr_per_s[" + d + "]", od.instr_per_s,
                  nd.instr_per_s);
        }
    }
    if (!compared_any)
        ltrf_fatal("the two reports share no suite — nothing to "
                   "compare");
    return out;
}

} // namespace ltrf::harness
