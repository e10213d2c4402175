/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * The benchmark opens a span around each of its own calls into a
 * layer of the library (compile, verify, Gpu construction, Gpu::run,
 * explore(), cell-store I/O, report emission). A span carries a name
 * ("layer.op"), start and end on the steady clock, its parent span,
 * and the cell it belongs to, so every span of one simulated cell
 * shares an identifier. Spans stay in memory until the end of the run
 * and are written out as Chrome trace-event JSON (Perfetto loads it).
 *
 * Self time of a span is its duration minus the union of the
 * intervals its children cover; children may overlap (pool cells
 * imported from the explorer's own trace run in parallel).
 *
 * A disabled recorder records nothing; a Scope on it costs a branch.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    /** Microseconds since the recorder was constructed. */
    double nowUs() const;

    /** Open a span nested in the innermost open one; -1 when off. */
    int open(const std::string &name, int cell);

    /** Close span @p id (the innermost open one). */
    void close(int id);

    /**
     * Record an already finished span under @p parent, e.g. a pool
     * cell the explorer traced on one of its worker threads.
     */
    void add(const std::string &name, int parent, int cell, int tid,
             double start_us, double end_us);

    /** One recorded span with its self time. */
    struct Row
    {
        std::string name;
        int cell = -1;
        double dur_us = 0.0;
        double self_us = 0.0;
    };

    /** Every span in recording order (index = span id). */
    std::vector<Row> rows() const;

    /** Chrome trace-event JSON: one "X" event per span. */
    std::string chromeJson() const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        int cell = -1;
        int tid = 0;
        double start = 0.0;
        double end = 0.0;
    };

    bool on;
    std::chrono::steady_clock::time_point t0;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const std::string &name, int cell = -1)
        : r(rec), id(rec.open(name, cell))
    {
    }
    ~Scope() { r.close(id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int spanId() const { return id; }

  private:
    SpanRecorder &r;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
