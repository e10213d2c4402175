#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

SpanRecorder::SpanRecorder(bool enabled)
    : on(enabled), t0(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0)
            .count();
}

int
SpanRecorder::open(const std::string &name, int cell)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.cell = cell >= 0 || stack.empty() ? cell : spans[stack.back()].cell;
    s.start = nowUs();
    spans.push_back(std::move(s));
    const int id = static_cast<int>(spans.size()) - 1;
    stack.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans[id].end = nowUs();
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

void
SpanRecorder::add(const std::string &name, int parent, int cell, int tid,
                  double start_us, double end_us)
{
    if (!on)
        return;
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    s.tid = tid;
    s.start = start_us;
    s.end = end_us;
    spans.push_back(std::move(s));
}

std::vector<SpanRecorder::Row>
SpanRecorder::rows() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);

    std::vector<Row> out;
    out.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0.0;
        double cur_lo = 0.0, cur_hi = -1.0;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        Row r;
        r.name = s.name;
        r.cell = s.cell;
        r.dur_us = s.end - s.start;
        r.self_us = r.dur_us - covered;
        out.push_back(std::move(r));
    }
    return out;
}

std::string
SpanRecorder::chromeJson() const
{
    std::string out = "{\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"perfbench\"}}";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                      "{\"id\":%zu,\"parent\":%d,\"cell\":%d}}",
                      s.name.c_str(), s.tid, s.start, s.end - s.start, i,
                      s.parent, s.cell);
        out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

} // namespace perfbench
