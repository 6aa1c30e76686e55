/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans come from two
 * places, both in the benchmark's own files:
 *
 *  - scopes the benchmark opens around its own calls into a layer (a workload
 *    unit, a torchlet or cudnn call, a Context construction), and
 *  - runtime API calls made by any layer, seen through cuda::ApiObserver.
 *
 * An observer callback is a single point in time, not an interval: some
 * calls notify before their work runs (a launch or an H2D copy notifies, then
 * enqueues onto the default stream, which drains synchronously), others after
 * it (loadModule, malloc, D2H, synchronize). The host time between two
 * consecutive events under the same parent is therefore given to exactly one
 * call: to the event that follows it if that event notifies after its work,
 * else to the event that precedes it if that one notifies before its work,
 * else to the parent scope's own (self) time. Runtime spans thus never
 * overlap, and every span's self time is its duration minus its children's.
 */
#ifndef MLGS_PERFBENCH_TRACER_H
#define MLGS_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/api_observer.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    const char *name; ///< static string: "<layer>.<call>"
    double start;     ///< seconds since the tracer's origin
    double end;
    int parent;       ///< index into the span list, -1 for a root
    int unit;         ///< workload unit id, -1 outside units (set-up)
    uint64_t bytes;   ///< payload of a copy, else 0
};

class Tracer : public mlgs::cuda::ApiObserver
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Unit id stamped on every span opened from now on. */
    void setUnit(int unit) { unit_ = unit; }

    /** Open a benchmark-side scope (closed by close(), innermost first). */
    void
    open(const char *name)
    {
        const double t = now();
        settle(t);
        stack_.push_back(push(name, t, t));
    }

    void
    close()
    {
        const double t = now();
        settle(t);
        spans_[size_t(stack_.back())].end = t;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Launch spans in observation order, with their kernel names. */
    const std::vector<int> &launchSpans() const { return launch_spans_; }
    const std::vector<std::string> &launchKernels() const
    {
        return launch_kernels_;
    }

    double duration(int i) const
    {
        return spans_[size_t(i)].end - spans_[size_t(i)].start;
    }

    /** Per-span self time: duration minus the children's durations. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); i++) {
            self[i] += duration(int(i));
            if (spans_[i].parent >= 0)
                self[size_t(spans_[i].parent)] -= duration(int(i));
        }
        return self;
    }

    /** Spans as a JSON array (times in seconds since the tracer's origin). */
    void
    write(std::FILE *f) const
    {
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                         "\"parent\": %d, \"unit\": %d, \"bytes\": %llu}%s\n",
                         s.name, s.start, s.end, s.parent, s.unit,
                         (unsigned long long)s.bytes,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
    }

    // ---- ApiObserver: calls that notify before their work runs ----
    void
    onLaunch(int, const std::string &kernel, const mlgs::Dim3 &,
             const mlgs::Dim3 &, const std::vector<uint8_t> &,
             unsigned) override
    {
        launch_spans_.push_back(before("runtime.launch"));
        launch_kernels_.push_back(kernel);
    }
    void
    onMemcpyH2D(mlgs::addr_t, const void *, size_t bytes, unsigned) override
    {
        before("runtime.copy", bytes);
    }
    void
    onMemcpyD2D(mlgs::addr_t, mlgs::addr_t, size_t bytes, unsigned) override
    {
        before("runtime.copy", bytes);
    }
    void
    onMemset(mlgs::addr_t, uint8_t, size_t, unsigned) override
    {
        before("runtime.other");
    }
    void onRecordEvent(unsigned, unsigned) override { before("runtime.other"); }
    void onWaitEvent(unsigned, unsigned) override { before("runtime.other"); }

    // ---- calls that notify after their work ran ----
    void
    onModuleLoaded(int, const std::string &, const std::string &) override
    {
        after("ptx.load");
    }
    void
    onMemcpyD2H(const void *, mlgs::addr_t, size_t bytes, unsigned) override
    {
        after("runtime.copy", bytes);
    }
    void onStreamSynchronize(unsigned) override { after("runtime.sync"); }
    void onDeviceSynchronize() override { after("runtime.sync"); }
    void onMalloc(mlgs::addr_t, size_t, size_t) override { after("runtime.other"); }
    void onFree(mlgs::addr_t) override { after("runtime.other"); }
    void onCreateStream(unsigned) override { after("runtime.other"); }
    void onDestroyStream(unsigned) override { after("runtime.other"); }
    void onCreateEvent(unsigned) override { after("runtime.other"); }
    void
    onMemcpyToSymbol(const std::string &, mlgs::addr_t, const void *,
                     size_t bytes) override
    {
        after("runtime.copy", bytes);
    }

  private:
    double now() const { return secondsBetween(origin_, Clock::now()); }

    int
    push(const char *name, double start, double end, uint64_t bytes = 0)
    {
        spans_.push_back(Span{name, start, end,
                              stack_.empty() ? -1 : stack_.back(), unit_,
                              bytes});
        return int(spans_.size()) - 1;
    }

    /** Close the pending before-call span (if any) at `t`; mark `t`. */
    void
    settle(double t)
    {
        if (pending_ >= 0)
            spans_[size_t(pending_)].end = t;
        pending_ = -1;
        mark_ = t;
    }

    int
    before(const char *name, uint64_t bytes = 0)
    {
        const double t = now();
        settle(t);
        pending_ = push(name, t, t, bytes);
        return pending_;
    }

    void
    after(const char *name, uint64_t bytes = 0)
    {
        const double t = now();
        // The gap since the last event already belongs to a pending
        // before-call span; otherwise it is this call's work.
        const double start = pending_ >= 0 ? t : mark_;
        settle(t);
        push(name, start, t, bytes);
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<int> launch_spans_;
    std::vector<std::string> launch_kernels_;
    int pending_ = -1;
    double mark_ = 0.0;
    int unit_ = -1;
};

/** RAII scope on an optional tracer (a no-op when tracing is off). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name) : t_(t)
    {
        if (t_)
            t_->open(name);
    }
    ~Scope()
    {
        if (t_)
            t_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
};

} // namespace perfbench

#endif // MLGS_PERFBENCH_TRACER_H
