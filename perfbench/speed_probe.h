/**
 * @file
 * Host-speed probe for the end-to-end run.
 *
 * The benchmark runs on shared hosts whose speed drifts by tens of percent
 * over minutes, with the load of other tenants, and that drift moves CPU
 * time as much as wall time. To take it out, a fixed
 * piece of host work that does not touch the simulator (probeWork) is timed
 * from a signal handler every kProbePeriodS of CPU time, on the thread that
 * runs the units. A unit's CPU time, less the probes' own, over the mean
 * probe time seen during the unit, is its cost in probe units: how
 * many times longer the unit took than the probe on the same host, at the
 * same moment. run.py turns the two into seconds at a reference host speed.
 *
 * All clocks here are the calling thread's: the units run on one thread
 * (sim_threads = 1), and a process-wide CPU timer would make the process CPU
 * clock advance only in scheduler ticks. The probe is armed only for
 * untraced passes (SpeedProbe's lifetime); a traced pass's spans must not
 * contain it.
 */
#ifndef MLGS_PERFBENCH_SPEED_PROBE_H
#define MLGS_PERFBENCH_SPEED_PROBE_H

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>

namespace perfbench
{

/** CPU nanoseconds used by the calling thread so far. */
inline uint64_t
cpuNanos()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return uint64_t(t.tv_sec) * 1000000000u + uint64_t(t.tv_nsec);
}

/** CPU seconds used by the calling thread so far. */
inline double
cpuSeconds()
{
    return 1e-9 * double(cpuNanos());
}

/** Thread CPU time between two probes. */
constexpr double kProbePeriodS = 0.1;

namespace detail
{

/** The probe's 4 MiB table: larger than a core's L2, so it reads the L3. */
constexpr uint32_t kProbeTableWords = 1u << 20;
inline uint32_t probe_table[kProbeTableWords];

inline std::atomic<uint64_t> probe_ns{0};    ///< summed over all probes
inline std::atomic<uint64_t> probe_count{0};
inline std::atomic<uint64_t> last_probe_ns{0};
inline std::atomic<uint64_t> probe_sink{0};

/**
 * The probe's work: dependent loads from the table, data-dependent branches,
 * stores, and integer and floating-point arithmetic, the mix the
 * simulator's own hot loops run. Returns its CPU nanoseconds.
 */
inline uint64_t
probeWork()
{
    const uint64_t t0 = cpuNanos();
    uint32_t x = 12345;
    uint64_t acc = 0;
    double f = 1.0;
    for (int k = 0; k < 200000; k++) {
        x = x * 1664525u + 1013904223u;
        const uint32_t v =
            probe_table[((x ^ uint32_t(acc)) >> 8) & (kProbeTableWords - 1)];
        if (v & 1)
            acc += v >> 3;
        else
            f = f * 0.999999 + double(v & 255) * 1e-9;
        if (v & 2)
            probe_table[(x >> 4) & (kProbeTableWords - 1)] ^= uint32_t(k);
        acc ^= acc << 7;
    }
    // Keep the result observable so the loop cannot be dropped.
    probe_sink.store(acc + uint64_t(f), std::memory_order_relaxed);
    return cpuNanos() - t0;
}

inline void
onProbeTimer(int)
{
    const int saved = errno;
    const uint64_t ns = probeWork();
    probe_ns.fetch_add(ns, std::memory_order_relaxed);
    last_probe_ns.store(ns, std::memory_order_relaxed);
    probe_count.fetch_add(1, std::memory_order_relaxed);
    errno = saved;
}

} // namespace detail

/** Fills the probe's table; call before the first probe. */
inline void
initProbe()
{
    for (uint32_t i = 0; i < detail::kProbeTableWords; i++)
        detail::probe_table[i] = i * 2654435761u;
}

/** Runs one probe now, outside the timer; its CPU seconds. */
inline double
probeSeconds()
{
    return 1e-9 * double(detail::probeWork());
}

/** Probe totals at one moment, for timing a unit between two marks. */
struct ProbeMark
{
    uint64_t cpu_ns;   ///< thread CPU time, probes included
    uint64_t probe_ns; ///< summed over all probes so far
    uint64_t probes;
    uint64_t last_ns;  ///< the most recent probe
};

inline ProbeMark
probeMark()
{
    return {cpuNanos(), detail::probe_ns.load(std::memory_order_relaxed),
            detail::probe_count.load(std::memory_order_relaxed),
            detail::last_probe_ns.load(std::memory_order_relaxed)};
}

/** CPU seconds between two marks, less the probes' own time. */
inline double
unitCpuSeconds(const ProbeMark &a, const ProbeMark &b)
{
    return 1e-9 * double((b.cpu_ns - a.cpu_ns) - (b.probe_ns - a.probe_ns));
}

/**
 * Mean probe seconds between two marks; the probe before the first mark if
 * none ran between them (0 if no probe has run at all).
 */
inline double
unitProbeSeconds(const ProbeMark &a, const ProbeMark &b)
{
    if (b.probes == a.probes)
        return 1e-9 * double(a.last_ns);
    return 1e-9 * double(b.probe_ns - a.probe_ns) / double(b.probes - a.probes);
}

/**
 * Arms the probe timer for its lifetime. One probe runs at construction, so
 * that every unit has one before it.
 */
class SpeedProbe
{
  public:
    SpeedProbe()
    {
        initProbe();
        detail::onProbeTimer(0);

        struct sigaction sa{};
        sa.sa_handler = detail::onProbeTimer;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);

        sigevent sev{};
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGPROF;
        sev._sigev_un._tid = gettid();
        armed_ = timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer_) == 0;
        if (armed_) {
            itimerspec its{};
            its.it_value.tv_nsec = long(kProbePeriodS * 1e9);
            its.it_interval = its.it_value;
            timer_settime(timer_, 0, &its, nullptr);
        }
    }

    ~SpeedProbe()
    {
        if (armed_)
            timer_delete(timer_);
    }

    SpeedProbe(const SpeedProbe &) = delete;
    SpeedProbe &operator=(const SpeedProbe &) = delete;

    bool armed() const { return armed_; }

  private:
    timer_t timer_{};
    bool armed_ = false;
};

} // namespace perfbench

#endif // MLGS_PERFBENCH_SPEED_PROBE_H
