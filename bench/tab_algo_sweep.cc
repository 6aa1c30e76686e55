/**
 * @file
 * Section V methodology table: simulated cycles and IPC for every cuDNN
 * convolution algorithm the paper iterates over in conv_sample (forward,
 * backward data, backward filter), plus the DESIGN.md ablations: GTO vs LRR
 * scheduling and FR-FCFS vs FCFS DRAM scheduling.
 *
 * `tab_algo_sweep --replay [N]` runs the same sweep through the trace
 * subsystem instead: each configuration is recorded once, then run live and
 * replayed straight from the trace in N interleaved trials (default 5), with
 * every run's timing totals checked bitwise against the first live run.
 * Runs are timed in thread CPU seconds. Emits BENCH_trace_replay.json with
 * the median per-trial replay/live ratio, its range, and the
 * record-once-replay-N speedup.
 */
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "bench/trace_workloads.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

void
sweep(Pass pass, const char *title, const std::vector<int> &algos)
{
    std::printf("\n%s\n", title);
    std::printf("  %-32s %12s %8s %8s %8s\n", "algorithm", "cycles", "IPC",
                "L2 hit", "rowhit");
    double best_ipc = -1;
    std::string best;
    for (const int a : algos) {
        const auto res = runConvSample(pass, a);
        const auto &t = res.totals;
        const double l2 =
            (t.l2_hits + t.l2_misses)
                ? double(t.l2_hits) / double(t.l2_hits + t.l2_misses)
                : 0.0;
        const double rh =
            (t.dram_row_hits + t.dram_row_misses)
                ? double(t.dram_row_hits) /
                      double(t.dram_row_hits + t.dram_row_misses)
                : 0.0;
        std::printf("  %-32s %12llu %8.2f %7.0f%% %7.0f%%\n",
                    res.algo_name.c_str(),
                    (unsigned long long)res.total_cycles, res.ipc, 100 * l2,
                    100 * rh);
        if (res.ipc > best_ipc) {
            best_ipc = res.ipc;
            best = res.algo_name;
        }
    }
    std::printf("  highest IPC: %s\n", best.c_str());
}

// ---- trace-replay mode (--replay [N]) ----

bool
totalsEqual(const timing::TimingTotals &a, const timing::TimingTotals &b)
{
    return a.cycles == b.cycles &&
           a.warp_instructions == b.warp_instructions &&
           a.thread_instructions == b.thread_instructions && a.alu == b.alu &&
           a.sfu == b.sfu && a.mem_insts == b.mem_insts &&
           a.shared_accesses == b.shared_accesses && a.l1_hits == b.l1_hits &&
           a.l1_misses == b.l1_misses && a.l2_hits == b.l2_hits &&
           a.l2_misses == b.l2_misses && a.icnt_flits == b.icnt_flits &&
           a.dram_reads == b.dram_reads && a.dram_writes == b.dram_writes &&
           a.dram_row_hits == b.dram_row_hits &&
           a.dram_row_misses == b.dram_row_misses &&
           a.core_active_cycles == b.core_active_cycles &&
           a.core_idle_cycles == b.core_idle_cycles;
}

const char *
passName(Pass p)
{
    switch (p) {
      case Pass::Forward: return "forward";
      case Pass::BackwardData: return "bwd_data";
      case Pass::BackwardFilter: return "bwd_filter";
    }
    return "?";
}

std::vector<ConvTraceSpec>
sweepSpecs()
{
    std::vector<ConvTraceSpec> specs;
    const auto add = [&](Pass pass, int algo) {
        ConvTraceSpec s;
        s.pass = pass;
        s.algo = algo;
        specs.push_back(s);
    };
    for (int a = 0; a <= int(cudnn::ConvFwdAlgo::WinogradNonfused); a++)
        add(Pass::Forward, a);
    for (int a = 0; a <= int(cudnn::ConvBwdDataAlgo::WinogradNonfused); a++)
        add(Pass::BackwardData, a);
    for (int a = 0; a <= int(cudnn::ConvBwdFilterAlgo::WinogradNonfused); a++)
        add(Pass::BackwardFilter, a);
    return specs;
}

int
replaySweep(int trials)
{
    printHeader("Algo sweep (trace replay)",
                "record each configuration once, replay from the trace");
    std::printf("  %d interleaved live/replay trials per configuration, "
                "thread CPU time, every run checked bitwise against the "
                "first live run\n\n", trials);
    std::printf("  %-10s %-32s %10s %10s %10s %8s\n", "pass", "algorithm",
                "live ms", "record ms", "replay ms", "speedup");

    double live_total = 0, record_total = 0, replay_total = 0;
    // Per-trial sweep totals: trial t sums every configuration's t-th run.
    std::vector<double> live_trial(size_t(trials), 0.0);
    std::vector<double> replay_trial(size_t(trials), 0.0);
    std::string rows;
    bool all_match = true;

    for (const auto &spec : sweepSpecs()) {
        // Record run: the live workload with a TraceRecorder observing, also
        // capturing the warp instruction streams for trace-driven replay.
        // It doubles as the warm-up of this configuration's trials.
        const double t_rec = threadCpuSeconds();
        trace::TraceFile trace;
        std::shared_ptr<const func::WarpStreamCache> streams;
        {
            cuda::Context ctx(convTraceOptions(spec));
            trace::TraceRecorder rec(ctx);
            rec.captureWarpStreams();
            runConvFrontend(ctx, spec);
            rec.detach();
            trace = rec.finalize();
            streams = rec.warpStreams();
        }
        const double record_ms = (threadCpuSeconds() - t_rec) * 1e3;

        // Interleaved trials, so a live run and its replay share host
        // conditions. Live: exactly what the live sweep does per
        // configuration — frontend + simulation with the AerialVision
        // sampler attached. Replay: trace-driven timing-only, with no
        // frontend and no functional execution in the loop. A replayer fatal
        // (address / payload fidelity assert) must not abort the sweep: count
        // it as a mismatch so the JSON is still written and the process exit
        // stays nonzero for CI.
        const trace::TraceReplayer rep(std::move(trace));
        std::vector<double> live_ms, replay_ms;
        std::optional<timing::TimingTotals> first_live;
        bool match = true;
        std::string replay_error;
        for (int t = 0; t < trials; t++) {
            double t0 = threadCpuSeconds();
            const timing::TimingTotals live =
                runConvSample(spec.pass, spec.algo, spec.shape, 256,
                              spec.sched, spec.frfcfs)
                    .totals;
            live_ms.push_back((threadCpuSeconds() - t0) * 1e3);
            if (!first_live)
                first_live = live;
            match = match && totalsEqual(*first_live, live);

            t0 = threadCpuSeconds();
            try {
                const auto run = replayTrace(rep, nullptr, streams.get());
                match = match && totalsEqual(*first_live, run.totals);
            } catch (const std::exception &e) {
                match = false;
                replay_error = e.what();
            }
            replay_ms.push_back((threadCpuSeconds() - t0) * 1e3);
            live_trial[size_t(t)] += live_ms.back();
            replay_trial[size_t(t)] += replay_ms.back();
        }
        all_match = all_match && match;
        if (!replay_error.empty())
            std::printf("  REPLAY FAILED: %s\n", replay_error.c_str());

        const double live_med = median(live_ms);
        const double replay_med = median(replay_ms);
        live_total += live_med;
        record_total += record_ms;
        replay_total += replay_med;

        const char *algo = convAlgoName(spec);
        std::printf("  %-10s %-32s %10.1f %10.1f %10.1f %7.1fx%s\n",
                    passName(spec.pass), algo, live_med, record_ms,
                    replay_med, live_med / replay_med,
                    match ? "" : "  MISMATCH");

        char row[512];
        std::snprintf(row, sizeof row,
                      "    {\"pass\": \"%s\", \"algo\": \"%s\", "
                      "\"live_ms\": %.3f, \"record_ms\": %.3f, "
                      "\"replay_ms\": %.3f, \"cycles\": %llu, "
                      "\"bitwise_match\": %s},\n",
                      passName(spec.pass), algo, live_med, record_ms,
                      replay_med, (unsigned long long)first_live->cycles,
                      match ? "true" : "false");
        rows += row;
    }
    if (!rows.empty())
        rows.erase(rows.size() - 2, 1); // trailing comma

    std::vector<double> ratios;
    for (int t = 0; t < trials; t++)
        ratios.push_back(live_trial[size_t(t)] / replay_trial[size_t(t)]);
    const double replay_speedup = median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    // Sweep cost model: N live sweeps vs record-once + N replays.
    const double sweep_speedup =
        live_total * trials / (record_total + replay_total * trials);

    std::ofstream os("BENCH_trace_replay.json", std::ios::binary);
    os << "{\n"
       << "  \"build_meta\": " << buildMetaJson() << ",\n"
       << "  \"repeat\": " << trials << ",\n"
       << "  \"replay_mode\": \"timing_only_warp_stream\",\n"
       << "  \"timer\": \"thread_cpu\",\n"
       << "  \"all_bitwise_match\": " << (all_match ? "true" : "false")
       << ",\n"
       << "  \"live_ms_total\": " << live_total << ",\n"
       << "  \"record_ms_total\": " << record_total << ",\n"
       << "  \"replay_ms_total\": " << replay_total << ",\n"
       << "  \"replay_speedup_vs_live\": " << replay_speedup << ",\n"
       << "  \"replay_speedup_vs_live_range\": [" << *lo << ", " << *hi
       << "],\n"
       << "  \"sweep_speedup_record_once_replay_n\": " << sweep_speedup
       << ",\n"
       << "  \"rows\": [\n"
       << rows << "  ]\n"
       << "}\n";

    std::printf("\n  replay speedup vs live: %.2fx (median of %d trials, "
                "range %.2f-%.2f); %d-replay sweep (record once): %.2fx vs "
                "live re-execution\n",
                replay_speedup, trials, *lo, *hi, trials, sweep_speedup);
    std::printf("  all replays bitwise-identical to live: %s\n",
                all_match ? "yes" : "NO");
    std::printf("  wrote BENCH_trace_replay.json\n");
    return all_match ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--replay") == 0)
        return replaySweep(argc > 2 ? std::max(1, std::atoi(argv[2])) : 5);

    printHeader("Algo sweep", "conv_sample across every cuDNN algorithm "
                              "(GTX1080Ti model)");

    sweep(Pass::Forward, "FORWARD",
          {int(cudnn::ConvFwdAlgo::ImplicitGemm),
           int(cudnn::ConvFwdAlgo::Gemm), int(cudnn::ConvFwdAlgo::Fft),
           int(cudnn::ConvFwdAlgo::FftTiling),
           int(cudnn::ConvFwdAlgo::Winograd),
           int(cudnn::ConvFwdAlgo::WinogradNonfused)});
    sweep(Pass::BackwardData, "BACKWARD DATA",
          {int(cudnn::ConvBwdDataAlgo::Algo0),
           int(cudnn::ConvBwdDataAlgo::Algo1),
           int(cudnn::ConvBwdDataAlgo::FftTiling),
           int(cudnn::ConvBwdDataAlgo::Winograd),
           int(cudnn::ConvBwdDataAlgo::WinogradNonfused)});
    sweep(Pass::BackwardFilter, "BACKWARD FILTER",
          {int(cudnn::ConvBwdFilterAlgo::Algo0),
           int(cudnn::ConvBwdFilterAlgo::Algo1),
           int(cudnn::ConvBwdFilterAlgo::Algo3),
           int(cudnn::ConvBwdFilterAlgo::Fft),
           int(cudnn::ConvBwdFilterAlgo::FftTiling),
           int(cudnn::ConvBwdFilterAlgo::WinogradNonfused)});

    // Ablations (DESIGN.md section 4).
    std::printf("\nABLATIONS (forward, Winograd Nonfused)\n");
    for (const auto sched :
         {timing::SchedPolicy::GTO, timing::SchedPolicy::LRR}) {
        const auto res =
            runConvSample(Pass::Forward,
                          int(cudnn::ConvFwdAlgo::WinogradNonfused), {}, 256,
                          sched, true);
        std::printf("  scheduler %-4s: %10llu cycles, IPC %.2f\n",
                    sched == timing::SchedPolicy::GTO ? "GTO" : "LRR",
                    (unsigned long long)res.total_cycles, res.ipc);
    }
    for (const bool frfcfs : {true, false}) {
        const auto res = runConvSample(Pass::Forward,
                                       int(cudnn::ConvFwdAlgo::Fft), {}, 256,
                                       timing::SchedPolicy::GTO, frfcfs);
        const auto &t = res.totals;
        const double rh =
            (t.dram_row_hits + t.dram_row_misses)
                ? double(t.dram_row_hits) /
                      double(t.dram_row_hits + t.dram_row_misses)
                : 0.0;
        std::printf("  DRAM %-8s: %10llu cycles, row-hit %.0f%%\n",
                    frfcfs ? "FR-FCFS" : "FCFS",
                    (unsigned long long)res.total_cycles, 100 * rh);
    }
    return 0;
}
