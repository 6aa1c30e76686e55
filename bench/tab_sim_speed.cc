/**
 * @file
 * Section III-F claims, as a google-benchmark table: Performance mode is
 * ~7-8x slower (wall clock) than Functional mode, and checkpointing lets a
 * user fast-forward functionally and pay the detailed-model cost only for
 * the region of interest. Also emits BENCH_sim_speed.json — a
 * machine-readable record of simulator throughput (kernels/sec,
 * warp-instrs/sec, thread CPU seconds) in functional and performance mode,
 * so the perf trajectory is tracked across changes.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <vector>

#include "bench/bench_util.h"
#include "chkpt/checkpoint.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

/** What one conv-workload run executed (throughput denominators). */
struct WorkloadCounts
{
    uint64_t kernels = 0;
    uint64_t warp_instructions = 0;
};

/** A mid-sized conv workload used for mode-speed comparison. */
WorkloadCounts
runConvWorkload(cuda::SimMode mode, func::ExecMode exec = func::ExecMode::Auto)
{
    cuda::ContextOptions opts;
    opts.mode = mode;
    opts.gpu = timing::GpuConfig::gtx1050();
    opts.exec_mode = exec;
    cuda::Context ctx(opts);
    cudnn::CudnnHandle h(ctx);

    const cudnn::TensorDesc xd(2, 8, 14, 14);
    const cudnn::FilterDesc wd(8, 8, 3, 3);
    const cudnn::ConvDesc conv{1, 1};
    const cudnn::TensorDesc yd = conv.outputDim(xd, wd);
    const addr_t x = ctx.malloc(xd.bytes());
    const addr_t w = ctx.malloc(wd.bytes());
    const addr_t y = ctx.malloc(yd.bytes());
    h.convolutionForward(xd, x, wd, w, conv, cudnn::ConvFwdAlgo::ImplicitGemm,
                         yd, y);
    h.convolutionForward(xd, x, wd, w, conv,
                         cudnn::ConvFwdAlgo::WinogradNonfused, yd, y);
    ctx.deviceSynchronize();

    WorkloadCounts counts;
    counts.kernels = ctx.launchLog().size();
    counts.warp_instructions = ctx.totalWarpInstructions();
    if (mode == cuda::SimMode::Performance)
        counts.warp_instructions = ctx.gpuModel().totals().warp_instructions;
    return counts;
}

void
BM_FunctionalMode(benchmark::State &state)
{
    for (auto _ : state)
        runConvWorkload(cuda::SimMode::Functional);
}
BENCHMARK(BM_FunctionalMode)->Unit(benchmark::kMillisecond);

void
BM_PerformanceMode(benchmark::State &state)
{
    for (auto _ : state)
        runConvWorkload(cuda::SimMode::Performance);
}
BENCHMARK(BM_PerformanceMode)->Unit(benchmark::kMillisecond);

/** Checkpoint fast-forward: functional prefix + detailed tail. */
void
BM_CheckpointResumeTail(benchmark::State &state)
{
    // Write the checkpoint once.
    const char *path = "/tmp/mlgs_bench.ckpt";
    const char *kScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";
    const unsigned n = 1 << 16;
    auto runApp = [&](cuda::Context &ctx) {
        ctx.loadModule(kScale, "scale.ptx");
        const addr_t buf = ctx.malloc(n * 4);
        std::vector<float> host(n, 1.0f);
        ctx.memcpyH2D(buf, host.data(), n * 4);
        cuda::KernelArgs args;
        args.ptr(buf).u32(n).f32(1.0001f);
        for (int i = 0; i < 8; i++)
            ctx.launch("scale_buf", Dim3(n / 128), Dim3(128), args);
        ctx.deviceSynchronize();
    };
    {
        cuda::Context ctx;
        chkpt::CheckpointConfig cfg;
        cfg.kernel_x = 7; // detailed-simulate only the last kernel
        cfg.path = path;
        chkpt::CheckpointWriter writer(ctx, cfg);
        runApp(ctx);
    }
    for (auto _ : state) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.gpu = timing::GpuConfig::gtx1050();
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "pre.ptx"); // loader requires the kernel
        chkpt::CheckpointLoader loader(ctx, path);
        runApp(ctx);
    }
}
BENCHMARK(BM_CheckpointResumeTail)->Unit(benchmark::kMillisecond);

void
BM_FullPerformanceRun(benchmark::State &state)
{
    const char *kScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";
    const unsigned n = 1 << 16;
    for (auto _ : state) {
        cuda::ContextOptions opts;
        opts.mode = cuda::SimMode::Performance;
        opts.gpu = timing::GpuConfig::gtx1050();
        cuda::Context ctx(opts);
        ctx.loadModule(kScale, "scale.ptx");
        const addr_t buf = ctx.malloc(n * 4);
        std::vector<float> host(n, 1.0f);
        ctx.memcpyH2D(buf, host.data(), n * 4);
        cuda::KernelArgs args;
        args.ptr(buf).u32(n).f32(1.0001f);
        for (int i = 0; i < 8; i++)
            ctx.launch("scale_buf", Dim3(n / 128), Dim3(128), args);
        ctx.deviceSynchronize();
    }
}
BENCHMARK(BM_FullPerformanceRun)->Unit(benchmark::kMillisecond);

// ---- machine-readable sim-speed records ----

/**
 * Interleaved trials per record. A trial times a fixed number of workload
 * runs of each leg back to back, so both legs of a trial share host
 * conditions; the record keeps the median trial and the trials' range.
 */
constexpr int kTrials = 7;

/** CPU seconds of the calling thread (the simulator runs on it). */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** One timed configuration of the conv workload. */
struct SpeedPoint
{
    const char *label;
    cuda::SimMode mode;
    func::ExecMode exec;
    int runs_per_trial; ///< fixed work per trial, sized to ~1 s or more
    std::vector<double> run_seconds{}; ///< CPU seconds per run, per trial
    WorkloadCounts counts{};

    /** Run the leg's fixed work once; CPU seconds per workload run. */
    double
    trial()
    {
        const double t0 = threadCpuSeconds();
        for (int r = 0; r < runs_per_trial; r++)
            counts = runConvWorkload(mode, exec);
        run_seconds.push_back((threadCpuSeconds() - t0) / runs_per_trial);
        return run_seconds.back();
    }

    double seconds() const { return median(run_seconds); }

    double
    instrsPerSec() const
    {
        return double(counts.warp_instructions) / seconds();
    }
};

/**
 * Time `base` and `other` in kTrials interleaved trials, then write `path`:
 * the build stamp, one row per point (`label_key` names what the rows vary)
 * and `ratio_key`, other's warp-instrs/sec over base's (the median of the
 * per-trial ratios), with the trials' range beside it.
 */
void
writeSpeedJson(const char *path, const char *workload, const char *label_key,
               SpeedPoint base, SpeedPoint other, const char *ratio_key)
{
    base.trial(); // warm-up: kernels parsed and lowered, caches touched
    other.trial();
    base.run_seconds.clear();
    other.run_seconds.clear();
    std::vector<double> ratios;
    for (int t = 0; t < kTrials; t++) {
        const double b = base.trial();
        const double o = other.trial();
        ratios.push_back(b / o); // same work: the seconds give the ratio
    }
    const double ratio = median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());

    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"build_meta\": %s,\n", buildMetaJson().c_str());
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload);
    std::fprintf(f, "  \"trials\": %d,\n", kTrials);
    std::fprintf(f, "  \"runs\": [\n");
    for (const SpeedPoint *pt : {&base, &other}) {
        std::fprintf(f,
                     "    {\"%s\": \"%s\", \"runs_per_trial\": %d, "
                     "\"cpu_seconds\": %.6f, "
                     "\"kernels\": %llu, \"kernels_per_sec\": %.2f, "
                     "\"warp_instructions\": %llu, "
                     "\"warp_instrs_per_sec\": %.2f}%s\n",
                     label_key, pt->label, pt->runs_per_trial, pt->seconds(),
                     (unsigned long long)pt->counts.kernels,
                     double(pt->counts.kernels) / pt->seconds(),
                     (unsigned long long)pt->counts.warp_instructions,
                     pt->instrsPerSec(), pt == &base ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"%s\": %.3f,\n", ratio_key, ratio);
    std::fprintf(f, "  \"%s_range\": [%.3f, %.3f]\n", ratio_key, *lo, *hi);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%s %.3f, %d trials %.3f-%.3f)\n", path, ratio_key,
                ratio, kTrials, *lo, *hi);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    const char *kWorkload = "conv_fwd implicit_gemm+winograd_nonfused"
                            " n2c8h14w14 k8r3s3 gtx1050";
    // Section III-F: how much slower performance mode simulates than
    // functional mode, in warp-instrs/sec.
    writeSpeedJson("BENCH_sim_speed.json", kWorkload, "mode",
                   {"performance", cuda::SimMode::Performance,
                    func::ExecMode::Auto, 4},
                   {"functional", cuda::SimMode::Functional,
                    func::ExecMode::Auto, 10},
                   "slowdown_performance_vs_functional");
    // Functional-mode backend effect: decode-once compiled executor against
    // the reference interpreter.
    writeSpeedJson("BENCH_compiled_exec.json", kWorkload, "backend",
                   {"interp", cuda::SimMode::Functional,
                    func::ExecMode::Interp, 3},
                   {"compiled", cuda::SimMode::Functional,
                    func::ExecMode::Compiled, 10},
                   "speedup_compiled_vs_interp");
    return 0;
}
