/**
 * @file
 * Golden-stats regression suite: three representative kernels (the sgemm
 * forward-GEMM path, the winograd non-fused tile pipeline, implicit gemm)
 * are simulated live and every TimingTotals counter, the AerialVision
 * issue-slot totals per stall reason, and the per-bank DRAM row hit/miss
 * vectors are diffed against a checked-in JSON baseline — byte for byte,
 * since the simulator guarantees bitwise-deterministic statistics across
 * compilers. Further entries pin the scheduler paths the defaults leave
 * cold: LRR issue order, MemStructural stalls (one pending load per warp),
 * and a kernel that spends its time at bar.sync.
 *
 * Regenerating after an intentional model change:
 *
 *     MLGS_UPDATE_GOLDEN=1 ./mlgs_tests --gtest_filter='GoldenStats.*'
 *
 * rewrites tests/golden_stats.json in the source tree and the test passes;
 * review the diff like any other code change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/trace_workloads.h"
#include "cudnn/cudnn.h"
#include "runtime/context.h"

using namespace mlgs;
using namespace mlgs::bench;

namespace
{

/** Forward conv_sample algorithm, or the bar.sync loop below. */
constexpr int kBarrierLoop = -1;

struct GoldenRun
{
    const char *name;
    int fwd_algo;
    timing::SchedPolicy sched = timing::SchedPolicy::GTO;
    unsigned max_pending_loads = 0; ///< 0 keeps the GpuConfig default
};

/**
 * The three paper workloads the golden file pins (forward pass of the
 * conv_sample shape; the algorithm picks the kernel family under test),
 * then the scheduler-path entries.
 */
const GoldenRun kRuns[] = {
    {"sgemm", int(cudnn::ConvFwdAlgo::Gemm)},
    {"winograd_tile", int(cudnn::ConvFwdAlgo::WinogradNonfused)},
    {"implicit_gemm", int(cudnn::ConvFwdAlgo::ImplicitGemm)},
    {"sgemm_lrr", int(cudnn::ConvFwdAlgo::Gemm), timing::SchedPolicy::LRR},
    {"implicit_gemm_one_pending_load", int(cudnn::ConvFwdAlgo::ImplicitGemm),
     timing::SchedPolicy::GTO, 1},
    {"barrier_loop", kBarrierLoop},
    {"barrier_loop_lrr", kBarrierLoop, timing::SchedPolicy::LRR},
};

/**
 * Eight warps per CTA trade values through shared memory between two
 * bar.sync per iteration; warp 0 adds a chain of SFU ops first, so the other
 * seven wait at the barrier.
 */
const char *kBarrierLoopPtx = R"(
.visible .entry barrier_loop(.param .u64 buf, .param .u32 iters)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<10>;
    .reg .f32 %f<4>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 tile[1024];

    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mad.lo.u32 %r5, %r3, %r4, %r2;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    mov.u64 %rd4, tile;
    mul.wide.u32 %rd5, %r2, 4;
    add.u64 %rd6, %rd4, %rd5;
    add.u32 %r6, %r2, 32;
    and.b32 %r6, %r6, 255;
    mul.wide.u32 %rd5, %r6, 4;
    add.u64 %rd7, %rd4, %rd5;
    shr.u32 %r7, %r2, 5;
    setp.ne.u32 %p2, %r7, 0;
    mov.u32 %r8, 0;
LOOP:
    setp.ge.u32 %p1, %r8, %r1;
    @%p1 bra DONE;
    st.shared.f32 [%rd6], %f1;
    bar.sync 0;
    ld.shared.f32 %f2, [%rd7];
    @%p2 bra SKIP;
    mul.f32 %f2, %f2, %f2;
    sqrt.approx.f32 %f2, %f2;
    sqrt.approx.f32 %f2, %f2;
    sqrt.approx.f32 %f2, %f2;
SKIP:
    add.f32 %f1, %f1, %f2;
    bar.sync 0;
    add.u32 %r8, %r8, 1;
    bra LOOP;
DONE:
    st.global.f32 [%rd3], %f1;
    ret;
}
)";

void
runBarrierLoop(cuda::Context &ctx)
{
    ctx.loadModule(kBarrierLoopPtx, "barrier_loop.ptx");
    const unsigned ctas = 96, threads = 256;
    std::vector<float> h(ctas * threads);
    for (size_t i = 0; i < h.size(); i++)
        h[i] = float(i % 97) * 0.25f;
    const addr_t d = ctx.malloc(h.size() * 4);
    ctx.memcpyH2D(d, h.data(), h.size() * 4);
    cuda::KernelArgs args;
    args.ptr(d).u32(24);
    ctx.launch("barrier_loop", Dim3(ctas), Dim3(threads), args);
    ctx.deviceSynchronize();
}

void
appendBankVector(std::ostringstream &os, const char *key,
                 const std::vector<uint64_t> &v)
{
    os << "      \"" << key << "\": [";
    for (size_t i = 0; i < v.size(); i++)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

/** Simulate one run and render its stats block (fixed key order). */
std::string
renderRun(const GoldenRun &run)
{
    ConvTraceSpec spec;
    spec.pass = Pass::Forward;
    spec.algo = run.fwd_algo;
    spec.sched = run.sched;

    cuda::ContextOptions opts = convTraceOptions(spec);
    if (run.max_pending_loads)
        opts.gpu.max_pending_loads_per_warp = run.max_pending_loads;
    cuda::Context ctx(opts);
    stats::AerialSampler sampler(1024, opts.gpu.num_cores,
                                 opts.gpu.totalDramBanks());
    ctx.attachSampler(&sampler);
    if (run.fwd_algo == kBarrierLoop)
        runBarrierLoop(ctx);
    else
        runConvFrontend(ctx, spec);
    sampler.finish();

    // Issue-slot outcomes summed over the run, by stall reason.
    uint64_t slots[size_t(stats::StallKind::kCount)] = {};
    for (const auto &b : sampler.buckets())
        for (size_t k = 0; k < b.stalls.size(); k++)
            slots[k] += b.stalls[k];

    const timing::TimingTotals &t = ctx.gpuModel().totals();
    std::ostringstream os;
    os << "    \"" << run.name << "\": {\n";
    const struct
    {
        const char *key;
        uint64_t val;
    } fields[] = {
        {"cycles", t.cycles},
        {"warp_instructions", t.warp_instructions},
        {"thread_instructions", t.thread_instructions},
        {"alu", t.alu},
        {"sfu", t.sfu},
        {"mem_insts", t.mem_insts},
        {"shared_accesses", t.shared_accesses},
        {"l1_hits", t.l1_hits},
        {"l1_misses", t.l1_misses},
        {"l2_hits", t.l2_hits},
        {"l2_misses", t.l2_misses},
        {"icnt_flits", t.icnt_flits},
        {"dram_reads", t.dram_reads},
        {"dram_writes", t.dram_writes},
        {"dram_row_hits", t.dram_row_hits},
        {"dram_row_misses", t.dram_row_misses},
        {"core_active_cycles", t.core_active_cycles},
        {"core_idle_cycles", t.core_idle_cycles},
        {"stall_idle", slots[size_t(stats::StallKind::Idle)]},
        {"stall_data_hazard", slots[size_t(stats::StallKind::DataHazard)]},
        {"stall_mem_structural",
         slots[size_t(stats::StallKind::MemStructural)]},
        {"stall_barrier", slots[size_t(stats::StallKind::Barrier)]},
    };
    for (const auto &f : fields)
        os << "      \"" << f.key << "\": " << f.val << ",\n";
    appendBankVector(os, "bank_row_hits", ctx.gpuModel().perBankRowHits());
    os << ",\n";
    appendBankVector(os, "bank_row_misses", ctx.gpuModel().perBankRowMisses());
    os << "\n    }";
    return os.str();
}

std::string
renderAll()
{
    std::ostringstream os;
    os << "{\n  \"golden_stats\": {\n";
    for (size_t i = 0; i < std::size(kRuns); i++)
        os << renderRun(kRuns[i]) << (i + 1 < std::size(kRuns) ? ",\n" : "\n");
    os << "  }\n}\n";
    return os.str();
}

/** First line where the two renderings differ, for a readable diff. */
std::string
firstLineDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        const bool ea = !std::getline(a, la);
        const bool eb = !std::getline(b, lb);
        line++;
        if (ea && eb)
            return "no textual difference";
        if (ea != eb || la != lb) {
            std::ostringstream os;
            os << "line " << line << ":\n  golden: " << (ea ? "<eof>" : la)
               << "\n  live:   " << (eb ? "<eof>" : lb);
            return os.str();
        }
    }
}

} // namespace

TEST(GoldenStats, RepresentativeKernelsMatchCheckedInBaseline)
{
    const std::string live = renderAll();
    const char *path = MLGS_GOLDEN_STATS_JSON;

    if (std::getenv("MLGS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << live;
        SUCCEED() << "regenerated " << path;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing " << path
        << " — run once with MLGS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(golden.str(), live)
        << "live stats diverged from tests/golden_stats.json; first diff at "
        << firstLineDiff(golden.str(), live)
        << "\nIf the change is intentional, regenerate with "
           "MLGS_UPDATE_GOLDEN=1 and review the JSON diff.";
}
