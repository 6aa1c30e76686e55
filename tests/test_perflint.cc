/**
 * @file
 * Static performance-lint tests: fixture kernels with known coalescing /
 * bank-conflict / occupancy behaviour, the launch-bounds plumbing that
 * sharpens the analysis, and a static-vs-dynamic agreement check on shipped
 * kernels (the perf-lint analogue of the paper's simulator-vs-hardware
 * correlation methodology — predictions are only trusted because the
 * dynamic site profiler reproduces them).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "cudnn/kernels.h"
#include "func/site_profiler.h"
#include "ptx/parser.h"
#include "ptx/verifier/perflint.h"
#include "ptx/verifier/verifier.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::ptx::verifier;

namespace
{

const ptx::KernelDef &
onlyKernel(const ptx::Module &m)
{
    EXPECT_EQ(m.kernels.size(), 1u);
    return m.kernels.front();
}

const GlobalSiteReport *
globalAt(const KernelPerfReport &rep, size_t idx)
{
    return idx < rep.globals.size() ? &rep.globals[idx] : nullptr;
}

const SharedSiteReport *
sharedAt(const KernelPerfReport &rep, size_t idx)
{
    return idx < rep.shared.size() ? &rep.shared[idx] : nullptr;
}

unsigned
countWarnings(const std::vector<Diagnostic> &diags, Check check)
{
    unsigned n = 0;
    for (const auto &d : diags)
        n += (d.check == check && d.severity >= Severity::Warning) ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------------
// Launch-bounds parsing
// ---------------------------------------------------------------------------

TEST(PerfLintLaunchBounds, ReqntidAndMaxntidParseIntoKernelDef)
{
    const char *src = R"(
.version 6.0
.target sm_70
.address_size 64
.visible .entry a() .reqntid 16, 16, 1
{
    ret;
}
.visible .entry b() .maxntid 256
{
    ret;
}
.visible .entry c()
{
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "lb.ptx");
    ASSERT_EQ(m.kernels.size(), 3u);
    EXPECT_EQ(m.kernels[0].reqntid[0], 16u);
    EXPECT_EQ(m.kernels[0].reqntid[1], 16u);
    EXPECT_EQ(m.kernels[0].reqntid[2], 1u);
    EXPECT_TRUE(m.kernels[0].hasReqntid());
    EXPECT_TRUE(m.kernels[0].tidDimTrivial(2));
    EXPECT_FALSE(m.kernels[0].tidDimTrivial(0));

    EXPECT_EQ(m.kernels[1].maxntid[0], 256u);
    EXPECT_EQ(m.kernels[1].maxntid[1], 1u);
    EXPECT_EQ(m.kernels[1].maxntid[2], 1u);
    EXPECT_FALSE(m.kernels[1].hasReqntid());
    EXPECT_TRUE(m.kernels[1].tidDimTrivial(1));

    EXPECT_FALSE(m.kernels[2].hasReqntid());
    EXPECT_FALSE(m.kernels[2].tidDimTrivial(0));
    EXPECT_FALSE(m.kernels[2].tidDimTrivial(2));
}

// ---------------------------------------------------------------------------
// Fixture kernels with known classes
// ---------------------------------------------------------------------------

/** One global load and one shared store, lane stride given in words. */
std::string
strideFixture(unsigned words, const char *bounds)
{
    const unsigned tile = 4 * 32 * words;
    std::string s = R"(
.version 6.0
.target sm_70
.address_size 64
.visible .entry probe(.param .u64 A, .param .u64 B))";
    s += bounds;
    s += R"(
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .shared .align 4 .b8 tile[)";
    s += std::to_string(tile);
    s += R"(];
    ld.param.u64 %rd1, [A];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, )";
    s += std::to_string(4 * words);
    s += R"(;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    mov.u64 %rd4, tile;
    add.u64 %rd5, %rd4, %rd2;
    st.shared.f32 [%rd5], %f1;
    ret;
}
)";
    return s;
}

TEST(PerfLintStatic, UnitStrideIsCoalescedAndConflictFree)
{
    const ptx::Module m =
        ptx::parseModule(strideFixture(1, ""), "s1.ptx");
    const unsigned block[3] = {32, 1, 1};
    const auto rep = perfReport(onlyKernel(m), block, PerfModel{});

    ASSERT_NE(globalAt(rep, 0), nullptr);
    EXPECT_EQ(rep.globals[0].cls, AccessClass::Coalesced);
    EXPECT_NEAR(rep.globals[0].txn_per_warp, 1.0, 1e-9);
    EXPECT_NEAR(rep.globals[0].ideal_txn, 1.0, 1e-9);

    ASSERT_NE(sharedAt(rep, 0), nullptr);
    EXPECT_EQ(rep.shared[0].cls, AccessClass::Coalesced);
    EXPECT_EQ(rep.shared[0].conflict_degree, 1u);
    EXPECT_FALSE(rep.shared[0].broadcast);

    const auto diags = perfDiagnostics(onlyKernel(m), PerfModel{});
    EXPECT_EQ(countWarnings(diags, Check::PerfCoalescing), 0u);
    EXPECT_EQ(countWarnings(diags, Check::PerfBankConflict), 0u);
}

TEST(PerfLintStatic, StrideTwoIsStridedWithTwoWayConflict)
{
    const ptx::Module m =
        ptx::parseModule(strideFixture(2, ""), "s2.ptx");
    const unsigned block[3] = {32, 1, 1};
    const auto rep = perfReport(onlyKernel(m), block, PerfModel{});

    ASSERT_NE(globalAt(rep, 0), nullptr);
    EXPECT_EQ(rep.globals[0].cls, AccessClass::Strided);
    EXPECT_NEAR(rep.globals[0].txn_per_warp, 2.0, 1e-9);

    ASSERT_NE(sharedAt(rep, 0), nullptr);
    EXPECT_EQ(rep.shared[0].cls, AccessClass::Strided);
    EXPECT_EQ(rep.shared[0].conflict_degree, 2u);
}

TEST(PerfLintStatic, StrideThirtyTwoIsDivergedWithFullConflict)
{
    const ptx::Module m =
        ptx::parseModule(strideFixture(32, ""), "s32.ptx");
    const unsigned block[3] = {32, 1, 1};
    const auto rep = perfReport(onlyKernel(m), block, PerfModel{});

    ASSERT_NE(globalAt(rep, 0), nullptr);
    EXPECT_EQ(rep.globals[0].cls, AccessClass::Diverged);
    EXPECT_NEAR(rep.globals[0].txn_per_warp, 32.0, 1e-9);

    ASSERT_NE(sharedAt(rep, 0), nullptr);
    EXPECT_EQ(rep.shared[0].cls, AccessClass::Diverged);
    EXPECT_EQ(rep.shared[0].conflict_degree, 32u);

    const auto diags = perfDiagnostics(onlyKernel(m), PerfModel{});
    EXPECT_EQ(countWarnings(diags, Check::PerfCoalescing), 1u);
    EXPECT_EQ(countWarnings(diags, Check::PerfBankConflict), 1u);
}

TEST(PerfLintStatic, NtidLinearizedTileStaysAffineUnderLaunchBounds)
{
    // lin = tid.y * %ntid.x + tid.x is only affine when %ntid.x is pinned
    // by .reqntid; the 32x4 block then makes each warp one contiguous row.
    const char *src = R"(
.version 6.0
.target sm_70
.address_size 64
.visible .entry tile(.param .u64 A) .reqntid 32, 4, 1
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .f32 %f<2>;
    ld.param.u64 %rd1, [A];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %tid.y;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    st.global.f32 [%rd3], %f1;
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "tile.ptx");
    const auto rep = perfReport(onlyKernel(m), nullptr, PerfModel{});
    EXPECT_FALSE(rep.occ.block_assumed);
    EXPECT_EQ(rep.occ.block[0], 32u);
    EXPECT_EQ(rep.occ.block[1], 4u);
    ASSERT_EQ(rep.globals.size(), 2u);
    EXPECT_EQ(rep.globals[0].cls, AccessClass::Coalesced);
    EXPECT_NEAR(rep.globals[0].txn_per_warp, 1.0, 1e-9);
    EXPECT_EQ(rep.globals[1].cls, AccessClass::Coalesced);
}

TEST(PerfLintStatic, TrivialTidDimensionIsUniformBroadcast)
{
    // With .reqntid N,1,1 a tid.y-indexed shared store is warp-uniform:
    // every lane hits the same word (a broadcast, not a conflict).
    const char *src = R"(
.version 6.0
.target sm_70
.address_size 64
.visible .entry bcast(.param .u64 A) .reqntid 64, 1, 1
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 s[256];
    mov.u32 %r1, %tid.y;
    mul.wide.u32 %rd1, %r1, 4;
    mov.u64 %rd2, s;
    add.u64 %rd3, %rd2, %rd1;
    st.shared.u32 [%rd3], %r1;
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "bcast.ptx");
    const auto rep = perfReport(onlyKernel(m), nullptr, PerfModel{});
    ASSERT_EQ(rep.shared.size(), 1u);
    EXPECT_EQ(rep.shared[0].conflict_degree, 1u);
    EXPECT_TRUE(rep.shared[0].broadcast);
    EXPECT_EQ(rep.shared[0].cls, AccessClass::Coalesced);
}

TEST(PerfLintStatic, OccupancyLimitedBySharedMemory)
{
    const char *src = R"(
.version 6.0
.target sm_70
.address_size 64
.visible .entry fat(.param .u64 A) .reqntid 64, 1, 1
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 big[49152];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd1, %r1, 4;
    mov.u64 %rd2, big;
    add.u64 %rd3, %rd2, %rd1;
    st.shared.u32 [%rd3], %r1;
    ret;
}
)";
    const ptx::Module m = ptx::parseModule(src, "fat.ptx");
    const PerfModel pm;
    const auto rep = perfReport(onlyKernel(m), nullptr, pm);
    EXPECT_EQ(rep.occ.warps_per_block, 2u);
    EXPECT_EQ(rep.occ.resident_ctas, 1u); // 64KiB / 48KiB
    EXPECT_EQ(rep.occ.resident_warps, 2u);
    EXPECT_STREQ(rep.occ.limiter, "shared");
    EXPECT_LT(rep.occ.occupancy, 0.5);

    const auto diags = perfDiagnostics(onlyKernel(m), pm);
    EXPECT_EQ(countWarnings(diags, Check::PerfOccupancy), 1u);
}

TEST(PerfLintStatic, DefaultBlockIsReportedAsAssumed)
{
    const ptx::Module m =
        ptx::parseModule(strideFixture(1, ""), "db.ptx");
    const auto rep = perfReport(onlyKernel(m), nullptr, PerfModel{});
    EXPECT_TRUE(rep.occ.block_assumed);
    EXPECT_EQ(rep.occ.block[0], 256u);

    const ptx::Module mb =
        ptx::parseModule(strideFixture(1, " .reqntid 128, 1, 1"), "db2.ptx");
    const auto repb = perfReport(onlyKernel(mb), nullptr, PerfModel{});
    EXPECT_FALSE(repb.occ.block_assumed);
    EXPECT_EQ(repb.occ.block[0], 128u);
}

// ---------------------------------------------------------------------------
// Static-vs-dynamic agreement on shipped kernels
// ---------------------------------------------------------------------------

struct Agreement
{
    unsigned compared = 0;
    unsigned matched = 0;
};

/**
 * Join one kernel's static report against the profiler's measured counters.
 * Only sites the static pass classified (non-Unknown) and the run covered
 * enter the denominator; the measured class is derived from full-mask
 * accesses when any exist (partial warps legitimately need fewer
 * transactions than the full-warp prediction).
 */
Agreement
joinAgreement(const KernelPerfReport &rep,
              const func::SiteProfiler::KernelSites &sites,
              const PerfModel &m)
{
    Agreement a;
    for (const auto &g : rep.globals) {
        if (g.cls == AccessClass::Unknown)
            continue;
        const auto it = sites.globals.find(g.pc);
        if (it == sites.globals.end())
            continue;
        const auto &st = it->second;
        const uint64_t acc =
            st.full_accesses ? st.full_accesses : st.accesses;
        const uint64_t txn =
            st.full_accesses ? st.full_transactions : st.transactions;
        if (!acc)
            continue;
        a.compared++;
        const double t = double(txn) / double(acc);
        const bool cls_match =
            classifyTransactions(t, g.ideal_txn, m.warp_size) == g.cls;
        // +1 covers a line-straddling base the static pass assumed aligned.
        const bool txn_match =
            t >= g.txn_per_warp - std::max(0.5, 0.1 * g.txn_per_warp) &&
            t <= g.txn_per_warp + 1.0 + 0.25 * g.txn_per_warp;
        a.matched += (cls_match || txn_match) ? 1 : 0;
    }
    for (const auto &s : rep.shared) {
        if (s.cls == AccessClass::Unknown)
            continue;
        const auto it = sites.shared.find(s.pc);
        if (it == sites.shared.end())
            continue;
        const auto &st = it->second;
        const uint64_t acc =
            st.full_accesses ? st.full_accesses : st.accesses;
        const uint64_t dsum =
            st.full_accesses ? st.full_degree_sum : st.degree_sum;
        if (!acc)
            continue;
        a.compared++;
        const double d = double(dsum) / double(acc);
        a.matched += std::abs(d - double(s.conflict_degree)) <=
                             std::max(1.0, 0.25 * double(s.conflict_degree))
                         ? 1
                         : 0;
    }
    return a;
}

TEST(PerfLintAgreement, ShippedKernelsMatchMeasuredCounters)
{
    test::MiniGpu gpu;
    func::SiteProfiler prof;
    gpu.interp.setSiteProfiler(&prof);

    const ptx::Module common =
        ptx::parseModule(cudnn::kCommonPtx, "common.ptx");
    const ptx::Module blas = ptx::parseModule(blas::kBlasPtx, "blas.ptx");

    // activation_fwd: 32 elements, relu, one 32-thread block.
    {
        std::vector<float> x(32, 1.5f);
        const addr_t xa = gpu.uploadVec(x);
        const addr_t ya = gpu.uploadVec(std::vector<float>(32, 0.0f));
        test::ParamPack p;
        p.add<uint64_t>(xa).add<uint64_t>(ya);
        p.add<uint32_t>(32).add<uint32_t>(0);
        gpu.run(common, "activation_fwd", Dim3(1), Dim3(32), p);
    }
    // add_bias: 32 elements over K=4 channels of HW=8.
    {
        const addr_t ya = gpu.uploadVec(std::vector<float>(32, 1.0f));
        const addr_t ba = gpu.uploadVec(std::vector<float>(4, 0.5f));
        test::ParamPack p;
        p.add<uint64_t>(ya).add<uint64_t>(ba);
        p.add<uint32_t>(32).add<uint32_t>(4).add<uint32_t>(8);
        gpu.run(common, "add_bias", Dim3(1), Dim3(32), p);
    }
    // sgemv: M=128 rows (exactly one .reqntid 128 block), N=8 columns.
    {
        const addr_t aa = gpu.uploadVec(std::vector<float>(128 * 8, 1.0f));
        const addr_t xa = gpu.uploadVec(std::vector<float>(8, 2.0f));
        const addr_t ya = gpu.uploadVec(std::vector<float>(128, 0.0f));
        test::ParamPack p;
        p.add<uint64_t>(aa).add<uint64_t>(xa).add<uint64_t>(ya);
        p.add<uint32_t>(128).add<uint32_t>(8).add<float>(1.0f);
        gpu.run(blas, "sgemv", Dim3(1), Dim3(128), p);
    }

    const PerfModel pm;
    const struct
    {
        const ptx::Module *mod;
        const char *kernel;
        Dim3 block;
    } runs[] = {
        {&common, "activation_fwd", Dim3(32)},
        {&common, "add_bias", Dim3(32)},
        {&blas, "sgemv", Dim3(128)},
    };

    Agreement total;
    for (const auto &r : runs) {
        const ptx::KernelDef *k = r.mod->findKernel(r.kernel);
        ASSERT_NE(k, nullptr) << r.kernel;
        const unsigned block[3] = {r.block.x, r.block.y, r.block.z};
        const auto rep = perfReport(*k, block, pm);

        const auto it =
            prof.kernels().find(func::SiteProfiler::key(r.kernel, r.block));
        ASSERT_NE(it, prof.kernels().end()) << r.kernel;

        const Agreement a = joinAgreement(rep, it->second, pm);
        EXPECT_GT(a.compared, 0u) << r.kernel;
        EXPECT_EQ(a.matched, a.compared) << r.kernel;
        total.compared += a.compared;
        total.matched += a.matched;
    }
    // The acceptance bar for the full workload sweep is 90%; these three
    // simple kernels must agree exactly.
    ASSERT_GE(total.compared, 5u);
    EXPECT_EQ(total.matched, total.compared);
}

} // namespace
