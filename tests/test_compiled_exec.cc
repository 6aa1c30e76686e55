/**
 * @file
 * Backend-equivalence contract for the compiled micro-op executor
 * (src/func/compiled/): for every opcode class, running the same kernel
 * under ExecMode::Interp and ExecMode::Compiled must produce bitwise-
 * identical register files, memory images, and FuncStats. The interpreter
 * is ground truth; any divergence here is a lowering or dispatch bug.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::test;

namespace
{

/** One single-step warp instruction as the timing model consumes it. */
struct StepRec
{
    uint32_t pc = 0;
    warp_mask_t active = 0;
    unsigned shared_accesses = 0;
    std::vector<func::MemAccess> accesses; ///< in lane order
};

/** Final architectural state of one single-backend run. */
struct Image
{
    std::vector<uint8_t> out;
    std::vector<std::vector<uint64_t>> regs; ///< [thread][reg] raw cells
    func::FuncStats stats;
    size_t pages = 0;            ///< materialized device-memory pages
    std::vector<StepRec> steps;  ///< single-step mode: [cta][warp][step]
};

/**
 * Run `kernel` under one backend. The kernel's parameter list must be
 * (.param .u64 in, .param .u64 out) or just (.param .u64 out); buffers are
 * placed by a fresh allocator so addresses match across backends.
 */
Image
runOne(func::ExecMode mode, const char *src, const std::string &kernel,
       Dim3 grid, Dim3 block, const std::vector<uint8_t> &in,
       size_t out_bytes, bool single_step = false)
{
    MiniGpu gpu({}, mode);
    // An attached warp-stream recorder makes the engine step one warp
    // instruction at a time, the path the timing model drives.
    func::WarpStreamCache streams;
    if (single_step)
        gpu.interp.setWarpStreamRecord(&streams);
    const ptx::Module m = ptx::parseModule(src, "compiled_exec.ptx");
    const auto *k = m.findKernel(kernel);
    MLGS_REQUIRE(k, "kernel not found: ", kernel);

    addr_t in0 = 0;
    if (!in.empty())
        in0 = gpu.upload(in.data(), in.size());
    const addr_t out = gpu.alloc.alloc(out_bytes);
    gpu.mem.memset(out, 0, out_bytes);

    ParamPack p;
    if (k->findParam("in"))
        p.add<uint64_t>(in0);
    p.add<uint64_t>(out);

    func::LaunchEnv env;
    env.kernel = k;
    env.params = p.bytes();
    env.symbols = &gpu.symbols;

    Image img;
    const unsigned tpc = unsigned(block.count());
    for (uint64_t c = 0; c < grid.count(); c++) {
        auto cta = gpu.engine.makeCta(env, grid, block, c);
        const bool done =
            gpu.engine.runCta(*cta, env, UINT64_MAX, &img.stats);
        EXPECT_TRUE(done);
        for (unsigned t = 0; t < tpc; t++) {
            std::vector<uint64_t> cells(cta->numRegs());
            for (unsigned r = 0; r < cta->numRegs(); r++)
                cells[r] = cta->reg(t, r).u64;
            img.regs.push_back(std::move(cells));
        }
        if (!single_step)
            continue;
        for (unsigned w = 0; w < cta->numWarps(); w++) {
            const func::WarpStream &ws = streams.stream(0, *cta, w);
            for (const func::WarpStreamStep &st : ws.steps) {
                StepRec rec{st.pc, st.active, st.shared_accesses, {}};
                rec.accesses.assign(
                    ws.accesses.begin() + st.first_access,
                    ws.accesses.begin() + st.first_access + st.num_accesses);
                img.steps.push_back(std::move(rec));
            }
        }
    }
    img.pages = gpu.mem.pageCount();
    img.out = gpu.download<uint8_t>(out, out_bytes);
    return img;
}

/** Every FuncStats counter must agree — the compiled batch loop keeps its
 *  own accounting and must not drift from the per-step interpreter path. */
void
expectStatsEqual(const func::FuncStats &a, const func::FuncStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_EQ(a.alu, b.alu);
    EXPECT_EQ(a.sfu, b.sfu);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.global_ld_bytes, b.global_ld_bytes);
    EXPECT_EQ(a.global_st_bytes, b.global_st_bytes);
    EXPECT_EQ(a.shared_accesses, b.shared_accesses);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.shared_races, b.shared_races);
}

/** Assert two runs left bitwise-identical state. */
void
expectSameImage(const Image &ref, const Image &cmp)
{
    EXPECT_EQ(ref.out, cmp.out) << "memory image diverged";
    EXPECT_EQ(ref.regs.size(), cmp.regs.size());
    for (size_t t = 0; t < std::min(ref.regs.size(), cmp.regs.size()); t++) {
        EXPECT_EQ(ref.regs[t].size(), cmp.regs[t].size()) << "thread " << t;
        if (ref.regs[t] != cmp.regs[t]) {
            for (size_t r = 0;
                 r < std::min(ref.regs[t].size(), cmp.regs[t].size()); r++)
                EXPECT_EQ(ref.regs[t][r], cmp.regs[t][r])
                    << "thread " << t << " reg " << r;
        }
    }
    expectStatsEqual(ref.stats, cmp.stats);
    EXPECT_EQ(ref.pages, cmp.pages) << "materialized pages diverged";
}

/** Assert two single-step runs handed the timing model the same steps,
 *  with the same per-lane accesses in the same order. */
void
expectSameSteps(const Image &ref, const Image &cmp)
{
    ASSERT_EQ(ref.steps.size(), cmp.steps.size());
    for (size_t i = 0; i < ref.steps.size(); i++) {
        const StepRec &a = ref.steps[i];
        const StepRec &b = cmp.steps[i];
        EXPECT_EQ(a.pc, b.pc) << "step " << i;
        EXPECT_EQ(a.active, b.active) << "step " << i;
        EXPECT_EQ(a.shared_accesses, b.shared_accesses) << "step " << i;
        ASSERT_EQ(a.accesses.size(), b.accesses.size()) << "step " << i;
        for (size_t j = 0; j < a.accesses.size(); j++) {
            const func::MemAccess &x = a.accesses[j];
            const func::MemAccess &y = b.accesses[j];
            EXPECT_EQ(x.addr, y.addr) << "step " << i << " access " << j;
            EXPECT_EQ(x.size, y.size) << "step " << i << " access " << j;
            EXPECT_EQ(x.is_store, y.is_store) << "step " << i;
            EXPECT_EQ(x.is_atomic, y.is_atomic) << "step " << i;
            EXPECT_EQ(x.space, y.space) << "step " << i << " access " << j;
        }
    }
}

/** Run under both backends, batched and single-step, and assert bitwise
 *  state equality plus identical single-step access lists; returns the
 *  compiled batch image for semantic spot checks. */
Image
expectBothMatch(const char *src, const std::string &kernel, Dim3 grid,
                Dim3 block, const std::vector<uint8_t> &in, size_t out_bytes)
{
    const Image ref =
        runOne(func::ExecMode::Interp, src, kernel, grid, block, in,
               out_bytes);
    const Image cmp =
        runOne(func::ExecMode::Compiled, src, kernel, grid, block, in,
               out_bytes);
    expectSameImage(ref, cmp);
    const Image ref_step =
        runOne(func::ExecMode::Interp, src, kernel, grid, block, in,
               out_bytes, true);
    const Image cmp_step =
        runOne(func::ExecMode::Compiled, src, kernel, grid, block, in,
               out_bytes, true);
    expectSameImage(ref, ref_step);
    expectSameImage(ref, cmp_step);
    expectSameSteps(ref_step, cmp_step);
    return cmp;
}

/** Both backends, batched and single-step, must reject the kernel. */
void
expectAllFail(const char *src, const std::string &kernel, Dim3 grid,
              Dim3 block, size_t out_bytes)
{
    for (const auto mode : {func::ExecMode::Interp, func::ExecMode::Compiled})
        for (const bool single_step : {false, true})
            EXPECT_THROW(runOne(mode, src, kernel, grid, block, {}, out_bytes,
                                single_step),
                         FatalError)
                << func::execModeName(mode) << " single_step=" << single_step;
}

template <typename T>
std::vector<uint8_t>
asBytes(const std::vector<T> &v)
{
    std::vector<uint8_t> b(v.size() * sizeof(T));
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

// ---- integer arithmetic, shifts, min/max, bit ops ----

TEST(CompiledExec, IntegerArithMatchesInterp)
{
    const char *src = R"(
.visible .entry intarith(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<16>;
    .reg .s32 %s<16>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    ld.global.u32 %r3, [%rd4+4];
    mov.u32 %r15, 0;

    add.u32 %r4, %r2, %r3;
    sub.u32 %r5, %r2, %r3;
    mul.lo.u32 %r6, %r2, %r3;
    mad.lo.u32 %r7, %r2, %r3, %r4;
    and.b32 %r8, %r2, %r3;
    or.b32  %r9, %r2, %r3;
    xor.b32 %r10, %r2, %r3;
    shl.b32 %r11, %r2, %r1;
    shr.u32 %r12, %r2, %r1;
    cvt.s32.s64 %s1, %rd3;
    shr.s32 %s2, %s1, %r1;
    min.u32 %r13, %r2, %r3;
    max.u32 %r14, %r2, %r3;
    cvt.u32.u64 %r15, %rd3;
    mov.s32 %s3, -2147483648;
    mov.s32 %s4, 3;
    div.s32 %s5, %s3, %s4;
    rem.s32 %s6, %s3, %s4;
    min.s32 %s7, %s3, %s4;
    max.s32 %s8, %s3, %s4;
    popc.b32 %r15, %r2;
    clz.b32 %s9, %r3;
    brev.b32 %s10, %r2;
    mul.wide.u32 %rd5, %r2, %r3;
    mul.wide.s32 %rd3, %s3, %s4;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    add.u32 %r4, %r4, %r5;
    add.u32 %r4, %r4, %r6;
    add.u32 %r4, %r4, %r7;
    xor.b32 %r4, %r4, %r8;
    xor.b32 %r4, %r4, %r9;
    xor.b32 %r4, %r4, %r10;
    add.u32 %r4, %r4, %r11;
    add.u32 %r4, %r4, %r12;
    add.u32 %r4, %r4, %r13;
    add.u32 %r4, %r4, %r14;
    add.u32 %r4, %r4, %r15;
    st.global.u32 [%rd4], %r4;
    ret;
}
)";
    std::vector<uint32_t> in;
    const uint32_t interesting[] = {0u, 1u, 0xffffffffu, 0x80000000u,
                                    0x7fffffffu, 3u, 31u, 32u};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(interesting[t % 8]);
        in.push_back(interesting[(t / 2 + 3) % 8]);
    }
    expectBothMatch(src, "intarith", Dim3(1), Dim3(32), asBytes(in), 32 * 4);
}

// ---- float arithmetic: NaN canonicalization, signed zeros, fma, sfu ----

TEST(CompiledExec, FloatArithMatchesInterp)
{
    const char *src = R"(
.visible .entry floatarith(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<18>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+4];

    add.f32 %f3, %f1, %f2;
    sub.f32 %f4, %f1, %f2;
    mul.f32 %f5, %f1, %f2;
    min.f32 %f6, %f1, %f2;
    max.f32 %f7, %f1, %f2;
    fma.rn.f32 %f8, %f1, %f2, %f3;
    mad.f32 %f9, %f1, %f2, %f4;
    neg.f32 %f10, %f1;
    abs.f32 %f11, %f2;
    mov.f32 %f12, 0f40800000;
    div.f32 %f13, %f1, %f12;
    sqrt.approx.f32 %f14, %f11;
    rcp.approx.f32 %f15, %f12;
    lg2.approx.f32 %f16, %f12;
    ex2.approx.f32 %f17, %f16;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd5, %rd2, %rd3;
    add.f32 %f3, %f3, %f4;
    add.f32 %f3, %f3, %f5;
    add.f32 %f3, %f3, %f6;
    add.f32 %f3, %f3, %f7;
    add.f32 %f3, %f3, %f8;
    add.f32 %f3, %f3, %f9;
    add.f32 %f3, %f3, %f10;
    add.f32 %f3, %f3, %f11;
    add.f32 %f3, %f3, %f13;
    add.f32 %f3, %f3, %f14;
    add.f32 %f3, %f3, %f15;
    add.f32 %f3, %f3, %f17;
    st.global.f32 [%rd5], %f3;
    ret;
}
)";
    std::vector<float> in;
    const float interesting[] = {0.0f,
                                 -0.0f,
                                 1.0f,
                                 -1.5f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN(),
                                 1.000244140625f};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(interesting[t % 8]);
        in.push_back(interesting[(t / 3 + 5) % 8]);
    }
    expectBothMatch(src, "floatarith", Dim3(1), Dim3(32), asBytes(in),
                    32 * 4);
}

TEST(CompiledExec, MinMaxNanAndSignedZero)
{
    // min/max must be deterministic on NaN (canonical NaN result) and order
    // -0 < +0 in both backends.
    const char *src = R"(
.visible .entry minmax(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .f32 %f<8>;
    ld.param.u64 %rd1, [out];
    mov.f32 %f1, 0f7FC00000;
    mov.f32 %f2, 0f3F800000;
    min.f32 %f3, %f1, %f2;
    max.f32 %f4, %f2, %f1;
    st.global.f32 [%rd1+0], %f3;
    st.global.f32 [%rd1+4], %f4;
    mov.f32 %f5, 0f80000000;
    mov.f32 %f6, 0f00000000;
    min.f32 %f7, %f5, %f6;
    st.global.f32 [%rd1+8], %f7;
    max.f32 %f7, %f5, %f6;
    st.global.f32 [%rd1+12], %f7;
    ret;
}
)";
    const Image img = expectBothMatch(src, "minmax", Dim3(1), Dim3(1), {},
                                      4 * 4);
    uint32_t w[4];
    std::memcpy(w, img.out.data(), 16);
    EXPECT_EQ(w[2], 0x80000000u); // min(-0, +0) = -0
    EXPECT_EQ(w[3], 0x00000000u); // max(-0, +0) = +0
}

// ---- cvt rounding and f16 round trips ----

TEST(CompiledExec, CvtRoundingMatchesInterp)
{
    const char *src = R"(
.visible .entry cvts(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .s32 %s<6>;
    .reg .f32 %f<6>;
    .reg .f16 %h<2>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];

    cvt.rzi.s32.f32 %s1, %f1;
    cvt.rni.s32.f32 %s2, %f1;
    cvt.rn.f32.s32 %f2, %s1;
    cvt.rn.f16.f32 %h1, %f1;
    cvt.f32.f16 %f3, %h1;
    cvt.s64.s32 %rd5, %s2;
    cvt.u32.s64 %r2, %rd5;

    mul.wide.u32 %rd3, %r1, 16;
    add.u64 %rd4, %rd2, %rd3;
    st.global.s32 [%rd4+0], %s1;
    st.global.s32 [%rd4+4], %s2;
    st.global.f32 [%rd4+8], %f3;
    st.global.u32 [%rd4+12], %r2;
    ret;
}
)";
    std::vector<float> in = {0.5f,  1.5f,   2.5f,  -0.5f, -1.5f, -2.5f,
                             0.49f, -0.49f, 3.7f,  -3.7f, 0.0f,  -0.0f,
                             1e9f,  -1e9f,  65504.0f, 1.0009765625f};
    expectBothMatch(src, "cvts", Dim3(1), Dim3(16), asBytes(in), 16 * 16);
}

// ---- bfe/bfi bit-field ops ----

TEST(CompiledExec, BfeBfiMatchesInterp)
{
    const char *src = R"(
.visible .entry bitfield(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    ld.global.u32 %r3, [%rd4+4];

    and.b32 %r4, %r3, 31;
    shr.u32 %r5, %r3, 5;
    and.b32 %r5, %r5, 31;
    bfe.u32 %r6, %r2, %r4, %r5;
    cvt.s32.s64 %s1, %rd3;
    bfe.s32 %s2, %r2, %r4, %r5;
    bfi.b32 %r7, %r2, %r3, %r4, %r5;

    mul.wide.u32 %rd3, %r1, 12;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5+0], %r6;
    st.global.s32 [%rd5+4], %s2;
    st.global.u32 [%rd5+8], %r7;
    ret;
}
)";
    std::vector<uint32_t> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(0xf0f0a5c3u * (t + 1));
        in.push_back(t * 37u + (t << 7));
    }
    expectBothMatch(src, "bitfield", Dim3(1), Dim3(32), asBytes(in), 32 * 12);
}

// ---- shared memory + bar.sync tree reduction ----

TEST(CompiledExec, SharedReductionMatchesInterp)
{
    const char *src = R"(
.visible .entry reduce(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 sdata[256];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mov.u64 %rd5, sdata;
    add.u64 %rd6, %rd5, %rd3;
    st.shared.f32 [%rd6], %f1;
    bar.sync 0;
    mov.u32 %r2, 32;
LOOP:
    shr.u32 %r2, %r2, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra DONE;
    setp.ge.u32 %p2, %r1, %r2;
    @%p2 bra SKIP;
    add.u32 %r3, %r1, %r2;
    mul.wide.u32 %rd7, %r3, 4;
    add.u64 %rd7, %rd5, %rd7;
    ld.shared.f32 %f2, [%rd7];
    ld.shared.f32 %f1, [%rd6];
    add.f32 %f1, %f1, %f2;
    st.shared.f32 [%rd6], %f1;
SKIP:
    bar.sync 0;
    bra LOOP;
DONE:
    setp.ne.u32 %p2, %r1, 0;
    @%p2 bra EXIT;
    ld.shared.f32 %f3, [%rd5];
    st.global.f32 [%rd2], %f3;
EXIT:
    ret;
}
)";
    std::vector<float> in;
    for (unsigned t = 0; t < 64; t++)
        in.push_back(float(t) * 0.25f - 3.0f);
    expectBothMatch(src, "reduce", Dim3(2), Dim3(32), asBytes(in), 4);
}

// ---- several warps per CTA with a partial last warp ----

TEST(CompiledExec, MultiWarpPartialCtaMatchesInterp)
{
    // 80 threads per CTA: two full warps and a 16-lane one. Every warp's
    // registers share one block, so this checks the lane indexing of every
    // warp, the padded tail, the shared exchange across warps and .local.
    // The compiled backend runs both its batch loop and its single-step
    // path (the one the timing model drives).
    const char *src = R"(
.visible .entry multiwarp(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<11>;
    .reg .u32 %r<15>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 sdata[320];
    .local .align 4 .b8 buf[8];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %tid.y;
    mov.u32 %r3, %tid.z;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %ntid.y;
    mov.u32 %r8, %ntid.z;
    mad.lo.u32 %r6, %r3, %r5, %r2;
    mad.lo.u32 %r6, %r6, %r4, %r1;
    mul.lo.u32 %r9, %r4, %r5;
    mul.lo.u32 %r9, %r9, %r8;
    mov.u32 %r7, %ctaid.x;
    mad.lo.u32 %r10, %r7, %r9, %r6;
    mul.wide.u32 %rd3, %r10, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    cvt.rn.f32.u32 %f2, %r6;
    fma.rn.f32 %f3, %f1, %f2, %f1;
    mov.u64 %rd5, sdata;
    mul.wide.u32 %rd6, %r6, 4;
    add.u64 %rd7, %rd5, %rd6;
    st.shared.f32 [%rd7], %f3;
    bar.sync 0;
    add.u32 %r11, %r6, 37;
    rem.u32 %r11, %r11, %r9;
    mul.wide.u32 %rd8, %r11, 4;
    add.u64 %rd8, %rd5, %rd8;
    ld.shared.f32 %f4, [%rd8];
    and.b32 %r12, %r6, 3;
    setp.eq.u32 %p1, %r12, 0;
    @%p1 bra SKIP;
    add.f32 %f4, %f4, %f1;
    xor.b32 %r10, %r10, 0x5a5a;
SKIP:
    mov.u64 %rd9, buf;
    st.local.f32 [%rd9], %f4;
    st.local.u32 [%rd9+4], %r10;
    ld.local.f32 %f5, [%rd9];
    ld.local.u32 %r13, [%rd9+4];
    setp.gt.f32 %p2, %f5, 0f00000000;
    selp.u32 %r14, %r13, %r11, %p2;
    add.u64 %rd10, %rd2, %rd3;
    st.global.f32 [%rd10], %f5;
    @%p2 st.global.u32 [%rd10+640], %r14;
    ret;
}
)";
    std::vector<float> in;
    for (unsigned t = 0; t < 160; t++)
        in.push_back(float(t) * 0.375f - 20.0f);
    const Dim3 grid(2), block(8, 5, 2);
    const Image batch = expectBothMatch(src, "multiwarp", grid, block,
                                        asBytes(in), 160 * 4 * 2);
    const Image step =
        runOne(func::ExecMode::Compiled, src, "multiwarp", grid, block,
               asBytes(in), 160 * 4 * 2, /*single_step=*/true);
    expectSameImage(batch, step);
    EXPECT_EQ(batch.regs.size(), 160u);

    // Each thread stored its cross-warp neighbour's value.
    std::vector<float> got(160);
    std::memcpy(got.data(), batch.out.data(), got.size() * 4);
    for (unsigned g = 0; g < 160; g++) {
        const unsigned cta = g / 80, t = g % 80, n = (t + 37) % 80;
        const float x = in[cta * 80 + n];
        float want = std::fmaf(x, float(n), x);
        if (t % 4 != 0)
            want += in[g];
        EXPECT_EQ(got[g], want) << "thread " << g;
    }
}

// ---- global vector loads/stores ----

TEST(CompiledExec, VectorLdStMatchesInterp)
{
    const char *src = R"(
.visible .entry vecldst(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .reg .f32 %f<6>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.v2.f32 {%f1, %f2}, [%rd4];
    add.f32 %f3, %f1, %f2;
    sub.f32 %f4, %f1, %f2;
    add.u64 %rd5, %rd2, %rd3;
    st.global.v2.f32 [%rd5], {%f3, %f4};
    ret;
}
)";
    std::vector<float> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(float(t) * 1.5f);
        in.push_back(float(t) - 16.5f);
    }
    expectBothMatch(src, "vecldst", Dim3(1), Dim3(16), asBytes(in), 16 * 8);
}

// ---- divergent control flow: data-dependent diamond, nested ----

TEST(CompiledExec, DivergentDiamondMatchesInterp)
{
    const char *src = R"(
.visible .entry diamond(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    mov.u32 %r3, 0;
    and.b32 %r4, %r2, 1;
    setp.eq.u32 %p1, %r4, 0;
    @%p1 bra EVEN;
    add.u32 %r3, %r3, 100;
    and.b32 %r4, %r2, 2;
    setp.eq.u32 %p2, %r4, 0;
    @%p2 bra JOIN1;
    add.u32 %r3, %r3, 1000;
JOIN1:
    bra JOIN;
EVEN:
    add.u32 %r3, %r3, 7;
JOIN:
    add.u32 %r3, %r3, %r2;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5], %r3;
    ret;
}
)";
    std::vector<uint32_t> in;
    for (unsigned t = 0; t < 64; t++)
        in.push_back(t * 2654435761u);
    expectBothMatch(src, "diamond", Dim3(2), Dim3(32), asBytes(in), 64 * 4);
}

// ---- atomics: global add contention + cas, shared add ----

TEST(CompiledExec, AtomicsMatchInterp)
{
    const char *src = R"(
.visible .entry atomics(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 scount[4];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    atom.global.add.u32 %r2, [%rd1], 1;
    mov.u64 %rd2, scount;
    atom.shared.add.u32 %r3, [%rd2], %r1;
    bar.sync 0;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra SKIP;
    ld.shared.u32 %r4, [%rd2];
    st.global.u32 [%rd1+4], %r4;
SKIP:
    ret;
}
.visible .entry atomics2(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<6>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 0;
    mov.u32 %r2, 42;
    atom.global.cas.b32 %r3, [%rd1+8], %r1, %r2;
    ret;
}
)";
    const Image img = expectBothMatch(src, "atomics", Dim3(2), Dim3(32), {},
                                      3 * 4);
    uint32_t w[2];
    std::memcpy(w, img.out.data(), 8);
    EXPECT_EQ(w[0], 64u);  // 64 threads atomically incremented slot 0
    EXPECT_EQ(w[1], 496u); // sum 0..31 per CTA
    expectBothMatch(src, "atomics2", Dim3(1), Dim3(4), {}, 3 * 4);
}

// ---- selp / setp variants including float NaN compares ----

TEST(CompiledExec, SetpSelpMatchesInterp)
{
    const char *src = R"(
.visible .entry selects(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<8>;
    .reg .s32 %s<4>;
    .reg .f32 %f<4>;
    .reg .pred %p<8>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+4];
    ld.global.u32 %r2, [%rd4];
    ld.global.s32 %s1, [%rd4+4];

    setp.lt.f32 %p1, %f1, %f2;
    setp.ge.f32 %p2, %f1, %f2;
    setp.eq.f32 %p3, %f1, %f1;
    setp.lt.s32 %p4, %s1, 0;
    setp.hi.u32 %p5, %r2, 128;
    mov.u32 %r3, 1;
    mov.u32 %r4, 2;
    selp.u32 %r5, %r3, %r4, %p1;
    selp.u32 %r6, %r3, %r4, %p2;
    selp.u32 %r7, %r3, %r4, %p3;
    mov.u64 %rd5, 11;
    mov.u64 %rd6, 22;
    selp.u64 %rd7, %rd5, %rd6, %p4;
    selp.u32 %r3, %r3, %r4, %p5;

    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd2, %rd3;
    add.u32 %r5, %r5, %r6;
    add.u32 %r5, %r5, %r7;
    add.u32 %r5, %r5, %r3;
    cvt.u32.u64 %r6, %rd7;
    add.u32 %r5, %r5, %r6;
    st.global.u32 [%rd4], %r5;
    ret;
}
)";
    std::vector<float> in;
    const float vals[] = {0.0f, -0.0f, 1.0f, -2.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -1e-20f, 3.5f};
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(vals[t % 8]);
        in.push_back(vals[(t / 2 + 1) % 8]);
    }
    expectBothMatch(src, "selects", Dim3(1), Dim3(32), asBytes(in), 32 * 4);
}

// ---- warp-wide ld/st, compare, convert and special-register edge cases ----

TEST(CompiledExec, PageStraddlingGlobalLdStMatchesInterp)
{
    // Lanes walk 4-byte steps across a 4 KiB page boundary with 8-byte and
    // v2 accesses: lane 15 straddles it. The overlapping u64 stores also pin
    // lane order (the higher lane's bytes win).
    const char *src = R"(
.visible .entry straddle(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<12>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, 4096;
    and.b64 %rd4, %rd4, -4096;
    sub.u64 %rd4, %rd4, 60;
    add.u64 %rd5, %rd4, %rd3;
    ld.global.u64 %rd6, [%rd5];
    ld.global.v2.u32 {%r2, %r3}, [%rd5];
    add.u64 %rd7, %rd2, 4096;
    and.b64 %rd7, %rd7, -4096;
    sub.u64 %rd7, %rd7, 60;
    add.u64 %rd8, %rd7, %rd3;
    st.global.u64 [%rd8], %rd6;
    st.global.v2.u32 [%rd8+256], {%r3, %r2};
    ret;
}
)";
    std::vector<uint32_t> in(3 * 1024);
    for (size_t i = 0; i < in.size(); i++)
        in[i] = uint32_t(i) * 2654435761u;
    expectBothMatch(src, "straddle", Dim3(1), Dim3(32), asBytes(in),
                    3 * 4096);
}

TEST(CompiledExec, NeverWrittenPageReadsZero)
{
    // 1 MiB past the output buffer is device memory nobody wrote: loads see
    // zero and must not materialize the page (Image::pages is compared).
    const char *src = R"(
.visible .entry untouched(.param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, 1048576;
    add.u64 %rd3, %rd3, %rd2;
    mov.u32 %r2, 77;
    ld.global.u32 %r2, [%rd3];
    ld.global.u64 %rd4, [%rd3+4090];
    add.u64 %rd5, %rd1, %rd2;
    st.global.u32 [%rd5], %r2;
    ret;
}
)";
    const Image img =
        expectBothMatch(src, "untouched", Dim3(1), Dim3(32), {}, 32 * 4);
    for (const uint8_t b : img.out)
        EXPECT_EQ(b, 0);
}

TEST(CompiledExec, GenericLoadAcrossSpacesMatchesInterp)
{
    // One generic ld.u32 whose lanes resolve to global, shared, param and
    // local by address window, plus a generic store back to shared/global.
    const char *src = R"(
.visible .entry spaces(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<10>;
    .reg .u32 %r<8>;
    .reg .pred %p<4>;
    .shared .align 4 .b8 sbuf[128];
    .local .align 4 .b8 lbuf[8];
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    mov.u64 %rd4, sbuf;
    add.u64 %rd5, %rd4, %rd3;
    add.u32 %r2, %r1, 1000;
    st.shared.u32 [%rd5], %r2;
    mov.u64 %rd6, lbuf;
    st.local.u32 [%rd6], %r1;
    bar.sync 0;
    add.u64 %rd7, %rd1, %rd3;
    and.b32 %r3, %r1, 3;
    setp.eq.u32 %p1, %r3, 1;
    setp.eq.u32 %p2, %r3, 2;
    setp.eq.u32 %p3, %r3, 3;
    @%p1 mov.u64 %rd7, %rd5;
    @%p2 mov.u64 %rd7, in;
    @%p3 mov.u64 %rd7, %rd6;
    ld.u32 %r4, [%rd7];
    add.u64 %rd8, %rd2, %rd3;
    @%p1 mov.u64 %rd8, %rd5;
    st.u32 [%rd8], %r4;
    bar.sync 0;
    ld.shared.u32 %r5, [%rd5];
    add.u64 %rd9, %rd2, 128;
    add.u64 %rd9, %rd9, %rd3;
    st.global.u32 [%rd9], %r5;
    ret;
}
)";
    std::vector<uint32_t> in(32);
    for (unsigned t = 0; t < 32; t++)
        in[t] = 0xabc00000u + t;
    expectBothMatch(src, "spaces", Dim3(1), Dim3(32), asBytes(in), 256);
}

TEST(CompiledExec, OutOfBoundsParamAndSharedStillFail)
{
    const char *src = R"(
.visible .entry param_sym(.param .u64 out)
{
    .reg .u32 %r<2>;
    ld.param.u32 %r1, [out+8];
    ret;
}
.visible .entry param_reg(.param .u64 out)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<2>;
    mov.u64 %rd1, out;
    ld.param.u32 %r1, [%rd1+6];
    ret;
}
.visible .entry shared_ld(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 sbuf[64];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd1, %r1, 4;
    mov.u64 %rd2, sbuf;
    add.u64 %rd3, %rd2, %rd1;
    ld.shared.u32 %r2, [%rd3+2];
    ret;
}
.visible .entry shared_st(.param .u64 out)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 sbuf[64];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd1, %r1, 4;
    mov.u64 %rd2, sbuf;
    add.u64 %rd3, %rd2, %rd1;
    st.shared.u32 [%rd3+2], %r1;
    ret;
}
)";
    // param_sym starts at the end of the 8-byte block; param_reg starts
    // inside it and runs 2 bytes past.
    expectAllFail(src, "param_sym", Dim3(1), Dim3(32), 4);
    expectAllFail(src, "param_reg", Dim3(1), Dim3(32), 4);
    // With 16 lanes only the last access (bytes 62..65) leaves the 64-byte
    // segment; with 15 every access is inside it.
    expectAllFail(src, "shared_ld", Dim3(1), Dim3(16), 4);
    expectAllFail(src, "shared_st", Dim3(1), Dim3(16), 4);
    expectBothMatch(src, "shared_ld", Dim3(1), Dim3(15), {}, 4);
    expectBothMatch(src, "shared_st", Dim3(1), Dim3(15), {}, 4);
}

TEST(CompiledExec, UnsignedCompareOnSignedAndIntCvtEdges)
{
    // setp.lo/hs on .s32 compare unsigned; cvt between s32 and u32 keeps
    // the bits at INT_MIN/UINT_MAX; widening, narrowing and int -> f32
    // conversions against the interpreter's execCvt.
    const char *src = R"(
.visible .entry edges(.param .u64 in, .param .u64 out)
{
    .reg .u64 %rd<12>;
    .reg .u32 %r<8>;
    .reg .s32 %s<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<6>;
    ld.param.u64 %rd1, [in];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.s32 %s1, [%rd4];
    ld.global.s32 %s2, [%rd4+4];
    setp.lo.s32 %p1, %s1, %s2;
    setp.hs.s32 %p2, %s1, %s2;
    setp.lt.s32 %p3, %s1, %s2;
    setp.ls.s32 %p4, %s1, -1;
    setp.hi.s32 %p5, %s1, %s2;
    selp.u32 %r2, 1, 0, %p1;
    selp.u32 %r3, 2, 0, %p2;
    add.u32 %r2, %r2, %r3;
    selp.u32 %r3, 4, 0, %p3;
    add.u32 %r2, %r2, %r3;
    selp.u32 %r3, 8, 0, %p4;
    add.u32 %r2, %r2, %r3;
    selp.u32 %r3, 16, 0, %p5;
    add.u32 %r2, %r2, %r3;
    cvt.u32.s32 %r4, %s1;
    cvt.s32.u32 %s3, %r4;
    cvt.s64.s32 %rd5, %s1;
    cvt.u64.u32 %rd6, %r4;
    cvt.u64.s32 %rd7, %s2;
    cvt.s64.u32 %rd8, %r4;
    cvt.rn.f32.s32 %f1, %s1;
    cvt.rn.f32.u32 %f2, %r4;
    cvt.rz.f32.u32 %f3, %r4;
    cvt.u32.u64 %r5, %rd7;
    cvt.s32.s64 %s4, %rd8;
    mul.wide.u32 %rd9, %r1, 64;
    add.u64 %rd10, %rd2, %rd9;
    st.global.u32 [%rd10], %r2;
    st.global.s32 [%rd10+4], %s3;
    st.global.u64 [%rd10+8], %rd5;
    st.global.u64 [%rd10+16], %rd6;
    st.global.u64 [%rd10+24], %rd7;
    st.global.u64 [%rd10+32], %rd8;
    st.global.f32 [%rd10+40], %f1;
    st.global.f32 [%rd10+44], %f2;
    st.global.f32 [%rd10+48], %f3;
    st.global.u32 [%rd10+52], %r5;
    st.global.s32 [%rd10+56], %s4;
    ret;
}
)";
    const uint32_t vals[] = {0x80000000u, 0xffffffffu, 0x7fffffffu, 0u,
                             1u,          0xfffffffeu, 0x80000001u, 16777217u};
    std::vector<uint32_t> in;
    for (unsigned t = 0; t < 32; t++) {
        in.push_back(vals[t % 8]);
        in.push_back(vals[(t / 8 + t) % 8]);
    }
    const Image img =
        expectBothMatch(src, "edges", Dim3(1), Dim3(32), asBytes(in), 32 * 64);
    // Lane 0: INT_MIN vs itself. Unsigned and signed agree on equality.
    uint32_t flags0, flags1;
    std::memcpy(&flags0, img.out.data(), 4);
    EXPECT_EQ(flags0, 2u | 8u); // hs, ls -1 (0x80000000 <= 0xffffffff)
    // Lane 9: UINT_MAX (-1) vs INT_MAX: less signed, higher unsigned.
    std::memcpy(&flags1, img.out.data() + 9 * 64, 4);
    EXPECT_EQ(flags1, 2u | 4u | 8u | 16u);
    int64_t sext;
    std::memcpy(&sext, img.out.data() + 8, 8);
    EXPECT_EQ(sext, int64_t(INT32_MIN));
}

TEST(CompiledExec, SpecialRegistersInPartialLastWarp)
{
    // A 6x4x2 block is 48 threads: warp 1 has 16 live lanes, and its
    // %tid.y/%tid.z step across rows and planes inside the warp.
    const char *src = R"(
.visible .entry sregs(.param .u64 out)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<16>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %tid.y;
    mov.u32 %r3, %tid.z;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %ntid.y;
    mov.u32 %r6, %ctaid.x;
    mov.u32 %r7, %nctaid.x;
    mov.u32 %r8, %laneid;
    mov.u32 %r9, %warpid;
    mad.lo.u32 %r10, %r3, %r5, %r2;
    mad.lo.u32 %r10, %r10, %r4, %r1;
    mul.lo.u32 %r11, %r6, 48;
    add.u32 %r11, %r11, %r10;
    mul.wide.u32 %rd2, %r11, 16;
    add.u64 %rd3, %rd1, %rd2;
    st.global.v4.u32 [%rd3], {%r1, %r2, %r3, %r8};
    ret;
}
)";
    const Image img =
        expectBothMatch(src, "sregs", Dim3(2), Dim3(6, 4, 2), {}, 96 * 16);
    for (unsigned cta = 0; cta < 2; cta++) {
        for (unsigned t = 0; t < 48; t++) {
            uint32_t v[4];
            std::memcpy(v, img.out.data() + (cta * 48 + t) * 16, 16);
            EXPECT_EQ(v[0], t % 6) << "tid " << t;
            EXPECT_EQ(v[1], (t / 6) % 4) << "tid " << t;
            EXPECT_EQ(v[2], t / 24) << "tid " << t;
            EXPECT_EQ(v[3], t % 32) << "tid " << t;
        }
    }
}

// ---- backend selection plumbing ----

TEST(CompiledExec, ExplicitModeOverridesEnvironment)
{
    // Whatever MLGS_EXEC says, an explicit constructor choice wins; Auto
    // resolves the env var.
    char *saved = std::getenv("MLGS_EXEC");
    const std::string saved_val = saved ? saved : "";

    ::setenv("MLGS_EXEC", "interp", 1);
    {
        GpuMemory mem;
        func::Interpreter explicit_compiled(mem, {},
                                            func::ExecMode::Compiled);
        EXPECT_EQ(explicit_compiled.execMode(), func::ExecMode::Compiled);
        func::Interpreter auto_resolved(mem);
        EXPECT_EQ(auto_resolved.execMode(), func::ExecMode::Interp);
    }
    ::setenv("MLGS_EXEC", "compiled", 1);
    {
        GpuMemory mem;
        func::Interpreter auto_resolved(mem);
        EXPECT_EQ(auto_resolved.execMode(), func::ExecMode::Compiled);
        func::Interpreter explicit_interp(mem, {}, func::ExecMode::Interp);
        EXPECT_EQ(explicit_interp.execMode(), func::ExecMode::Interp);
    }

    if (saved)
        ::setenv("MLGS_EXEC", saved_val.c_str(), 1);
    else
        ::unsetenv("MLGS_EXEC");
}

} // namespace
