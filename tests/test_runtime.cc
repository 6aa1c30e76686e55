/**
 * @file
 * Runtime-layer tests: modules with duplicate symbols, both launch API
 * paths, streams/events/cudaStreamWaitEvent, textures (including the paper's
 * multi-texref-per-name failure and fix), symbols, and launch capture.
 */
#include <gtest/gtest.h>

#include "runtime/context.h"

using namespace mlgs;
using namespace mlgs::cuda;

namespace
{

const char *kScaleKernel = R"(
.visible .entry scale(.param .u64 buf, .param .u32 n, .param .f32 k)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [k];
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

const char *kTexKernel = R"(
.tex .u64 tex_src;
.visible .entry texcopy(.param .u64 out, .param .u32 n)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mov.u32 %r3, 0;
    tex.2d.v4.f32.s32 {%f1, %f2, %f3, %f4}, [tex_src, {%r2, %r3}];
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.f32 [%rd3], %f1;
DONE:
    ret;
}
)";

TEST(Runtime, KernelArgsPackNaturalAlignment)
{
    // Each value starts at a multiple of its own size; the gap before it is
    // zero. These bytes are what the parser's .param layout reads.
    KernelArgs args;
    args.u32(0xa1b2c3d4u)
        .ptr(0x1122334455667788ull)
        .f32(1.0f)
        .add<uint64_t>(0x0102030405060708ull)
        .s32(-2);
    const std::vector<uint8_t> expect = {
        0xd4, 0xc3, 0xb2, 0xa1, 0x00, 0x00, 0x00, 0x00, // u32, pad
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // u64
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, // f32 1.0, pad
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
        0xfe, 0xff, 0xff, 0xff,                         // s32 -2
    };
    EXPECT_EQ(args.bytes(), expect);
}

TEST(Runtime, LaunchByNameAndHandle)
{
    Context ctx;
    const int mod = ctx.loadModule(kScaleKernel, "scale.ptx");
    const unsigned n = 100;
    std::vector<float> h(n, 2.0f);
    const addr_t d = ctx.malloc(n * 4);
    ctx.memcpyH2D(d, h.data(), n * 4);

    KernelArgs args;
    args.ptr(d).u32(n).f32(3.0f);
    ctx.launch("scale", Dim3(1), Dim3(128), args); // cudaLaunch path
    ctx.deviceSynchronize();

    const auto *fn = ctx.getFunction(mod, "scale");
    ASSERT_NE(fn, nullptr);
    ctx.cuLaunchKernel(fn, Dim3(1), Dim3(128), args); // driver-API path
    ctx.deviceSynchronize();

    ctx.memcpyD2H(h.data(), d, n * 4);
    for (unsigned i = 0; i < n; i++)
        EXPECT_FLOAT_EQ(h[i], 18.0f);
    EXPECT_EQ(ctx.launchLog().size(), 2u);
}

TEST(Runtime, DuplicateKernelNamesAcrossModules)
{
    // Section III-A: cuDNN ships identical symbol names in multiple PTX
    // files; per-module loading must keep them separate.
    Context ctx;
    const char *mod_a = R"(
.visible .entry dup(.param .u64 out)
{
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], 111;
    ret;
}
)";
    const char *mod_b = R"(
.visible .entry dup(.param .u64 out)
{
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], 222;
    ret;
}
)";
    const int ha = ctx.loadModule(mod_a, "a.ptx");
    const int hb = ctx.loadModule(mod_b, "b.ptx");
    const addr_t d = ctx.malloc(4);
    KernelArgs args;
    args.ptr(d);

    ctx.cuLaunchKernel(ctx.getFunction(ha, "dup"), Dim3(1), Dim3(1), args);
    ctx.deviceSynchronize();
    EXPECT_EQ(ctx.memory().load<uint32_t>(d), 111u);

    ctx.cuLaunchKernel(ctx.getFunction(hb, "dup"), Dim3(1), Dim3(1), args);
    ctx.deviceSynchronize();
    EXPECT_EQ(ctx.memory().load<uint32_t>(d), 222u);

    // Name-based lookup resolves to the first registration.
    ctx.launch("dup", Dim3(1), Dim3(1), args);
    ctx.deviceSynchronize();
    EXPECT_EQ(ctx.memory().load<uint32_t>(d), 111u);
}

TEST(Runtime, StreamWaitEventOrdersAcrossStreams)
{
    Context ctx;
    ctx.loadModule(kScaleKernel, "scale.ptx");
    const unsigned n = 64;
    std::vector<float> h(n, 1.0f);
    const addr_t d = ctx.malloc(n * 4);

    Stream *s1 = ctx.createStream();
    Stream *s2 = ctx.createStream();
    Event *ev = ctx.createEvent();

    // s2 must wait for s1's upload before scaling.
    ctx.streamWaitEvent(s2, ev);
    KernelArgs args;
    args.ptr(d).u32(n).f32(5.0f);
    KernelArgs args2;
    args2.ptr(d).u32(n).f32(2.0f);
    ctx.launch("scale", Dim3(1), Dim3(64), args, s2);

    ctx.memcpyH2D(d, h.data(), n * 4, s1);
    ctx.recordEvent(ev, s1);

    ctx.deviceSynchronize();
    std::vector<float> out(n);
    ctx.memcpyD2H(out.data(), d, n * 4);
    for (unsigned i = 0; i < n; i++)
        EXPECT_FLOAT_EQ(out[i], 5.0f); // upload happened before the kernel
}

TEST(Runtime, StreamDeadlockDetected)
{
    Context ctx;
    Stream *s = ctx.createStream();
    Event *ev = ctx.createEvent();
    ctx.streamWaitEvent(s, ev);
    const addr_t d = ctx.malloc(16);
    ctx.memsetD(d, 0, 16, s);
    EXPECT_THROW(ctx.streamSynchronize(s), FatalError);
}

TEST(Runtime, StreamOverlapShortensMakespan)
{
    // Two independent uploads overlap on different streams.
    Context ctx;
    const size_t big = 1 << 16;
    std::vector<uint8_t> h(big, 7);
    const addr_t d1 = ctx.malloc(big);
    const addr_t d2 = ctx.malloc(big);

    Stream *s1 = ctx.createStream();
    Stream *s2 = ctx.createStream();
    ctx.memcpyH2D(d1, h.data(), big, s1);
    ctx.memcpyH2D(d2, h.data(), big, s2);
    ctx.deviceSynchronize();
    const cycle_t overlapped = ctx.elapsedCycles();

    Context ctx2;
    const addr_t e1 = ctx2.malloc(big);
    const addr_t e2 = ctx2.malloc(big);
    Stream *t1 = ctx2.createStream();
    ctx2.memcpyH2D(e1, h.data(), big, t1);
    ctx2.memcpyH2D(e2, h.data(), big, t1);
    ctx2.deviceSynchronize();
    const cycle_t serial = ctx2.elapsedCycles();

    EXPECT_LT(overlapped, serial);
}

TEST(Runtime, TextureFetchThroughNameBinding)
{
    Context ctx;
    ctx.loadModule(kTexKernel, "tex.ptx");
    const unsigned n = 32;
    std::vector<float> tex_data(n);
    for (unsigned i = 0; i < n; i++)
        tex_data[i] = float(i) * 1.5f;

    TexArray *arr = ctx.mallocArray(n, 1, 1);
    ctx.memcpyToArray(arr, tex_data.data(), n);
    const int ref = ctx.registerTexture("tex_src");
    ctx.bindTextureToArray(ref, arr);

    const addr_t out = ctx.malloc(n * 4);
    KernelArgs args;
    args.ptr(out).u32(n);
    ctx.launch("texcopy", Dim3(1), Dim3(32), args);
    ctx.deviceSynchronize();

    std::vector<float> result(n);
    ctx.memcpyD2H(result.data(), out, n * 4);
    for (unsigned i = 0; i < n; i++)
        EXPECT_FLOAT_EQ(result[i], tex_data[i]);
}

TEST(Runtime, MultipleTexrefsPerName_FixedVsLegacy)
{
    // The MNIST texture failure (Section III-C): two texrefs registered for
    // the same name; binding through the first must survive re-registration.
    auto run = [](bool legacy) -> bool {
        ContextOptions opts;
        opts.legacy_texture_name_map = legacy;
        Context ctx(opts);
        ctx.loadModule(kTexKernel, "tex.ptx");
        const unsigned n = 8;
        std::vector<float> tex_data(n, 42.0f);
        TexArray *arr = ctx.mallocArray(n, 1, 1);
        ctx.memcpyToArray(arr, tex_data.data(), n);

        const int ref1 = ctx.registerTexture("tex_src");
        ctx.bindTextureToArray(ref1, arr);
        // Second registration of the same name (as separate cuDNN PTX files
        // do). With the legacy single-texref map this wipes the binding.
        ctx.registerTexture("tex_src");

        const addr_t out = ctx.malloc(n * 4);
        KernelArgs args;
        args.ptr(out).u32(n);
        try {
            ctx.launch("texcopy", Dim3(1), Dim3(8), args);
            ctx.deviceSynchronize();
        } catch (const FatalError &) {
            return false; // lost binding -> tex instruction failed
        }
        float v = 0;
        ctx.memcpyD2H(&v, out, 4);
        return v == 42.0f;
    };

    EXPECT_TRUE(run(false));  // fixed behaviour works
    EXPECT_FALSE(run(true));  // legacy behaviour loses the binding
}

TEST(Runtime, RebindImplicitlyUnbinds)
{
    Context ctx;
    ctx.loadModule(kTexKernel, "tex.ptx");
    const unsigned n = 4;
    std::vector<float> a(n, 1.0f), b(n, 9.0f);
    TexArray *arr_a = ctx.mallocArray(n, 1, 1);
    TexArray *arr_b = ctx.mallocArray(n, 1, 1);
    ctx.memcpyToArray(arr_a, a.data(), n);
    ctx.memcpyToArray(arr_b, b.data(), n);

    const int ref = ctx.registerTexture("tex_src");
    ctx.bindTextureToArray(ref, arr_a);
    // Paper's fix: bind on an already-bound texref implicitly unbinds first.
    ctx.bindTextureToArray(ref, arr_b);

    const addr_t out = ctx.malloc(n * 4);
    KernelArgs args;
    args.ptr(out).u32(n);
    ctx.launch("texcopy", Dim3(1), Dim3(4), args);
    ctx.deviceSynchronize();
    float v = 0;
    ctx.memcpyD2H(&v, out, 4);
    EXPECT_FLOAT_EQ(v, 9.0f);
}

TEST(Runtime, SymbolsAndModuleGlobals)
{
    Context ctx;
    const char *src = R"(
.global .align 4 .f32 coef[4];
.visible .entry usecoef(.param .u64 out)
{
    .reg .u64 %rd<3>;
    .reg .f32 %f<3>;
    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, coef;
    ld.global.f32 %f1, [%rd2+8];
    st.global.f32 [%rd1], %f1;
    ret;
}
)";
    ctx.loadModule(src, "coef.ptx");
    const float host_coefs[4] = {1, 2, 3, 4};
    ctx.memcpyToSymbol("coef", host_coefs, sizeof(host_coefs));
    const addr_t out = ctx.malloc(4);
    KernelArgs args;
    args.ptr(out);
    ctx.launch("usecoef", Dim3(1), Dim3(1), args);
    ctx.deviceSynchronize();
    float v = 0;
    ctx.memcpyD2H(&v, out, 4);
    EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(Runtime, CaptureLaunchesSnapshotsInputBuffers)
{
    Context ctx;
    ctx.setCaptureLaunches(true);
    ctx.loadModule(kScaleKernel, "scale.ptx");
    const unsigned n = 16;
    std::vector<float> h(n, 4.0f);
    const addr_t d = ctx.malloc(n * 4);
    ctx.memcpyH2D(d, h.data(), n * 4);
    KernelArgs args;
    args.ptr(d).u32(n).f32(2.0f);
    ctx.launch("scale", Dim3(1), Dim3(16), args);
    ctx.deviceSynchronize();

    ASSERT_EQ(ctx.capturedLaunches().size(), 1u);
    const auto &cap = ctx.capturedLaunches()[0];
    EXPECT_EQ(cap.record.kernel_name, "scale");
    ASSERT_EQ(cap.buffers.size(), 1u);
    EXPECT_EQ(cap.buffers[0].addr, d);
    // The snapshot holds the PRE-launch contents.
    float first = 0;
    std::memcpy(&first, cap.buffers[0].data.data(), 4);
    EXPECT_FLOAT_EQ(first, 4.0f);
}

TEST(Runtime, PerformanceModeProducesCycles)
{
    ContextOptions opts;
    opts.mode = SimMode::Performance;
    opts.gpu.num_cores = 2;
    Context ctx(opts);
    ctx.loadModule(kScaleKernel, "scale.ptx");
    const unsigned n = 2048;
    std::vector<float> h(n, 1.0f);
    const addr_t d = ctx.malloc(n * 4);
    ctx.memcpyH2D(d, h.data(), n * 4);
    KernelArgs args;
    args.ptr(d).u32(n).f32(2.0f);
    ctx.launch("scale", Dim3(n / 128), Dim3(128), args);
    ctx.deviceSynchronize();
    ASSERT_EQ(ctx.launchLog().size(), 1u);
    EXPECT_GT(ctx.launchLog()[0].cycles, 0u);
    std::vector<float> out(n);
    ctx.memcpyD2H(out.data(), d, n * 4);
    for (unsigned i = 0; i < n; i++)
        ASSERT_FLOAT_EQ(out[i], 2.0f);
}

TEST(Runtime, SimThreadsOtherThanOneIsRejected)
{
    // Simulation runs on the calling thread; the field survives only for
    // callers that pin it to 1.
    ContextOptions opts;
    EXPECT_EQ(opts.sim_threads, 1u);
    EXPECT_EQ(Context(opts).simThreads(), 1u);
    opts.sim_threads = 4;
    try {
        Context ctx(opts);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sim_threads was removed"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
