/**
 * @file
 * The compiled micro-op executor. Dispatch is a flat table of per-kind
 * handlers over the lowered uop stream (ptx/uop.h): control kinds are
 * handled inline by the dispatch loop, generic kinds funnel into the shared
 * scalar semantics (func/exec_semantics.h) — the same code the interpreter
 * runs — and the specialized kinds are dense 32-lane loops over pre-resolved
 * register slots, structured so the compiler can unroll/vectorize them.
 *
 * The batch loop (runWarp) additionally exploits the basic-block structure
 * the lowering pass marked via `ends_block`: within a block the active mask
 * is invariant and the SIMT stack is untouched, so the top-of-stack pc is
 * synced only at block boundaries, control ops, and the instruction limit.
 * This is safe because reconvergence targets are always block leaders — a
 * mid-block advance can never trigger a reconvergence pop.
 */
#include "func/compiled/exec.h"

#include <bit>
#include <functional>
#include <type_traits>

#include "func/engine.h"
#include "func/exec_semantics.h"
#include "func/interpreter.h"
#include "ptx/uop.h"

namespace mlgs::func::compiled
{

using ptx::AtomOp;
using ptx::CmpOp;
using ptx::RegVal;
using ptx::Space;
using ptx::Type;
using ptx::Uop;
using ptx::UopBug;
using ptx::UopKind;
using ptx::UopMem;
using ptx::UopProgram;
using ptx::UopSrc;

namespace
{

/** Per-warp execution context threaded through every handler. */
struct ExecCtx
{
    CtaExec *cta = nullptr;
    const LaunchEnv *env = nullptr;
    GpuMemory *mem = nullptr;
    const UopProgram *prog = nullptr;
    unsigned warp = 0;
    unsigned tid0 = 0;                 ///< first thread id of the warp
    RegVal *regs = nullptr;            ///< the warp's [reg][lane] block
    WarpStepResult *res = nullptr;     ///< single-step mode: access sink
    FuncStats *stats = nullptr;        ///< batch mode: direct accumulation
};

ExecCtx
makeCtx(Interpreter &interp, CtaExec &cta, const LaunchEnv &env,
        const UopProgram &prog, unsigned warp)
{
    ExecCtx ctx;
    ctx.cta = &cta;
    ctx.env = &env;
    ctx.mem = &interp.memory();
    ctx.prog = &prog;
    ctx.warp = warp;
    ctx.tid0 = warp * kWarpSize;
    ctx.regs = cta.warpRegs(warp);
    return ctx;
}

/**
 * One lane's view of the warp's register block: r[reg] is register `reg`
 * of that lane. A full-mask loop over lanes walks each register's
 * kWarpSize cells in order.
 */
struct LaneRegs
{
    RegVal *base;
    unsigned lane;

    RegVal &
    operator[](size_t reg) const
    {
        return base[reg * kWarpSize + lane];
    }
};

/** Guard-predicate evaluation, identical to the interpreter's. */
warp_mask_t
predMask(const Uop &u, warp_mask_t mask, const ExecCtx &ctx)
{
    if (u.pred < 0)
        return mask;
    warp_mask_t exec = 0;
    warp_mask_t m = mask;
    while (m) {
        const unsigned lane = unsigned(__builtin_ctz(m));
        m &= m - 1;
        const bool p = ctx.regs[size_t(u.pred) * kWarpSize + lane].pred;
        if (p != u.pred_neg)
            exec |= warp_mask_t(1) << lane;
    }
    return exec;
}

addr_t
windowBase(Space sp)
{
    switch (sp) {
      case Space::Shared: return kSharedBase;
      case Space::Local: return kLocalBase;
      case Space::Param: return kParamBase;
      default: panic("windowBase: bad static symbol space");
    }
}

addr_t
runtimeSym(const ExecCtx &ctx, int32_t sym)
{
    const std::string &name = ctx.prog->syms[size_t(sym)];
    if (ctx.env->symbols) {
        const auto it = ctx.env->symbols->find(name);
        if (it != ctx.env->symbols->end())
            return it->second;
    }
    fatal("unresolved symbol '", name, "' in kernel ", ctx.env->kernel->name);
}

/** Generic scalar source read (mirrors Interpreter::readOperand). */
RegVal
srcVal(const ExecCtx &ctx, const UopSrc &s, unsigned lane, LaneRegs r)
{
    RegVal v{};
    switch (s.kind) {
      case UopSrc::K::Reg:
        return r[size_t(s.reg)];
      case UopSrc::K::Imm:
        return s.imm;
      case UopSrc::K::Sreg:
        v.u64 = readSpecial(s.sreg, *ctx.cta, ctx.tid0 + lane);
        return v;
      case UopSrc::K::SymStatic:
        v.u64 = windowBase(s.space) + s.off;
        return v;
      case UopSrc::K::SymRuntime:
        v.u64 = runtimeSym(ctx, s.sym);
        return v;
      default:
        return v; // None: zeroed, like the interpreter's absent operands
    }
}

/** Specialized-kind source read: guaranteed register or typed immediate. */
inline RegVal
srcRI(const UopSrc &s, LaneRegs r)
{
    return s.kind == UopSrc::K::Reg ? r[size_t(s.reg)] : s.imm;
}

/**
 * A memory operand's per-lane address. A symbol base is lane-uniform and
 * resolved once per warp instruction; callers build this only when a lane
 * is active, so an unresolved symbol fails exactly when the interpreter's
 * would.
 */
struct LaneAddr
{
    int32_t base_reg; ///< -1: every lane uses `off`
    addr_t off;       ///< immediate offset, or the whole symbol address

    addr_t
    operator()(LaneRegs r) const
    {
        return base_reg >= 0 ? r[size_t(base_reg)].u64 + off : off;
    }

    /** With generic-space resolution (mirrors Interpreter::resolveAddr). */
    Ea
    resolve(Space declared, LaneRegs r) const
    {
        const addr_t a = (*this)(r);
        return Ea{resolveSpace(declared, a), a};
    }
};

LaneAddr
laneAddr(const ExecCtx &ctx, const UopMem &m)
{
    if (m.base_reg >= 0)
        return LaneAddr{m.base_reg, addr_t(m.imm)};
    const addr_t sym = m.sym >= 0 ? runtimeSym(ctx, m.sym)
                                  : windowBase(m.sym_space) + m.sym_off;
    return LaneAddr{-1, sym + addr_t(m.imm)};
}

/**
 * Book-keep one lane's ld/st. Single-step mode pushes the access for the
 * engine's FuncStats::accumulate; batch mode applies the exact same
 * accumulation directly (bytes only for global/const, shared counts +
 * race shadow for shared, nothing for param).
 */
void
recordLdSt(const ExecCtx &ctx, const Uop &u, const Ea &ea, unsigned bytes,
           bool is_store, unsigned tid)
{
    if (ea.space == Space::Global || ea.space == Space::Const ||
        ea.space == Space::Local) {
        if (ctx.res) {
            ctx.res->accesses.push_back(
                MemAccess{ea.addr, bytes, is_store, false, ea.space});
        } else if (ctx.stats && ea.space != Space::Local) {
            if (is_store)
                ctx.stats->global_st_bytes += bytes;
            else
                ctx.stats->global_ld_bytes += bytes;
        }
    } else if (ea.space == Space::Shared) {
        if (ctx.res)
            ctx.res->shared_accesses++;
        else if (ctx.stats)
            ctx.stats->shared_accesses++;
        if (RaceShadow *rs = ctx.cta->raceShadow())
            rs->onAccess(size_t(ea.addr - kSharedBase), bytes, tid, u.pc,
                         u.line, is_store);
    }
}

/**
 * Dense lane loop: the full-mask path is a branch-free 0..31 loop the
 * compiler can unroll/vectorize; the divergent path walks set bits.
 */
#define MLGS_LANE_LOOP(body)                                                  \
    do {                                                                      \
        if (exec == kFullWarpMask) {                                          \
            for (unsigned lane = 0; lane < kWarpSize; lane++) {               \
                const LaneRegs r{ctx.regs, lane};                             \
                body;                                                         \
            }                                                                 \
        } else {                                                              \
            warp_mask_t m_ = exec;                                            \
            while (m_) {                                                      \
                const unsigned lane = unsigned(__builtin_ctz(m_));            \
                m_ &= m_ - 1;                                                 \
                const LaneRegs r{ctx.regs, lane};                             \
                body;                                                         \
            }                                                                 \
        }                                                                     \
    } while (0)

using Handler = void (*)(const Uop &, warp_mask_t, ExecCtx &);

// ---- generic handlers (shared scalar semantics) ----

void
hMov(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(
        writeTyped(r[size_t(u.dst)], u.type, srcVal(ctx, u.a, lane, r)));
}

void
hCvt(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], u.type,
        execCvt(u.type, u.stype, u.cvt_round, srcVal(ctx, u.a, lane, r))));
}

void
hSetpG(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const std::string &text = ptx::variantName(u.variant_id);
    MLGS_LANE_LOOP(r[size_t(u.dst)].pred =
                       setpCompare(u.type, u.cmp, srcVal(ctx, u.a, lane, r),
                                   srcVal(ctx, u.b, lane, r), text));
}

void
hSelpG(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const RegVal a = srcVal(ctx, u.a, lane, r);
        const RegVal b = srcVal(ctx, u.b, lane, r);
        const RegVal p = srcVal(ctx, u.c, lane, r);
        writeTyped(r[size_t(u.dst)], u.type, p.pred ? a : b);
    });
}

void
hBfi(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint64_t ia = asU64(u.type, srcVal(ctx, u.a, lane, r));
        const uint64_t ib = asU64(u.type, srcVal(ctx, u.b, lane, r));
        const uint32_t pos = srcVal(ctx, u.c, lane, r).u32 & 0xff;
        const uint32_t len = srcVal(ctx, u.d, lane, r).u32 & 0xff;
        writeTyped(r[size_t(u.dst)], u.type,
                   makeInt(u.type, bfiInsert(u.type, ia, ib, pos, len)));
    });
}

void
hLd(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = addr.resolve(u.mem.space, r);
        RegVal vals[4];
        loadTyped(*ctx.mem, ea, u.type, u.vec_width, vals, *ctx.cta, tid,
                  *ctx.env);
        if (u.vec_width == 1)
            writeTyped(r[size_t(u.dst)], u.type, vals[0]);
        else
            for (unsigned i = 0; i < u.dvec_n; i++)
                writeTyped(r[size_t(u.dvec[i])], u.type, vals[i]);
        recordLdSt(ctx, u, ea, bytes, false, tid);
    });
}

void
hSt(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = addr.resolve(u.mem.space, r);
        RegVal vals[4];
        if (u.vec_width == 1)
            vals[0] = srcVal(ctx, u.a, lane, r);
        else
            for (unsigned i = 0; i < u.svec_n; i++)
                vals[i] = r[size_t(u.svec[i])];
        storeTyped(*ctx.mem, ea, u.type, u.vec_width, vals, *ctx.cta, tid);
        recordLdSt(ctx, u, ea, bytes, true, tid);
    });
}

void
hAtom(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const LaneAddr addr = laneAddr(ctx, u.mem);
    MLGS_LANE_LOOP({
        const unsigned tid = ctx.tid0 + lane;
        const Ea ea = addr.resolve(u.mem.space, r);
        RegVal old;
        loadTyped(*ctx.mem, ea, u.type, 1, &old, *ctx.cta, tid, *ctx.env);
        const RegVal b = srcVal(ctx, u.a, lane, r);
        RegVal swap{};
        if (u.atom_op == AtomOp::Cas)
            swap = srcVal(ctx, u.b, lane, r);
        const RegVal next = atomNext(u.atom_op, u.type, old, b, swap);
        storeTyped(*ctx.mem, ea, u.type, 1, &next, *ctx.cta, tid);
        if (u.dst >= 0)
            writeTyped(r[size_t(u.dst)], u.type, old);
        if (ea.space == Space::Shared) {
            if (ctx.res)
                ctx.res->shared_accesses++;
            else if (ctx.stats)
                ctx.stats->shared_accesses++;
        } else if (ctx.res) {
            ctx.res->accesses.push_back(MemAccess{
                ea.addr, ptx::typeSize(u.type), true, true, ea.space});
        } else if (ctx.stats) {
            ctx.stats->atomics++;
            if (ea.space == Space::Global || ea.space == Space::Const ||
                ea.space == Space::Tex)
                ctx.stats->global_st_bytes += ptx::typeSize(u.type);
        }
    });
}

void
hTex(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return; // the interpreter's lane loop never reaches the lookups
    MLGS_REQUIRE(ctx.env->textures,
                 "texture instruction without texture table");
    const std::string &name = ctx.prog->syms[size_t(u.mem.sym)];
    const TexBinding *bind = ctx.env->textures->lookupTexture(name);
    MLGS_REQUIRE(bind, "texture '", name,
                 "' is not bound to an array (lost binding)");
    MLGS_LANE_LOOP({
        const int64_t xi = texCoordToInt(u.stype, r[size_t(u.svec[0])]);
        const int64_t yi = (u.tex_dim >= 2 && u.svec_n >= 2)
                               ? texCoordToInt(u.stype, r[size_t(u.svec[1])])
                               : 0;
        const TexFetch f = texFetch(*ctx.mem, *bind, u.tex_dim, xi, yi);
        if (f.hit) {
            if (ctx.res)
                ctx.res->accesses.push_back(
                    MemAccess{f.base, f.bytes, false, false, Space::Tex});
            else if (ctx.stats)
                ctx.stats->global_ld_bytes += f.bytes;
        }
        if (u.dvec_n) {
            for (unsigned i = 0; i < u.dvec_n; i++) {
                RegVal v;
                v.f32 = f.texel[i];
                writeTyped(r[size_t(u.dvec[i])], Type::F32, v);
            }
        } else {
            RegVal v;
            v.f32 = f.texel[0];
            writeTyped(r[size_t(u.dst)], Type::F32, v);
        }
    });
}

void
hAlu(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    BugModel bugs;
    bugs.legacy_rem = (u.bug_flags & UopBug::kLegacyRem) != 0;
    bugs.legacy_bfe = (u.bug_flags & UopBug::kLegacyBfe) != 0;
    bugs.split_fma = (u.bug_flags & UopBug::kSplitFma) != 0;
    MLGS_LANE_LOOP({
        const RegVal a = srcVal(ctx, u.a, lane, r);
        const RegVal b = srcVal(ctx, u.b, lane, r);
        const RegVal c = srcVal(ctx, u.c, lane, r);
        writeTyped(r[size_t(u.dst)], u.dst_type,
                   execAluOp(bugs, u.op, u.type, u.mul_mode, a, b, c));
    });
}

// ---- specialized SIMD lane loops ----

void
hMov32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = srcRI(u.a, r).u32);
}

void
hMov64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 = srcRI(u.a, r).u64);
}

void
hIAdd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 + srcRI(u.b, r).u32);
}

void
hISub32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 - srcRI(u.b, r).u32);
}

void
hIMul32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 * srcRI(u.b, r).u32);
}

void
hIMad32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 * srcRI(u.b, r).u32 +
                       srcRI(u.c, r).u32);
}

void
hIAnd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 & srcRI(u.b, r).u32);
}

void
hIOr32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 | srcRI(u.b, r).u32);
}

void
hIXor32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       srcRI(u.a, r).u32 ^ srcRI(u.b, r).u32);
}

void
hIShl32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = srcRI(u.b, r).u32;
        r[size_t(u.dst)].u32 = s >= 32 ? 0 : srcRI(u.a, r).u32 << s;
    });
}

void
hIShrS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = std::min(srcRI(u.b, r).u32, 31u);
        r[size_t(u.dst)].s32 = srcRI(u.a, r).s32 >> s;
    });
}

void
hIShrU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const uint32_t s = srcRI(u.b, r).u32;
        r[size_t(u.dst)].u32 = s >= 32 ? 0 : srcRI(u.a, r).u32 >> s;
    });
}

void
hIMinS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s32 =
                       std::min(srcRI(u.a, r).s32, srcRI(u.b, r).s32));
}

void
hIMinU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       std::min(srcRI(u.a, r).u32, srcRI(u.b, r).u32));
}

void
hIMaxS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s32 =
                       std::max(srcRI(u.a, r).s32, srcRI(u.b, r).s32));
}

void
hIMaxU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 =
                       std::max(srcRI(u.a, r).u32, srcRI(u.b, r).u32));
}

void
hIAdd64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 =
                       srcRI(u.a, r).u64 + srcRI(u.b, r).u64);
}

void
hMulWideU32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 =
                       uint64_t(srcRI(u.a, r).u32) * srcRI(u.b, r).u32);
}

void
hMulWideS32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s64 =
                       int64_t(srcRI(u.a, r).s32) * srcRI(u.b, r).s32);
}

void
hFAdd32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) + double(srcRI(u.b, r).f32))));
}

void
hFSub32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) - double(srcRI(u.b, r).f32))));
}

void
hFMul32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32,
              double(srcRI(u.a, r).f32) * double(srcRI(u.b, r).f32))));
}

void
hFMad32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // Exactly the generic mad.f32: the product is rounded to f32 (canonical
    // NaN applied) before the add — two roundings, like the interpreter.
    MLGS_LANE_LOOP({
        const RegVal prod =
            makeF(Type::F32,
                  double(srcRI(u.a, r).f32) * double(srcRI(u.b, r).f32));
        writeTyped(r[size_t(u.dst)], Type::F32,
                   makeF(Type::F32,
                         double(prod.f32) + double(srcRI(u.c, r).f32)));
    });
}

void
hFFma32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const bool split = (u.bug_flags & UopBug::kSplitFma) != 0;
    MLGS_LANE_LOOP({
        const float fa = srcRI(u.a, r).f32;
        const float fb = srcRI(u.b, r).f32;
        const float fc = srcRI(u.c, r).f32;
        const float v = split ? fa * fb + fc : std::fmaf(fa, fb, fc);
        writeTyped(r[size_t(u.dst)], Type::F32, makeF(Type::F32, v));
    });
}

void
hFMin32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32, fminDet(double(srcRI(u.a, r).f32),
                                 double(srcRI(u.b, r).f32)))));
}

void
hFMax32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(writeTyped(
        r[size_t(u.dst)], Type::F32,
        makeF(Type::F32, fmaxDet(double(srcRI(u.a, r).f32),
                                 double(srcRI(u.b, r).f32)))));
}

/** A 32-bit compare as the lane loop's element type. */
template <typename T>
inline T
lane32(const RegVal &v)
{
    if constexpr (std::is_signed_v<T>)
        return v.s32;
    else
        return v.u32;
}

template <typename T, typename Cmp>
void
setpLanes(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    const Cmp cmp{};
    MLGS_LANE_LOOP(r[size_t(u.dst)].pred = cmp(lane32<T>(srcRI(u.a, r)),
                                               lane32<T>(srcRI(u.b, r))));
}

template <typename T>
void
setpTyped(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    switch (u.cmp) {
      case CmpOp::Eq: setpLanes<T, std::equal_to<T>>(u, exec, ctx); break;
      case CmpOp::Ne: setpLanes<T, std::not_equal_to<T>>(u, exec, ctx); break;
      case CmpOp::Lt: case CmpOp::Lo:
        setpLanes<T, std::less<T>>(u, exec, ctx);
        break;
      case CmpOp::Le: case CmpOp::Ls:
        setpLanes<T, std::less_equal<T>>(u, exec, ctx);
        break;
      case CmpOp::Gt: case CmpOp::Hi:
        setpLanes<T, std::greater<T>>(u, exec, ctx);
        break;
      default: // Ge, Hs
        setpLanes<T, std::greater_equal<T>>(u, exec, ctx);
        break;
    }
}

void
hSetp32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // setpCompare's integer rules: lo/ls/hi/hs compare unsigned whatever
    // the type; the other compares are signed only for s32.
    const bool unsigned_cmp = u.cmp == CmpOp::Lo || u.cmp == CmpOp::Ls ||
                              u.cmp == CmpOp::Hi || u.cmp == CmpOp::Hs;
    if (u.type == Type::S32 && !unsigned_cmp)
        setpTyped<int32_t>(u, exec, ctx);
    else
        setpTyped<uint32_t>(u, exec, ctx);
}

void
hSetpF32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP({
        const float fa = srcRI(u.a, r).f32;
        const float fb = srcRI(u.b, r).f32;
        bool p = false;
        switch (u.cmp) {
          case CmpOp::Eq: p = fa == fb; break;
          case CmpOp::Ne: p = fa != fb; break;
          case CmpOp::Lt: p = fa < fb; break;
          case CmpOp::Le: p = fa <= fb; break;
          case CmpOp::Gt: p = fa > fb; break;
          default: p = fa >= fb; break; // Ge: lowering excludes Lo/Ls/Hi/Hs
        }
        r[size_t(u.dst)].pred = p;
    });
}

void
hSelp32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = r[size_t(u.c.reg)].pred
                                              ? srcRI(u.a, r).u32
                                              : srcRI(u.b, r).u32);
}

void
hSelp64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 = r[size_t(u.c.reg)].pred
                                              ? srcRI(u.a, r).u64
                                              : srcRI(u.b, r).u64);
}

void
hMovSreg32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    // Computed once per warp: uniform registers are read once, and the
    // thread index steps through the block from the warp's first thread
    // instead of dividing per lane.
    const ptx::SReg s = u.a.sreg;
    if (s == ptx::SReg::TidX || s == ptx::SReg::TidY ||
        s == ptx::SReg::TidZ) {
        const Dim3 &bd = ctx.cta->blockDim();
        Dim3 t = ctx.cta->threadIdx3(ctx.tid0);
        uint32_t vals[kWarpSize];
        for (unsigned lane = 0; lane < kWarpSize; lane++) {
            vals[lane] = s == ptx::SReg::TidX   ? t.x
                         : s == ptx::SReg::TidY ? t.y
                                                : t.z;
            if (++t.x == bd.x) {
                t.x = 0;
                if (++t.y == bd.y) {
                    t.y = 0;
                    t.z++;
                }
            }
        }
        MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = vals[lane]);
    } else if (s == ptx::SReg::LaneId) {
        MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = lane);
    } else {
        const uint32_t v = readSpecial(s, *ctx.cta, ctx.tid0);
        MLGS_LANE_LOOP(r[size_t(u.dst)].u32 = v);
    }
}

void
hCvtZext64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].u64 = srcRI(u.a, r).u32);
}

void
hCvtSext64(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].s64 = srcRI(u.a, r).s32);
}

void
hCvtF32S32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].f32 = float(double(srcRI(u.a, r).s32)));
}

void
hCvtF32U32(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    MLGS_LANE_LOOP(r[size_t(u.dst)].f32 = float(double(srcRI(u.a, r).u32)));
}

// ---- warp-wide ld/st with a declared space ----
//
// loadTyped + writeTyped set exactly the low `E` bytes of each destination
// cell (the typed union field), and storeTyped writes the low `E` bytes of
// each value, so a lane's data moves as raw bytes with no per-lane type
// switch. Accesses run in lane order, so overlapping lanes resolve as in the
// interpreter, and single-step mode records one MemAccess per lane in lane
// order: the timing model coalesces lines in that order.

static_assert(std::endian::native == std::endian::little,
              "raw-byte lane copies assume the typed fields are the low bytes");

template <unsigned E>
using ElemSize = std::integral_constant<unsigned, E>;

/** Call f with the element size as an ElemSize (lowering excludes 0). */
template <typename F>
inline void
byElemSize(Type t, F &&f)
{
    switch (ptx::typeSize(t)) {
      case 1: f(ElemSize<1>{}); break;
      case 2: f(ElemSize<2>{}); break;
      case 4: f(ElemSize<4>{}); break;
      default: f(ElemSize<8>{}); break;
    }
}

/** One lane's loaded bytes into its destination register(s). */
template <unsigned E>
inline void
putLoaded(const Uop &u, LaneRegs r, const uint8_t *p)
{
    if (u.vec_width == 1) {
        std::memcpy(static_cast<void *>(&r[size_t(u.dst)]), p, E);
        return;
    }
    for (unsigned i = 0; i < u.dvec_n; i++)
        std::memcpy(static_cast<void *>(&r[size_t(u.dvec[i])]), p + i * E, E);
}

/** One lane's store bytes. */
template <unsigned E>
inline void
getStored(const Uop &u, const ExecCtx &ctx, unsigned lane, LaneRegs r,
          uint8_t *out)
{
    if (u.vec_width == 1) {
        const RegVal v = srcVal(ctx, u.a, lane, r);
        std::memcpy(out, &v, E);
        return;
    }
    for (unsigned i = 0; i < u.svec_n; i++)
        std::memcpy(out + i * E, &r[size_t(u.svec[i])], E);
}

/** Never-written pages read as zero. */
constexpr uint8_t kZeroBytes[32] = {};

/**
 * Global/const lane accesses with the page looked up once per run of lanes
 * on the same page. A page-straddling access gets nullptr and goes through
 * GpuMemory::read/write instead.
 */
class PageCursor
{
  public:
    explicit PageCursor(GpuMemory &mem) : mem_(mem) {}

    /** The `n` bytes at `a`: in the page, or zeros if it was never written. */
    const uint8_t *
    readable(addr_t a, size_t n)
    {
        const size_t off = size_t(a & (GpuMemory::kPageSize - 1));
        if (off + n > GpuMemory::kPageSize)
            return nullptr;
        if (a >> GpuMemory::kPageBits != page_) {
            page_ = a >> GpuMemory::kPageBits;
            rdata_ = mem_.pageData(page_);
        }
        return rdata_ ? rdata_ + off : kZeroBytes;
    }

    /** The `n` bytes at `a` in the page, materialized on first use. */
    uint8_t *
    writable(addr_t a, size_t n)
    {
        const size_t off = size_t(a & (GpuMemory::kPageSize - 1));
        if (off + n > GpuMemory::kPageSize)
            return nullptr;
        if (a >> GpuMemory::kPageBits != page_) {
            page_ = a >> GpuMemory::kPageBits;
            wdata_ = mem_.pageDataForWrite(page_);
        }
        return wdata_ + off;
    }

  private:
    GpuMemory &mem_;
    addr_t page_ = ~addr_t(0); ///< no address shifts to this index
    const uint8_t *rdata_ = nullptr;
    uint8_t *wdata_ = nullptr;
};

/** Book-keep a warp's global/const ld/st in batch mode: one add per warp. */
inline void
countGlobal(const ExecCtx &ctx, warp_mask_t exec, unsigned bytes,
            bool is_store)
{
    if (!ctx.stats)
        return;
    const uint64_t n = uint64_t(bytes) * unsigned(__builtin_popcount(exec));
    if (is_store)
        ctx.stats->global_st_bytes += n;
    else
        ctx.stats->global_ld_bytes += n;
}

/** Book-keep a warp's shared ld/st: one add per warp in either mode. */
inline void
countShared(const ExecCtx &ctx, warp_mask_t exec)
{
    const unsigned n = unsigned(__builtin_popcount(exec));
    if (ctx.res)
        ctx.res->shared_accesses += n;
    else if (ctx.stats)
        ctx.stats->shared_accesses += n;
}

void
hLdGlobal(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    PageCursor pages(*ctx.mem);
    byElemSize(u.type, [&](auto esz) {
        constexpr unsigned E = decltype(esz)::value;
        MLGS_LANE_LOOP({
            const addr_t a = addr(r);
            const uint8_t *p = pages.readable(a, bytes);
            uint8_t tmp[32];
            if (!p) {
                ctx.mem->read(a, tmp, bytes);
                p = tmp;
            }
            putLoaded<E>(u, r, p);
            if (ctx.res)
                ctx.res->accesses.push_back(
                    MemAccess{a, bytes, false, false, u.mem.space});
        });
    });
    countGlobal(ctx, exec, bytes, false);
}

void
hStGlobal(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    PageCursor pages(*ctx.mem);
    byElemSize(u.type, [&](auto esz) {
        constexpr unsigned E = decltype(esz)::value;
        MLGS_LANE_LOOP({
            const addr_t a = addr(r);
            if (uint8_t *p = pages.writable(a, bytes)) {
                getStored<E>(u, ctx, lane, r, p);
            } else {
                uint8_t tmp[32];
                getStored<E>(u, ctx, lane, r, tmp);
                ctx.mem->write(a, tmp, bytes);
            }
            if (ctx.res)
                ctx.res->accesses.push_back(
                    MemAccess{a, bytes, true, false, u.mem.space});
        });
    });
    countGlobal(ctx, exec, bytes, true);
}

void
hLdShared(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    const std::vector<uint8_t> &shared = ctx.cta->shared();
    RaceShadow *rs = ctx.cta->raceShadow();
    byElemSize(u.type, [&](auto esz) {
        constexpr unsigned E = decltype(esz)::value;
        MLGS_LANE_LOOP({
            const addr_t off = addr(r) - kSharedBase;
            MLGS_REQUIRE(off + bytes <= shared.size(),
                         "shared read out of bounds in ",
                         ctx.env->kernel->name, " offset ", off);
            putLoaded<E>(u, r, shared.data() + off);
            if (rs)
                rs->onAccess(size_t(off), bytes, ctx.tid0 + lane, u.pc,
                             u.line, false);
        });
    });
    countShared(ctx, exec);
}

void
hStShared(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    std::vector<uint8_t> &shared = ctx.cta->shared();
    RaceShadow *rs = ctx.cta->raceShadow();
    byElemSize(u.type, [&](auto esz) {
        constexpr unsigned E = decltype(esz)::value;
        MLGS_LANE_LOOP({
            const addr_t off = addr(r) - kSharedBase;
            uint8_t vals[32];
            getStored<E>(u, ctx, lane, r, vals);
            MLGS_REQUIRE(off + bytes <= shared.size(),
                         "shared write out of bounds offset ", off);
            std::memcpy(shared.data() + off, vals, bytes);
            if (rs)
                rs->onAccess(size_t(off), bytes, ctx.tid0 + lane, u.pc,
                             u.line, true);
        });
    });
    countShared(ctx, exec);
}

void
hLdParam(const Uop &u, warp_mask_t exec, ExecCtx &ctx)
{
    if (!exec)
        return;
    const unsigned bytes = u.vec_width * ptx::typeSize(u.type);
    const LaneAddr addr = laneAddr(ctx, u.mem);
    const std::vector<uint8_t> &params = ctx.env->params;
    auto at = [&](addr_t a) {
        const addr_t off = a - kParamBase;
        MLGS_REQUIRE(off + bytes <= params.size(),
                     "param read out of bounds in ", ctx.env->kernel->name);
        return params.data() + off;
    };
    byElemSize(u.type, [&](auto esz) {
        constexpr unsigned E = decltype(esz)::value;
        if (addr.base_reg < 0) {
            // A symbol address is the same for every lane: read once and
            // broadcast.
            const uint8_t *p = at(addr.off);
            MLGS_LANE_LOOP(putLoaded<E>(u, r, p));
        } else {
            MLGS_LANE_LOOP(putLoaded<E>(u, r, at(addr(r))));
        }
    });
}

#undef MLGS_LANE_LOOP

constexpr size_t kNumKinds = size_t(UopKind::Count);

/** Dispatch table, indexed by UopKind; control kinds have no handler. */
const Handler kHandlers[kNumKinds] = {
    nullptr, nullptr, nullptr, nullptr, // Bra, Exit, Bar, Membar
    hMov, hCvt, hSetpG, hSelpG, hBfi, hLd, hSt, hAtom, hTex, hAlu,
    hMov32, hMov64, hMovSreg32,
    hCvtZext64, hCvtSext64, hCvtF32S32, hCvtF32U32,
    hLdGlobal, hStGlobal, hLdShared, hStShared, hLdParam,
    hIAdd32, hISub32, hIMul32, hIMad32,
    hIAnd32, hIOr32, hIXor32, hIShl32, hIShrS32, hIShrU32,
    hIMinS32, hIMinU32, hIMaxS32, hIMaxU32,
    hIAdd64, hMulWideU32, hMulWideS32,
    hFAdd32, hFSub32, hFMul32, hFMad32, hFFma32, hFMin32, hFMax32,
    hSetp32, hSetpF32, hSelp32, hSelp64,
};
static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) == kNumKinds,
              "handler table out of sync with UopKind");

/**
 * The lowered program for this CTA's kernel under the interpreter's bug
 * model, cached on the CtaExec (a CTA is stepped by one thread only, and the
 * timing model shares one Interpreter across CTAs, so the cache must be
 * per-CTA rather than per-Interpreter).
 */
const UopProgram &
programFor(Interpreter &interp, CtaExec &cta)
{
    if (const UopProgram *p = cta.uopProgram())
        return *p;
    const BugModel &b = interp.bugs();
    const UopProgram &p = ptx::compiledProgram(
        cta.kernel(),
        ptx::LowerBugs{b.legacy_rem, b.legacy_bfe, b.split_fma});
    cta.setUopProgram(&p);
    return p;
}

/** The per-warp-instruction FuncStats update, minus access bookkeeping. */
inline void
accumulateUop(FuncStats &s, const Uop &u, warp_mask_t exec)
{
    s.instructions++;
    const unsigned lanes = unsigned(__builtin_popcount(exec));
    s.thread_instructions += lanes;
    switch (u.stat_class) {
      case 1: s.sfu++; break;
      case 2: s.mem++; break;
      default: s.alu++; break;
    }
    s.flops += uint64_t(u.flops_per_lane) * lanes;
}

} // namespace

void
stepWarp(Interpreter &interp, CtaExec &cta, unsigned warp, const LaunchEnv &env,
         WarpStepResult &res)
{
    const UopProgram &prog = programFor(interp, cta);
    SimtStack &st = cta.stack(warp);
    MLGS_ASSERT(!st.empty(), "stepWarp on a finished warp");
    MLGS_ASSERT(!cta.warpAtBarrier(warp), "stepWarp on a warp at a barrier");

    const uint32_t pc = st.pc();
    MLGS_ASSERT(pc < prog.uops.size(), "pc out of range in ",
                env.kernel->name);
    const Uop &u = prog.uops[pc];
    const warp_mask_t mask = st.activeMask();
    ExecCtx ctx = makeCtx(interp, cta, env, prog, warp);
    const warp_mask_t exec = predMask(u, mask, ctx);

    res.ins = &env.kernel->instrs[pc];
    res.pc = pc;
    res.active = exec;
    cta.warpInstrCount(warp)++;
    if (CoverageMap *cov = interp.coverage())
        cov->hit(u.variant_id);

    switch (u.kind) {
      case UopKind::Bra:
        st.branch(exec, u.target_pc, pc + 1, u.reconv_pc);
        return;
      case UopKind::Exit:
        st.exitLanes(exec);
        if (exec != mask && !st.empty())
            st.advance();
        res.exited = st.empty();
        return;
      case UopKind::Bar:
        MLGS_REQUIRE(st.entries().size() == 1,
                     "bar.sync inside divergent control flow in ",
                     env.kernel->name);
        cta.setWarpAtBarrier(warp);
        st.advance();
        res.barrier = true;
        return;
      case UopKind::Membar:
        st.advance();
        return;
      default:
        break;
    }

    ctx.res = &res;
    kHandlers[size_t(u.kind)](u, exec, ctx);
    st.advance();
}

void
runWarp(Interpreter &interp, CtaExec &cta, unsigned warp, const LaunchEnv &env,
        uint64_t max_instr_per_warp, FuncStats *stats)
{
    const UopProgram &prog = programFor(interp, cta);
    SimtStack &st = cta.stack(warp);
    ExecCtx ctx = makeCtx(interp, cta, env, prog, warp);
    ctx.stats = stats;
    CoverageMap *cov = interp.coverage();
    uint64_t &icount = cta.warpInstrCount(warp);
    const Uop *const uops = prog.uops.data();
    const size_t nuops = prog.uops.size();

    while (!st.empty() && !cta.warpAtBarrier(warp) &&
           icount < max_instr_per_warp) {
        uint32_t pc = st.pc();
        const warp_mask_t mask = st.activeMask();
        // Straight-line span: within a basic block the stack is untouched
        // and the active mask is invariant, so the top-of-stack pc is only
        // synced at block ends, control ops, and the instruction limit.
        for (;;) {
            MLGS_ASSERT(pc < nuops, "pc out of range in ", env.kernel->name);
            const Uop &u = uops[pc];
            const warp_mask_t exec = predMask(u, mask, ctx);
            icount++;
            if (cov)
                cov->hit(u.variant_id);
            if (stats)
                accumulateUop(*stats, u, exec);

            if (u.kind >= UopKind::Mov) {
                kHandlers[size_t(u.kind)](u, exec, ctx);
                if (u.ends_block) {
                    st.entries().back().pc = pc;
                    st.advance();
                    break;
                }
                pc++;
                if (icount >= max_instr_per_warp) {
                    st.entries().back().pc = pc;
                    break;
                }
                continue;
            }

            // Control op: sync the deferred pc before any stack mutation.
            st.entries().back().pc = pc;
            if (u.kind == UopKind::Bra) {
                st.branch(exec, u.target_pc, pc + 1, u.reconv_pc);
            } else if (u.kind == UopKind::Exit) {
                st.exitLanes(exec);
                if (exec != mask && !st.empty())
                    st.advance();
            } else if (u.kind == UopKind::Bar) {
                MLGS_REQUIRE(st.entries().size() == 1,
                             "bar.sync inside divergent control flow in ",
                             env.kernel->name);
                cta.setWarpAtBarrier(warp);
                st.advance();
            } else { // Membar
                st.advance();
            }
            break;
        }
    }
}

} // namespace mlgs::func::compiled
