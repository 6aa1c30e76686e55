/**
 * @file
 * Lowering pass from parsed PTX instructions to the flat micro-op IR
 * (ptx/uop.h). Runs once per kernel per module load, at analyzeKernel time,
 * after reconvergence PCs and variant ids are assigned; bug-model flags are
 * baked into the affected uops here (one cached program variant per flag
 * combination), so injection costs nothing on the clean path.
 */
#include <algorithm>

#include "common/fp16.h"
#include "ptx/cfg.h"
#include "ptx/uop.h"

namespace mlgs::ptx
{

namespace
{

/** Intern a runtime-resolved symbol name; programs have only a handful. */
int32_t
internSym(UopProgram &prog, const std::string &name)
{
    for (size_t i = 0; i < prog.syms.size(); i++)
        if (prog.syms[i] == name)
            return int32_t(i);
    prog.syms.push_back(name);
    return int32_t(prog.syms.size()) - 1;
}

/**
 * Lower a scalar source operand. Immediates are converted to their typed bit
 * pattern (FImm keyed on the instruction type); kernel-static symbols resolve
 * to (space, offset) in shared -> local -> param order, before any module
 * symbol.
 */
UopSrc
lowerSrc(const KernelDef &k, const Instr &ins, const Operand &op,
         UopProgram &prog)
{
    UopSrc s;
    switch (op.kind) {
      case Operand::Kind::Reg:
        s.kind = UopSrc::K::Reg;
        s.reg = op.reg;
        break;
      case Operand::Kind::Imm:
        s.kind = UopSrc::K::Imm;
        s.imm.u64 = uint64_t(op.imm);
        break;
      case Operand::Kind::FImm:
        s.kind = UopSrc::K::Imm;
        if (ins.type == Type::F64)
            s.imm.f64 = op.fimm;
        else if (ins.type == Type::F16)
            s.imm.f16bits = fp32ToFp16(float(op.fimm));
        else
            s.imm.f32 = float(op.fimm);
        break;
      case Operand::Kind::Special:
        s.kind = UopSrc::K::Sreg;
        s.sreg = op.sreg;
        break;
      case Operand::Kind::Sym:
        if (const auto *sv = k.findShared(op.sym)) {
            s.kind = UopSrc::K::SymStatic;
            s.space = Space::Shared;
            s.off = sv->offset;
        } else if (const auto *lv = k.findLocal(op.sym)) {
            s.kind = UopSrc::K::SymStatic;
            s.space = Space::Local;
            s.off = lv->offset;
        } else if (const auto *p = k.findParam(op.sym)) {
            s.kind = UopSrc::K::SymStatic;
            s.space = Space::Param;
            s.off = p->offset;
        } else {
            s.kind = UopSrc::K::SymRuntime;
            s.sym = internSym(prog, op.sym);
        }
        break;
      default:
        panic("lowerSrc: unsupported operand kind for ", ins.text);
    }
    return s;
}

/** Lower a memory address operand ([reg+imm] / [sym+imm]). */
UopMem
lowerMem(const KernelDef &k, const Instr &ins, const Operand &op,
         UopProgram &prog)
{
    UopMem m;
    m.imm = op.imm;
    m.space = ins.space;
    if (op.reg >= 0) {
        m.base_reg = op.reg;
        return m;
    }
    if (const auto *sv = k.findShared(op.sym)) {
        m.sym_space = Space::Shared;
        m.sym_off = sv->offset;
    } else if (const auto *lv = k.findLocal(op.sym)) {
        m.sym_space = Space::Local;
        m.sym_off = lv->offset;
    } else if (const auto *p = k.findParam(op.sym)) {
        m.sym_space = Space::Param;
        m.sym_off = p->offset;
    } else {
        m.sym = internSym(prog, op.sym);
    }
    return m;
}

/** FuncStats port class: 0 = alu, 1 = sfu, 2 = mem (FuncStats::accumulate). */
uint8_t
statClass(const Instr &ins)
{
    switch (ins.op) {
      case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
      case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
        return 1;
      case Op::Div:
        return isFloat(ins.type) ? 1 : 0;
      case Op::Ld: case Op::St: case Op::Atom: case Op::Red: case Op::Tex:
        return 2;
      default:
        return 0;
    }
}

/** Per-lane flop count (FuncStats::accumulate's flops table). */
uint8_t
flopsPerLane(const Instr &ins)
{
    if (!isFloat(ins.type))
        return 0;
    switch (ins.op) {
      case Op::Fma: case Op::Mad:
        return 2;
      case Op::Add: case Op::Sub: case Op::Mul: case Op::Div:
      case Op::Min: case Op::Max: case Op::Abs: case Op::Neg:
      case Op::Sqrt: case Op::Rsqrt: case Op::Rcp: case Op::Sin:
      case Op::Cos: case Op::Ex2: case Op::Lg2:
        return 1;
      default:
        return 0;
    }
}

/** Destination write type: mul/mad.wide widen, popc/clz produce u32. */
Type
aluDstType(const Instr &ins)
{
    Type dt = ins.type;
    if ((ins.op == Op::Mul || ins.op == Op::Mad) &&
        ins.mul_mode == MulMode::Wide) {
        switch (ins.type) {
          case Type::U32: dt = Type::U64; break;
          case Type::S32: dt = Type::S64; break;
          case Type::U16: dt = Type::U32; break;
          case Type::S16: dt = Type::S32; break;
          default: break;
        }
    }
    if (ins.op == Op::Popc || ins.op == Op::Clz)
        dt = Type::U32;
    return dt;
}

bool
regOrImm(const UopSrc &s)
{
    return s.kind == UopSrc::K::Reg || s.kind == UopSrc::K::Imm;
}

bool
is32(Type t)
{
    return t == Type::U32 || t == Type::S32 || t == Type::B32;
}

bool
is64Int(Type t)
{
    return t == Type::U64 || t == Type::S64 || t == Type::B64;
}

/**
 * Pick a specialized kind for an integer/float cvt whose execCvt +
 * writeTyped result is a plain lane expression. An integer conversion into
 * a 32-bit (64-bit) destination from a source at least as wide keeps the
 * source's low bits, which is exactly Mov32 (Mov64); widening 32 -> 64
 * extends by the source's signedness; a 32-bit integer to f32 rounds the
 * exact double once. The rounding modifier only affects float -> int.
 */
UopKind
specializeCvt(Type dt, Type st)
{
    const bool st_int = is32(st) || is64Int(st);
    if (is32(dt) && st_int)
        return UopKind::Mov32;
    if (is64Int(dt) && is64Int(st))
        return UopKind::Mov64;
    if (is64Int(dt) && is32(st))
        return st == Type::S32 ? UopKind::CvtSext64 : UopKind::CvtZext64;
    if (dt == Type::F32 && is32(st))
        return st == Type::S32 ? UopKind::CvtF32S32 : UopKind::CvtF32U32;
    return UopKind::Cvt;
}

/**
 * Warp-wide ld/st kind for a declared global/const, shared or param space
 * (param is load-only). Generic and local accesses, and types the typed
 * load/store paths reject, keep the generic kind.
 */
UopKind
specializeLdSt(const Instr &ins, bool is_load)
{
    if (ptx::typeSize(ins.type) == 0 || ins.type == Type::Pred)
        return is_load ? UopKind::Ld : UopKind::St;
    switch (ins.space) {
      case Space::Global: case Space::Const:
        return is_load ? UopKind::LdGlobal : UopKind::StGlobal;
      case Space::Shared:
        return is_load ? UopKind::LdShared : UopKind::StShared;
      case Space::Param:
        if (is_load)
            return UopKind::LdParam;
        break;
      default:
        break;
    }
    return is_load ? UopKind::Ld : UopKind::St;
}

/**
 * Pick a specialized SIMD kind for an ALU uop when its semantics collapse to
 * a plain lane expression: register/immediate operands only and a type/mode
 * combination whose makeInt/makeF + writeTyped round trip is a simple field
 * assignment. Anything else keeps the generic kind (same shared semantics,
 * still decode-free).
 */
UopKind
specializeAlu(const Instr &ins, const Uop &u)
{
    if (u.dst < 0 || !regOrImm(u.a))
        return UopKind::Alu;
    const Type t = ins.type;
    const bool ab = regOrImm(u.b);
    const bool abc = ab && regOrImm(u.c);
    switch (ins.op) {
      case Op::Add:
        if (!ab)
            break;
        if (is32(t))
            return UopKind::IAdd32;
        if (is64Int(t))
            return UopKind::IAdd64;
        if (t == Type::F32)
            return UopKind::FAdd32;
        break;
      case Op::Sub:
        if (!ab)
            break;
        if (is32(t))
            return UopKind::ISub32;
        if (t == Type::F32)
            return UopKind::FSub32;
        break;
      case Op::Mul:
        if (!ab)
            break;
        if (is32(t) && (ins.mul_mode == MulMode::Default ||
                        ins.mul_mode == MulMode::Lo))
            return UopKind::IMul32;
        if (t == Type::U32 && ins.mul_mode == MulMode::Wide)
            return UopKind::MulWideU32;
        if (t == Type::S32 && ins.mul_mode == MulMode::Wide)
            return UopKind::MulWideS32;
        if (t == Type::F32 && ins.mul_mode == MulMode::Default)
            return UopKind::FMul32;
        break;
      case Op::Mad:
        if (!abc)
            break;
        if (is32(t) && (ins.mul_mode == MulMode::Default ||
                        ins.mul_mode == MulMode::Lo))
            return UopKind::IMad32;
        if (t == Type::F32 && ins.mul_mode == MulMode::Default)
            return UopKind::FMad32;
        break;
      case Op::Fma:
        if (abc && t == Type::F32)
            return UopKind::FFma32;
        break;
      case Op::And:
        if (ab && is32(t))
            return UopKind::IAnd32;
        break;
      case Op::Or:
        if (ab && is32(t))
            return UopKind::IOr32;
        break;
      case Op::Xor:
        if (ab && is32(t))
            return UopKind::IXor32;
        break;
      case Op::Shl:
        if (ab && is32(t))
            return UopKind::IShl32;
        break;
      case Op::Shr:
        if (!ab || !is32(t))
            break;
        return t == Type::S32 ? UopKind::IShrS32 : UopKind::IShrU32;
      case Op::Min:
        if (!ab)
            break;
        if (t == Type::S32)
            return UopKind::IMinS32;
        if (t == Type::U32 || t == Type::B32)
            return UopKind::IMinU32;
        if (t == Type::F32)
            return UopKind::FMin32;
        break;
      case Op::Max:
        if (!ab)
            break;
        if (t == Type::S32)
            return UopKind::IMaxS32;
        if (t == Type::U32 || t == Type::B32)
            return UopKind::IMaxU32;
        if (t == Type::F32)
            return UopKind::FMax32;
        break;
      default:
        break;
    }
    return UopKind::Alu;
}

/** Lower one instruction at `pc` into a micro-op. */
Uop
lowerInstr(const KernelDef &k, const Instr &ins, uint32_t pc,
           const LowerBugs &bugs, UopProgram &prog)
{
    Uop u;
    u.op = ins.op;
    u.type = ins.type;
    u.stype = ins.stype;
    u.dst_type = ins.type;
    u.cmp = ins.cmp;
    u.mul_mode = ins.mul_mode;
    u.atom_op = ins.atom_op;
    u.cvt_round = ins.cvt_round;
    u.vec_width = uint8_t(ins.vec_width);
    u.tex_dim = uint8_t(ins.tex_dim);
    u.stat_class = statClass(ins);
    u.flops_per_lane = flopsPerLane(ins);
    u.pred = ins.pred;
    u.pred_neg = ins.pred_neg;
    u.target_pc = ins.target_pc;
    u.reconv_pc = ins.reconv_pc;
    u.variant_id = ins.variant_id;
    u.pc = pc;
    u.line = ins.line;

    auto dstReg = [&]() {
        MLGS_REQUIRE(!ins.ops.empty() &&
                         ins.ops[0].kind == Operand::Kind::Reg,
                     "destination must be a register: ", ins.text);
        return ins.ops[0].reg;
    };

    switch (ins.op) {
      case Op::Bra:
        u.kind = UopKind::Bra;
        return u;
      case Op::Ret: case Op::Exit:
        u.kind = UopKind::Exit;
        return u;
      case Op::Bar:
        u.kind = UopKind::Bar;
        return u;
      case Op::Membar:
        u.kind = UopKind::Membar;
        return u;
      case Op::Mov: case Op::Cvta: {
        u.kind = UopKind::Mov;
        u.dst = dstReg();
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        if (regOrImm(u.a)) {
            if (ptx::typeSize(ins.type) == 4 && ins.type != Type::Pred)
                u.kind = UopKind::Mov32;
            else if (ptx::typeSize(ins.type) == 8)
                u.kind = UopKind::Mov64;
        } else if (u.a.kind == UopSrc::K::Sreg &&
                   ptx::typeSize(ins.type) == 4) {
            u.kind = UopKind::MovSreg32;
        }
        return u;
      }
      case Op::Cvt:
        u.kind = UopKind::Cvt;
        u.dst = dstReg();
        u.stype = ins.stype == Type::None ? ins.type : ins.stype;
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        if (regOrImm(u.a))
            u.kind = specializeCvt(ins.type, u.stype);
        return u;
      case Op::Setp:
        u.kind = UopKind::SetpG;
        u.dst = dstReg();
        u.dst_type = Type::Pred;
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        u.b = lowerSrc(k, ins, ins.ops[2], prog);
        if (regOrImm(u.a) && regOrImm(u.b)) {
            if (is32(ins.type))
                u.kind = UopKind::Setp32;
            else if (ins.type == Type::F32 && ins.cmp != CmpOp::Lo &&
                     ins.cmp != CmpOp::Ls && ins.cmp != CmpOp::Hi &&
                     ins.cmp != CmpOp::Hs)
                u.kind = UopKind::SetpF32;
        }
        return u;
      case Op::Selp:
        u.kind = UopKind::SelpG;
        u.dst = dstReg();
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        u.b = lowerSrc(k, ins, ins.ops[2], prog);
        u.c = lowerSrc(k, ins, ins.ops[3], prog);
        if (regOrImm(u.a) && regOrImm(u.b) && u.c.kind == UopSrc::K::Reg) {
            if (ptx::typeSize(ins.type) == 4)
                u.kind = UopKind::Selp32;
            else if (ptx::typeSize(ins.type) == 8)
                u.kind = UopKind::Selp64;
        }
        return u;
      case Op::Bfi:
        u.kind = UopKind::Bfi;
        u.dst = dstReg();
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        u.b = lowerSrc(k, ins, ins.ops[2], prog);
        u.c = lowerSrc(k, ins, ins.ops[3], prog);
        u.d = lowerSrc(k, ins, ins.ops[4], prog);
        return u;
      case Op::Ld: {
        u.kind = specializeLdSt(ins, true);
        u.mem = lowerMem(k, ins, ins.ops[1], prog);
        if (ins.vec_width == 1) {
            u.dst = dstReg();
        } else {
            const auto &vec = ins.ops[0].vec;
            MLGS_ASSERT(vec.size() == ins.vec_width, "vector width mismatch");
            u.dvec_n = uint8_t(vec.size());
            for (size_t i = 0; i < vec.size(); i++)
                u.dvec[i] = vec[i];
        }
        return u;
      }
      case Op::St: {
        u.kind = specializeLdSt(ins, false);
        u.mem = lowerMem(k, ins, ins.ops[0], prog);
        if (ins.vec_width == 1) {
            u.a = lowerSrc(k, ins, ins.ops[1], prog);
        } else {
            const auto &vec = ins.ops[1].vec;
            MLGS_ASSERT(vec.size() == ins.vec_width, "vector width mismatch");
            u.svec_n = uint8_t(vec.size());
            for (size_t i = 0; i < vec.size(); i++)
                u.svec[i] = vec[i];
        }
        return u;
      }
      case Op::Atom: case Op::Red: {
        u.kind = UopKind::Atom;
        const bool has_dst = ins.op == Op::Atom;
        const size_t addr_idx = has_dst ? 1 : 0;
        if (has_dst)
            u.dst = dstReg();
        u.mem = lowerMem(k, ins, ins.ops[addr_idx], prog);
        u.a = lowerSrc(k, ins, ins.ops[addr_idx + 1], prog);
        if (ins.atom_op == AtomOp::Cas)
            u.b = lowerSrc(k, ins, ins.ops[addr_idx + 2], prog);
        return u;
      }
      case Op::Tex: {
        u.kind = UopKind::Tex;
        u.dst_type = Type::F32;
        const Operand &taddr = ins.ops[1];
        MLGS_ASSERT(!taddr.vec.empty(), "tex without coordinates");
        u.mem.sym = internSym(prog, taddr.sym);
        u.svec_n = uint8_t(std::min<size_t>(taddr.vec.size(), 4));
        for (size_t i = 0; i < u.svec_n; i++)
            u.svec[i] = taddr.vec[i];
        if (ins.ops[0].kind == Operand::Kind::Vec) {
            const auto &vec = ins.ops[0].vec;
            u.dvec_n = uint8_t(std::min<size_t>(vec.size(), 4));
            for (size_t i = 0; i < u.dvec_n; i++)
                u.dvec[i] = vec[i];
        } else {
            u.dst = dstReg();
        }
        return u;
      }
      default: {
        // Plain ALU instruction: d, a [, b [, c]]
        const size_t n = ins.ops.size();
        MLGS_ASSERT(n >= 2, "ALU instruction needs operands: ", ins.text);
        u.kind = UopKind::Alu;
        u.dst = dstReg();
        u.dst_type = aluDstType(ins);
        u.a = lowerSrc(k, ins, ins.ops[1], prog);
        if (n > 2)
            u.b = lowerSrc(k, ins, ins.ops[2], prog);
        if (n > 3)
            u.c = lowerSrc(k, ins, ins.ops[3], prog);
        if (ins.op == Op::Rem && bugs.legacy_rem)
            u.bug_flags |= UopBug::kLegacyRem;
        if (ins.op == Op::Bfe && bugs.legacy_bfe)
            u.bug_flags |= UopBug::kLegacyBfe;
        if (ins.op == Op::Fma && bugs.split_fma)
            u.bug_flags |= UopBug::kSplitFma;
        u.kind = specializeAlu(ins, u);
        return u;
      }
    }
}

/** Lower a whole kernel under the given bug flags. */
std::shared_ptr<const UopProgram>
lowerKernel(const KernelDef &k, const LowerBugs &bugs)
{
    auto prog = std::make_shared<UopProgram>();
    prog->bugs = bugs;
    prog->uops.reserve(k.instrs.size());
    for (uint32_t pc = 0; pc < k.instrs.size(); pc++)
        prog->uops.push_back(lowerInstr(k, k.instrs[pc], pc, bugs, *prog));

    // Mark basic-block boundaries so the dispatch loop can run straight-line
    // spans without touching the SIMT stack (the active mask is invariant
    // within a block).
    const Cfg cfg(k);
    for (const CfgBlock &b : cfg.blocks())
        prog->uops[b.last].ends_block = true;
    return prog;
}

} // namespace

void
initUopCache(KernelDef &kernel)
{
    auto cache = std::make_shared<UopCache>();
    cache->variants.push_back(lowerKernel(kernel, LowerBugs{}));
    kernel.uop_cache = std::move(cache);
}

const UopProgram &
compiledProgram(const KernelDef &kernel, const LowerBugs &bugs)
{
    MLGS_REQUIRE(kernel.analyzed && kernel.uop_cache,
                 "compiledProgram before analyzeKernel on ", kernel.name);
    UopCache &cache = *kernel.uop_cache;
    std::lock_guard<std::mutex> lk(cache.mu);
    for (const auto &p : cache.variants)
        if (p->bugs == bugs)
            return *p;
    cache.variants.push_back(lowerKernel(kernel, bugs));
    return *cache.variants.back();
}

UopMix
uopMix(const KernelDef &kernel)
{
    const UopProgram &prog = compiledProgram(kernel, LowerBugs{});
    UopMix mix;
    mix.uops = uint32_t(prog.uops.size());
    for (const Uop &u : prog.uops) {
        switch (u.stat_class) {
          case 1: mix.sfu++; break;
          case 2:
            mix.mem++;
            if (u.mem.space == Space::Shared)
                mix.shared++;
            break;
          default: mix.alu++; break;
        }
        if (u.kind == UopKind::Bra) {
            mix.branches++;
            if (u.pred >= 0)
                mix.divergent++;
        }
        if (u.kind == UopKind::Bar)
            mix.barriers++;
        if (u.kind == UopKind::Atom || u.op == Op::Atom || u.op == Op::Red)
            mix.atomics++;
        mix.flops += u.flops_per_lane;
    }
    return mix;
}

} // namespace mlgs::ptx
