#include "func/interpreter.h"

#include <cstdlib>
#include <cstring>

#include "func/compiled/exec.h"
#include "func/exec_semantics.h"
#include "func/site_profiler.h"

namespace mlgs::func
{

using ptx::AtomOp;
using ptx::Instr;
using ptx::MulMode;
using ptx::Op;
using ptx::Operand;
using ptx::RegVal;
using ptx::Space;
using ptx::Type;

ExecMode
resolveExecMode(ExecMode requested)
{
    if (requested != ExecMode::Auto)
        return requested;
    if (const char *env = std::getenv("MLGS_EXEC")) {
        if (std::strcmp(env, "interp") == 0)
            return ExecMode::Interp;
        if (std::strcmp(env, "compiled") == 0)
            return ExecMode::Compiled;
        fatal("MLGS_EXEC must be 'interp' or 'compiled', got '", env, "'");
    }
    return ExecMode::Compiled;
}

const char *
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Interp: return "interp";
      case ExecMode::Compiled: return "compiled";
      default: return "auto";
    }
}

namespace
{

/** Operand read against a thread's register file and the launch env. */
RegVal
readOperand(const Instr &ins, const Operand &op, const CtaExec &cta,
            unsigned tid, const LaunchEnv &env)
{
    RegVal v;
    switch (op.kind) {
      case Operand::Kind::Reg:
        return cta.reg(tid, size_t(op.reg));
      case Operand::Kind::Imm:
        v.u64 = uint64_t(op.imm);
        return v;
      case Operand::Kind::FImm:
        if (ins.type == Type::F64)
            v.f64 = op.fimm;
        else if (ins.type == Type::F16)
            v.f16bits = fp32ToFp16(float(op.fimm));
        else
            v.f32 = float(op.fimm);
        return v;
      case Operand::Kind::Special:
        v.u64 = readSpecial(op.sreg, cta, tid);
        return v;
      case Operand::Kind::Sym:
        v.u64 = symbolAddr(op.sym, *env.kernel, env.symbols);
        return v;
      default:
        panic("readOperand: unsupported operand kind for ", ins.text);
    }
}

/** Effective address of a memory operand with generic-space resolution. */
Ea
resolveAddr(const Instr &ins, const Operand &op, const CtaExec &cta,
            unsigned tid, const LaunchEnv &env)
{
    addr_t ea;
    if (op.reg >= 0)
        ea = cta.reg(tid, size_t(op.reg)).u64 + addr_t(op.imm);
    else
        ea = symbolAddr(op.sym, *env.kernel, env.symbols) + addr_t(op.imm);
    return Ea{resolveSpace(ins.space, ea), ea};
}

/** Index of an in-flight instruction within its kernel (race reporting). */
uint32_t
instrPc(const Instr &ins, const LaunchEnv &env)
{
    return uint32_t(&ins - env.kernel->instrs.data());
}

} // namespace

void
Interpreter::execLane(const Instr &ins, CtaExec &cta, unsigned tid, unsigned lane,
                      const LaunchEnv &env, WarpStepResult &res)
{
    (void)lane;
    auto reg = [&](int r) -> RegVal & { return cta.reg(tid, size_t(r)); };

    auto src = [&](size_t i) {
        return readOperand(ins, ins.ops[i], cta, tid, env);
    };
    auto writeDst = [&](Type t, const RegVal &v) {
        MLGS_ASSERT(ins.ops[0].kind == Operand::Kind::Reg,
                    "destination must be a register: ", ins.text);
        writeTyped(reg(ins.ops[0].reg), t, v);
    };

    switch (ins.op) {
      case Op::Mov: {
        if (ins.type == Type::Pred) {
            RegVal v = src(1);
            writeDst(Type::Pred, v);
            return;
        }
        writeDst(ins.type, src(1));
        return;
      }
      case Op::Cvta:
        writeDst(ins.type, src(1));
        return;
      case Op::Cvt: {
        const Type dt = ins.type;
        const Type st = ins.stype == Type::None ? dt : ins.stype;
        writeDst(dt, execCvt(dt, st, ins.cvt_round, src(1)));
        return;
      }
      case Op::Setp: {
        RegVal v;
        v.pred = setpCompare(ins.type, ins.cmp, src(1), src(2), ins.text);
        writeDst(Type::Pred, v);
        return;
      }
      case Op::Selp: {
        const RegVal a = src(1), b = src(2), p = src(3);
        writeDst(ins.type, p.pred ? a : b);
        return;
      }
      case Op::Bfi: {
        // bfi.b32/b64 d, a, b, pos, len : insert a into b.
        const uint64_t ia = asU64(ins.type, src(1));
        const uint64_t ib = asU64(ins.type, src(2));
        const uint32_t pos = src(3).u32 & 0xff;
        const uint32_t len = src(4).u32 & 0xff;
        writeDst(ins.type,
                 makeInt(ins.type, bfiInsert(ins.type, ia, ib, pos, len)));
        return;
      }
      case Op::Ld: {
        const Ea ea = resolveAddr(ins, ins.ops[1], cta, tid, env);
        RegVal vals[4];
        loadTyped(*mem_, ea, ins.type, ins.vec_width, vals, cta, tid, env);
        if (ins.vec_width == 1) {
            writeDst(ins.type, vals[0]);
        } else {
            const auto &vec = ins.ops[0].vec;
            MLGS_ASSERT(vec.size() == ins.vec_width, "vector width mismatch");
            for (unsigned i = 0; i < ins.vec_width; i++)
                writeTyped(reg(vec[i]), ins.type, vals[i]);
        }
        if (ea.space == Space::Global || ea.space == Space::Const ||
            ea.space == Space::Local) {
            res.accesses.push_back(MemAccess{
                ea.addr, ins.vec_width * ptx::typeSize(ins.type), false, false,
                ea.space});
        } else if (ea.space == Space::Shared) {
            res.shared_accesses++;
            if (profiler_)
                profiler_->noteSharedLane(
                    ea.addr - kSharedBase,
                    ins.vec_width * ptx::typeSize(ins.type));
            if (RaceShadow *rs = cta.raceShadow())
                rs->onAccess(size_t(ea.addr - kSharedBase),
                             size_t(ins.vec_width) * ptx::typeSize(ins.type),
                             tid, instrPc(ins, env), ins.line, false);
        }
        return;
      }
      case Op::St: {
        const Ea ea = resolveAddr(ins, ins.ops[0], cta, tid, env);
        RegVal vals[4];
        if (ins.vec_width == 1) {
            vals[0] = readOperand(ins, ins.ops[1], cta, tid, env);
        } else {
            const auto &vec = ins.ops[1].vec;
            MLGS_ASSERT(vec.size() == ins.vec_width, "vector width mismatch");
            for (unsigned i = 0; i < ins.vec_width; i++)
                vals[i] = reg(vec[i]);
        }
        storeTyped(*mem_, ea, ins.type, ins.vec_width, vals, cta, tid);
        if (ea.space == Space::Global || ea.space == Space::Const ||
            ea.space == Space::Local) {
            res.accesses.push_back(MemAccess{
                ea.addr, ins.vec_width * ptx::typeSize(ins.type), true, false,
                ea.space});
        } else if (ea.space == Space::Shared) {
            res.shared_accesses++;
            if (profiler_)
                profiler_->noteSharedLane(
                    ea.addr - kSharedBase,
                    ins.vec_width * ptx::typeSize(ins.type));
            if (RaceShadow *rs = cta.raceShadow())
                rs->onAccess(size_t(ea.addr - kSharedBase),
                             size_t(ins.vec_width) * ptx::typeSize(ins.type),
                             tid, instrPc(ins, env), ins.line, true);
        }
        return;
      }
      case Op::Atom:
      case Op::Red: {
        const bool has_dst = ins.op == Op::Atom;
        const size_t addr_idx = has_dst ? 1 : 0;
        const Ea ea = resolveAddr(ins, ins.ops[addr_idx], cta, tid, env);
        RegVal old;
        loadTyped(*mem_, ea, ins.type, 1, &old, cta, tid, env);
        const RegVal b = readOperand(ins, ins.ops[addr_idx + 1], cta, tid, env);
        RegVal swap;
        if (ins.atom_op == AtomOp::Cas)
            swap = readOperand(ins, ins.ops[addr_idx + 2], cta, tid, env);
        const RegVal next = atomNext(ins.atom_op, ins.type, old, b, swap);
        storeTyped(*mem_, ea, ins.type, 1, &next, cta, tid);
        if (has_dst)
            writeDst(ins.type, old);
        if (ea.space == Space::Shared) {
            res.shared_accesses++;
            if (profiler_)
                profiler_->noteSharedLane(ea.addr - kSharedBase,
                                          ptx::typeSize(ins.type));
        } else {
            res.accesses.push_back(MemAccess{ea.addr, ptx::typeSize(ins.type),
                                             true, true, ea.space});
        }
        return;
      }
      case Op::Tex: {
        MLGS_REQUIRE(env.textures, "texture instruction without texture table");
        const Operand &taddr = ins.ops[1];
        const TexBinding *bind = env.textures->lookupTexture(taddr.sym);
        MLGS_REQUIRE(bind, "texture '", taddr.sym,
                     "' is not bound to an array (lost binding)");
        // Coordinates.
        const Type ct = ins.stype;
        MLGS_ASSERT(!taddr.vec.empty(), "tex without coordinates");
        const int64_t xi = texCoordToInt(ct, reg(taddr.vec[0]));
        const int64_t yi = (ins.tex_dim >= 2 && taddr.vec.size() >= 2)
                               ? texCoordToInt(ct, reg(taddr.vec[1]))
                               : 0;
        const TexFetch f = texFetch(*mem_, *bind, ins.tex_dim, xi, yi);
        if (f.hit)
            res.accesses.push_back(
                MemAccess{f.base, f.bytes, false, false, Space::Tex});
        // Destination: vector (v4) or scalar register.
        if (ins.ops[0].kind == Operand::Kind::Vec) {
            const auto &vec = ins.ops[0].vec;
            for (size_t i = 0; i < vec.size(); i++) {
                RegVal v;
                v.f32 = f.texel[i];
                writeTyped(reg(vec[i]), Type::F32, v);
            }
        } else {
            RegVal v;
            v.f32 = f.texel[0];
            writeDst(Type::F32, v);
        }
        return;
      }
      default: {
        // Plain ALU instruction: d, a [, b [, c]]
        const size_t n = ins.ops.size();
        MLGS_ASSERT(n >= 2, "ALU instruction needs operands: ", ins.text);
        const RegVal a = src(1);
        const RegVal b = n > 2 ? src(2) : RegVal{};
        const RegVal c = n > 3 ? src(3) : RegVal{};
        RegVal out = execAluOp(bugs_, ins.op, ins.type, ins.mul_mode, a, b, c);
        // mul.wide / mad.wide write a double-width destination.
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
        writeDst(dt, out);
        return;
      }
    }
}

void
Interpreter::setSiteProfiler(SiteProfiler *prof)
{
    MLGS_REQUIRE(!prof || mode_ == ExecMode::Interp,
                 "SiteProfiler requires the interp exec backend (per-lane "
                 "shared addresses are not surfaced by the compiled path)");
    profiler_ = prof;
}

void
Interpreter::stepWarp(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                      WarpStepResult &res)
{
    res.clear();
    if (replay_streams_) {
        replayStep(cta, warp, env, res);
        return;
    }
    if (profiler_)
        profiler_->beginStep();
    if (mode_ == ExecMode::Compiled)
        compiled::stepWarp(*this, cta, warp, env, res);
    else
        stepWarpExec(cta, warp, env, res);
    if (profiler_)
        profiler_->finishStep(env.kernel->name, cta.blockDim(), res);
    if (record_streams_)
        record_streams_->append(env.launch_seq, cta, warp, res);
}

void
Interpreter::replayStep(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                        WarpStepResult &res)
{
    const WarpStream *wsp = cta.replayStream(warp);
    if (!wsp) {
        wsp = &replay_streams_->stream(env.launch_seq, cta, warp);
        cta.setReplayStream(warp, wsp);
    }
    const WarpStream &ws = *wsp;
    const uint64_t idx = cta.warpInstrCount(warp);
    MLGS_REQUIRE(idx < ws.steps.size(),
                 "warp stream replay: stream exhausted at step ", idx,
                 " in ", env.kernel->name,
                 " (recorded run executed fewer instructions?)");
    const WarpStreamStep &s = ws.steps[idx];
    SimtStack &st = cta.stack(warp);
    MLGS_ASSERT(st.pc() == s.pc, "warp stream replay diverged: at pc ",
                st.pc(), ", recorded pc ", s.pc, " in ", env.kernel->name);

    res.ins = &env.kernel->instrs[s.pc];
    res.pc = s.pc;
    res.active = s.active;
    res.shared_accesses = s.shared_accesses;
    res.barrier = s.barrier;
    res.exited = s.exited;
    res.replayed = std::span<const MemAccess>(ws.accesses)
                       .subspan(s.first_access, s.num_accesses);

    cta.warpInstrCount(warp)++;
    auto &entries = st.entries();
    if (s.exited) {
        entries.clear();
    } else {
        // The scheduler inspects the warp's next pc before issue (scoreboard
        // checks); collapse the stack to one entry holding the recorded
        // successor pc — divergence was already resolved at record time.
        MLGS_REQUIRE(idx + 1 < ws.steps.size(),
                     "warp stream replay: truncated stream in ",
                     env.kernel->name);
        const SimtStack::Entry next{ws.steps[idx + 1].pc, ptx::kReconvExit,
                                    s.active ? s.active : warp_mask_t(1)};
        if (entries.size() == 1)
            entries.front() = next; // every replayed step after the first
        else
            entries.assign(1, next);
        if (s.barrier)
            cta.setWarpAtBarrier(warp);
    }
}

void
Interpreter::stepWarpExec(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                          WarpStepResult &res)
{
    SimtStack &st = cta.stack(warp);
    MLGS_ASSERT(!st.empty(), "stepWarp on a finished warp");
    MLGS_ASSERT(!cta.warpAtBarrier(warp), "stepWarp on a warp at a barrier");

    const ptx::KernelDef &k = *env.kernel;
    const uint32_t pc = st.pc();
    MLGS_ASSERT(pc < k.instrs.size(), "pc out of range in ", k.name);
    const Instr &ins = k.instrs[pc];
    const warp_mask_t mask = st.activeMask();

    warp_mask_t exec = mask;
    if (ins.pred >= 0) {
        exec = 0;
        for (unsigned lane = 0; lane < kWarpSize; lane++) {
            if (!((mask >> lane) & 1))
                continue;
            const unsigned tid = warp * kWarpSize + lane;
            const bool p = cta.reg(tid, size_t(ins.pred)).pred;
            if (p != ins.pred_neg)
                exec |= warp_mask_t(1) << lane;
        }
    }

    res.ins = &ins;
    res.pc = pc;
    res.active = exec;
    cta.warpInstrCount(warp)++;
    if (coverage_)
        coverage_->hit(ins.variant_id);

    if (ins.op == Op::Bra) {
        st.branch(exec, ins.target_pc, pc + 1, ins.reconv_pc);
        return;
    }
    if (ins.isExit()) {
        st.exitLanes(exec);
        if (exec != mask && !st.empty())
            st.advance();
        res.exited = st.empty();
        return;
    }
    if (ins.op == Op::Bar) {
        MLGS_REQUIRE(st.entries().size() == 1,
                     "bar.sync inside divergent control flow in ", k.name);
        cta.setWarpAtBarrier(warp);
        st.advance();
        res.barrier = true;
        return;
    }
    if (ins.op == Op::Membar) {
        st.advance();
        return;
    }

    for (unsigned lane = 0; lane < kWarpSize; lane++) {
        if (!((exec >> lane) & 1))
            continue;
        const unsigned tid = warp * kWarpSize + lane;
        execLane(ins, cta, tid, lane, env, res);
    }
    st.advance();
}

} // namespace mlgs::func
