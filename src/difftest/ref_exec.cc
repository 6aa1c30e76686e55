#include "difftest/ref_exec.h"

#include <cmath>
#include <cstring>

#include "common/fp16.h"
#include "common/log.h"
#include "mem/addrspace.h"

namespace mlgs::difftest
{

using ptx::CmpOp;
using ptx::Instr;
using ptx::MulMode;
using ptx::Op;
using ptx::Operand;
using ptx::Space;
using ptx::Type;

namespace
{

/** Upper bound on instructions per thread (runaway-kernel insurance). */
constexpr uint64_t kMaxThreadInstrs = 1u << 24;

unsigned
cellBytes(Type t)
{
    return t == Type::Pred ? 1 : ptx::typeSize(t);
}

/** Zero-extended read of the low `typeSize` bytes of a cell. */
uint64_t
rdU(Type t, uint64_t cell)
{
    const unsigned b = cellBytes(t);
    return b >= 8 ? cell : (cell & ((1ull << (b * 8)) - 1));
}

/** Sign-extending read for signed types, zero-extending otherwise. */
int64_t
rdS(Type t, uint64_t cell)
{
    const uint64_t u = rdU(t, cell);
    if (!ptx::isSigned(t))
        return int64_t(u);
    switch (ptx::typeSize(t)) {
      case 1: return int8_t(u);
      case 2: return int16_t(u);
      case 4: return int32_t(u);
      default: return int64_t(u);
    }
}

/** Read a float operand cell (f16 widened through fp32, as the ISA does). */
double
rdF(Type t, uint64_t cell)
{
    switch (t) {
      case Type::F16:
        return fp16ToFp32(uint16_t(cell));
      case Type::F32: {
        float f;
        const uint32_t bits = uint32_t(cell);
        std::memcpy(&f, &bits, 4);
        return f;
      }
      case Type::F64: {
        double d;
        std::memcpy(&d, &cell, 8);
        return d;
      }
      default:
        fatal("RefExec: float read of non-float type");
    }
}

/** Fresh cell holding x in the low bytes of t (upper bytes zero). */
uint64_t
wrInt(Type t, uint64_t x)
{
    return rdU(t, x);
}

uint64_t
wrF(Type t, double x)
{
    // Arithmetic results canonicalize NaNs (0x7fffffff / 0x7fff), the PTX
    // ISA rule real SMs implement; see the matching note on the device
    // model's makeF. Without it NaN payloads would depend on host operand
    // order and the bitwise comparison would be meaningless.
    switch (t) {
      case Type::F16:
        return std::isnan(x) ? 0x7fff : fp32ToFp16(float(x));
      case Type::F32: {
        if (std::isnan(x))
            return 0x7fffffffu;
        const float f = float(x);
        uint32_t bits;
        std::memcpy(&bits, &f, 4);
        return bits;
      }
      case Type::F64: {
        uint64_t bits;
        std::memcpy(&bits, &x, 8);
        return bits;
      }
      default:
        fatal("RefExec: float write of non-float type");
    }
}

/** Width-masked partial register write (only the typed bytes change). */
void
splice(uint64_t &reg, Type t, uint64_t cell)
{
    const unsigned b = cellBytes(t);
    if (b >= 8) {
        reg = cell;
        return;
    }
    const uint64_t mask = (1ull << (b * 8)) - 1;
    reg = (reg & ~mask) | (cell & mask);
}

/** Saturating float -> signed conversion (ISA cvt with .sat semantics). */
int64_t
clampSigned(double x, unsigned bits)
{
    if (std::isnan(x))
        return 0;
    const double lo = -std::ldexp(1.0, int(bits - 1));
    const double hi = std::ldexp(1.0, int(bits - 1)) - 1.0;
    if (x < lo)
        return int64_t(lo);
    if (x > hi)
        return bits == 64 ? INT64_MAX : int64_t(hi);
    return int64_t(x);
}

uint64_t
clampUnsigned(double x, unsigned bits)
{
    if (std::isnan(x) || x < 0)
        return 0;
    const double hi = std::ldexp(1.0, int(bits)) - 1.0;
    if (x > hi)
        return bits == 64 ? UINT64_MAX : uint64_t(hi);
    return uint64_t(x);
}

bool
predByte(uint64_t cell)
{
    return (cell & 0xff) != 0;
}

/**
 * Scalar ALU semantics, written from the PTX ISA spec. Deliberate shared
 * conventions with the device model (both sides document them): integer
 * division by zero produces all-ones, remainder by zero returns the
 * dividend, INT_MIN rem -1 is 0, and f16 arithmetic is performed in fp32.
 */
uint64_t
alu(const Instr &ins, uint64_t a, uint64_t b, uint64_t c)
{
    const Type t = ins.type;
    const unsigned w = ptx::typeSize(t) * 8;

    switch (ins.op) {
      case Op::Add:
        if (ptx::isFloat(t))
            return wrF(t, rdF(t, a) + rdF(t, b));
        return wrInt(t, rdU(t, a) + rdU(t, b));
      case Op::Sub:
        if (ptx::isFloat(t))
            return wrF(t, rdF(t, a) - rdF(t, b));
        return wrInt(t, rdU(t, a) - rdU(t, b));
      case Op::Mul:
      case Op::Mad: {
        uint64_t prod;
        Type prod_t = t;
        if (ptx::isFloat(t)) {
            prod = wrF(t, rdF(t, a) * rdF(t, b));
        } else {
            switch (ins.mul_mode) {
              case MulMode::Wide:
                prod_t = t == Type::S32   ? Type::S64
                         : t == Type::U32 ? Type::U64
                         : t == Type::S16 ? Type::S32
                                          : Type::U32;
                if (ptx::isSigned(t))
                    prod = wrInt(prod_t, uint64_t(rdS(t, a) * rdS(t, b)));
                else
                    prod = wrInt(prod_t, rdU(t, a) * rdU(t, b));
                break;
              case MulMode::Hi:
                if (w == 32) {
                    if (ptx::isSigned(t))
                        prod = wrInt(t, uint64_t((rdS(t, a) * rdS(t, b)) >>
                                                 32));
                    else
                        prod = wrInt(t, (rdU(t, a) * rdU(t, b)) >> 32);
                } else {
                    prod = wrInt(
                        t, uint64_t((__uint128_t(rdU(t, a)) * rdU(t, b)) >>
                                    64));
                }
                break;
              default:
                prod = wrInt(t, rdU(t, a) * rdU(t, b));
                break;
            }
        }
        if (ins.op == Op::Mul)
            return prod;
        if (ptx::isFloat(t))
            return wrF(t, rdF(t, prod) + rdF(t, c));
        return wrInt(prod_t, rdU(prod_t, prod) + rdU(prod_t, c));
      }
      case Op::Fma: {
        if (t == Type::F64)
            return wrF(t, std::fma(rdF(t, a), rdF(t, b), rdF(t, c)));
        const float fa = float(rdF(t, a)), fb = float(rdF(t, b)),
                    fc = float(rdF(t, c));
        return wrF(t, std::fmaf(fa, fb, fc));
      }
      case Op::Div:
        if (ptx::isFloat(t))
            return wrF(t, rdF(t, a) / rdF(t, b));
        if (ptx::isSigned(t)) {
            const int64_t sa = rdS(t, a), sb = rdS(t, b);
            if (sb == 0)
                return wrInt(t, ~0ull);
            if (sa == INT64_MIN && sb == -1)
                return wrInt(t, uint64_t(sa));
            return wrInt(t, uint64_t(sa / sb));
        } else {
            const uint64_t ua = rdU(t, a), ub = rdU(t, b);
            return wrInt(t, ub == 0 ? ~0ull : ua / ub);
        }
      case Op::Rem:
        if (ptx::isSigned(t)) {
            const int64_t sa = rdS(t, a), sb = rdS(t, b);
            if (sb == 0)
                return wrInt(t, uint64_t(sa));
            if (sa == INT64_MIN && sb == -1)
                return wrInt(t, 0);
            return wrInt(t, uint64_t(sa % sb));
        } else {
            const uint64_t ua = rdU(t, a), ub = rdU(t, b);
            return wrInt(t, ub == 0 ? ua : ua % ub);
        }
      case Op::Abs:
        if (ptx::isFloat(t))
            return wrF(t, std::fabs(rdF(t, a)));
        return wrInt(t, uint64_t(std::llabs(rdS(t, a))));
      case Op::Neg:
        if (ptx::isFloat(t))
            return wrF(t, -rdF(t, a));
        return wrInt(t, uint64_t(-rdS(t, a)));
      case Op::Min:
        if (ptx::isFloat(t)) {
            // PTX min/max drop a NaN operand and order -0 < +0 (IEEE
            // 754-2019 minimum/maximum); libm fmin/fmax leave ±0 unspecified.
            const double x = rdF(t, a), y = rdF(t, b);
            if (std::isnan(x))
                return wrF(t, y);
            if (std::isnan(y))
                return wrF(t, x);
            if (x == y)
                return wrF(t, std::signbit(x) ? x : y);
            return wrF(t, x < y ? x : y);
        }
        if (ptx::isSigned(t))
            return wrInt(t, uint64_t(std::min(rdS(t, a), rdS(t, b))));
        return wrInt(t, std::min(rdU(t, a), rdU(t, b)));
      case Op::Max:
        if (ptx::isFloat(t)) {
            const double x = rdF(t, a), y = rdF(t, b);
            if (std::isnan(x))
                return wrF(t, y);
            if (std::isnan(y))
                return wrF(t, x);
            if (x == y)
                return wrF(t, std::signbit(x) ? y : x);
            return wrF(t, x > y ? x : y);
        }
        if (ptx::isSigned(t))
            return wrInt(t, uint64_t(std::max(rdS(t, a), rdS(t, b))));
        return wrInt(t, std::max(rdU(t, a), rdU(t, b)));
      case Op::And:
        return wrInt(t, rdU(t, a) & rdU(t, b));
      case Op::Or:
        return wrInt(t, rdU(t, a) | rdU(t, b));
      case Op::Xor:
        return wrInt(t, rdU(t, a) ^ rdU(t, b));
      case Op::Not:
        return wrInt(t, ~rdU(t, a));
      case Op::Shl: {
        const uint32_t s = uint32_t(b);
        return wrInt(t, s >= w ? 0 : rdU(t, a) << s);
      }
      case Op::Shr: {
        const uint32_t s = uint32_t(b);
        if (ptx::isSigned(t))
            return wrInt(t, uint64_t(rdS(t, a) >> std::min(s, w - 1)));
        return wrInt(t, s >= w ? 0 : rdU(t, a) >> s);
      }
      case Op::Brev: {
        const uint64_t x = rdU(t, a);
        uint64_t r = 0;
        for (unsigned i = 0; i < w; i++)
            if ((x >> i) & 1)
                r |= 1ull << (w - 1 - i);
        return wrInt(t, r);
      }
      case Op::Bfe: {
        const uint64_t x = rdU(t, a);
        const uint32_t pos = uint32_t(b) & 0xff;
        const uint32_t len = uint32_t(c) & 0xff;
        if (len == 0)
            return wrInt(t, 0);
        uint64_t field = pos >= w ? 0 : x >> pos;
        const uint64_t mask = len >= 64 ? ~0ull : ((1ull << len) - 1);
        field &= mask;
        if (ptx::isSigned(t)) {
            // The sign of the field is the bit at pos+len-1, clamped to the
            // source msb when the field overhangs it (PTX ISA 9.7.1 bfe).
            const uint32_t sb = std::min(pos + len - 1, w - 1);
            if ((x >> sb) & 1)
                field |= ~mask;
        }
        return wrInt(t, field);
      }
      case Op::Popc:
        return uint64_t(__builtin_popcountll(rdU(t, a)));
      case Op::Clz: {
        const uint64_t x = rdU(t, a);
        unsigned n = 0;
        for (int i = int(w) - 1; i >= 0 && !((x >> i) & 1); i--)
            n++;
        return n;
      }
      case Op::Rcp:
        return wrF(t, 1.0 / rdF(t, a));
      case Op::Sqrt:
        return wrF(t, std::sqrt(rdF(t, a)));
      case Op::Rsqrt:
        return wrF(t, 1.0 / std::sqrt(rdF(t, a)));
      case Op::Sin:
        return wrF(t, std::sin(rdF(t, a)));
      case Op::Cos:
        return wrF(t, std::cos(rdF(t, a)));
      case Op::Ex2:
        return wrF(t, std::exp2(rdF(t, a)));
      case Op::Lg2:
        return wrF(t, std::log2(rdF(t, a)));
      default:
        fatal("RefExec: unsupported ALU op in '", ins.text, "'");
    }
}

bool
evalSetp(const Instr &ins, Type t, uint64_t a, uint64_t b)
{
    if (ptx::isFloat(t)) {
        const double fa = rdF(t, a), fb = rdF(t, b);
        switch (ins.cmp) {
          case CmpOp::Eq: return fa == fb;
          case CmpOp::Ne: return fa != fb;
          case CmpOp::Lt: return fa < fb;
          case CmpOp::Le: return fa <= fb;
          case CmpOp::Gt: return fa > fb;
          case CmpOp::Ge: return fa >= fb;
          default: fatal("RefExec: unsigned float compare: ", ins.text);
        }
    }
    if (ins.cmp == CmpOp::Lo || ins.cmp == CmpOp::Ls || ins.cmp == CmpOp::Hi ||
        ins.cmp == CmpOp::Hs) {
        const uint64_t ua = rdU(t, a), ub = rdU(t, b);
        switch (ins.cmp) {
          case CmpOp::Lo: return ua < ub;
          case CmpOp::Ls: return ua <= ub;
          case CmpOp::Hi: return ua > ub;
          default: return ua >= ub;
        }
    }
    if (ptx::isSigned(t)) {
        const int64_t sa = rdS(t, a), sb = rdS(t, b);
        switch (ins.cmp) {
          case CmpOp::Eq: return sa == sb;
          case CmpOp::Ne: return sa != sb;
          case CmpOp::Lt: return sa < sb;
          case CmpOp::Le: return sa <= sb;
          case CmpOp::Gt: return sa > sb;
          case CmpOp::Ge: return sa >= sb;
          default: return false;
        }
    }
    const uint64_t ua = rdU(t, a), ub = rdU(t, b);
    switch (ins.cmp) {
      case CmpOp::Eq: return ua == ub;
      case CmpOp::Ne: return ua != ub;
      case CmpOp::Lt: return ua < ub;
      case CmpOp::Le: return ua <= ub;
      case CmpOp::Gt: return ua > ub;
      case CmpOp::Ge: return ua >= ub;
      default: return false;
    }
}

} // namespace

RefExec::RefExec(const ptx::KernelDef &kernel, Dim3 grid, Dim3 block,
                 std::vector<uint8_t> params, std::vector<RefBuffer> globals)
    : k_(kernel),
      grid_(grid),
      block_(block),
      params_(std::move(params)),
      globals_(std::move(globals)),
      threads_per_cta_(unsigned(block.count())),
      num_ctas_(grid.count())
{
    MLGS_REQUIRE(k_.local_bytes == 0,
                 "RefExec does not model .local memory (kernel ", k_.name,
                 ")");
    regs_.assign(size_t(num_ctas_) * threads_per_cta_,
                 std::vector<uint64_t>(k_.reg_types.size(), 0));
}

addr_t
RefExec::symbolAddr(const std::string &sym) const
{
    if (const auto *sv = k_.findShared(sym))
        return kSharedBase + sv->offset;
    if (const auto *p = k_.findParam(sym))
        return kParamBase + p->offset;
    fatal("RefExec: unresolved symbol '", sym, "'");
}

uint64_t
RefExec::readOperand(const Instr &ins, const Operand &op, const Thread &t,
                     const Dim3 &cta) const
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return (*t.regs)[size_t(op.reg)];
      case Operand::Kind::Imm:
        return uint64_t(op.imm);
      case Operand::Kind::FImm: {
        // Raw bit conversion (no NaN canonicalization): immediates are data
        // movement, and the device model keeps their payload verbatim.
        if (ins.type == Type::F64) {
            uint64_t bits;
            std::memcpy(&bits, &op.fimm, 8);
            return bits;
        }
        if (ins.type == Type::F16)
            return fp32ToFp16(float(op.fimm));
        const float f = float(op.fimm);
        uint32_t bits;
        std::memcpy(&bits, &f, 4);
        return bits;
      }
      case Operand::Kind::Special:
        switch (op.sreg) {
          case ptx::SReg::TidX: return t.idx3.x;
          case ptx::SReg::TidY: return t.idx3.y;
          case ptx::SReg::TidZ: return t.idx3.z;
          case ptx::SReg::NTidX: return block_.x;
          case ptx::SReg::NTidY: return block_.y;
          case ptx::SReg::NTidZ: return block_.z;
          case ptx::SReg::CtaIdX: return cta.x;
          case ptx::SReg::CtaIdY: return cta.y;
          case ptx::SReg::CtaIdZ: return cta.z;
          case ptx::SReg::NCtaIdX: return grid_.x;
          case ptx::SReg::NCtaIdY: return grid_.y;
          case ptx::SReg::NCtaIdZ: return grid_.z;
          case ptx::SReg::LaneId: return t.tid % kWarpSize;
          case ptx::SReg::WarpId: return t.tid / kWarpSize;
          default:
            fatal("RefExec: unsupported special register in '", ins.text,
                  "'");
        }
      case Operand::Kind::Sym:
        return symbolAddr(op.sym);
      default:
        fatal("RefExec: unsupported operand kind in '", ins.text, "'");
    }
}

void
RefExec::loadBytes(addr_t addr, void *out, size_t n,
                   std::vector<uint8_t> &shared, Space space) const
{
    if (space == Space::Param ||
        (space == Space::None && inParamWindow(addr))) {
        const addr_t off = addr - kParamBase;
        MLGS_REQUIRE(off <= params_.size() && n <= params_.size() - off,
                     "RefExec: param OOB read");
        std::memcpy(out, params_.data() + off, n);
        return;
    }
    if (space == Space::Shared ||
        (space == Space::None && inSharedWindow(addr))) {
        const addr_t off = addr - kSharedBase;
        MLGS_REQUIRE(off <= shared.size() && n <= shared.size() - off,
                     "RefExec: shared OOB read");
        std::memcpy(out, shared.data() + off, n);
        return;
    }
    for (const auto &g : globals_) {
        if (addr >= g.base && addr + n <= g.base + g.bytes->size()) {
            std::memcpy(out, g.bytes->data() + (addr - g.base), n);
            return;
        }
    }
    fatal("RefExec: global read outside provided buffers at ", addr);
}

void
RefExec::storeBytes(addr_t addr, const void *src, size_t n,
                    std::vector<uint8_t> &shared, Space space) const
{
    if (space == Space::Shared ||
        (space == Space::None && inSharedWindow(addr))) {
        const addr_t off = addr - kSharedBase;
        MLGS_REQUIRE(off <= shared.size() && n <= shared.size() - off,
                     "RefExec: shared OOB write");
        std::memcpy(shared.data() + off, src, n);
        return;
    }
    for (const auto &g : globals_) {
        if (addr >= g.base && addr + n <= g.base + g.bytes->size()) {
            std::memcpy(g.bytes->data() + (addr - g.base), src, n);
            return;
        }
    }
    fatal("RefExec: global write outside provided buffers at ", addr);
}

void
RefExec::runThread(Thread &t, std::vector<uint8_t> &shared, const Dim3 &cta)
{
    uint64_t executed = 0;
    auto &regs = *t.regs;

    while (true) {
        MLGS_REQUIRE(t.pc < k_.instrs.size(),
                     "RefExec: fell off the end of ", k_.name);
        MLGS_REQUIRE(++executed < kMaxThreadInstrs,
                     "RefExec: instruction budget exceeded in ", k_.name);
        const Instr &ins = k_.instrs[t.pc];

        if (ins.pred >= 0) {
            const bool p = predByte(regs[size_t(ins.pred)]);
            if (p == ins.pred_neg) { // guard is false: fall through
                t.pc++;
                continue;
            }
        }

        switch (ins.op) {
          case Op::Bra:
            t.pc = ins.target_pc;
            continue;
          case Op::Ret:
          case Op::Exit:
            t.state = Thread::Done;
            return;
          case Op::Bar:
            t.state = Thread::AtBarrier;
            t.pc++;
            return;
          case Op::Membar:
            t.pc++;
            continue;
          case Op::Mov: {
            const uint64_t v = readOperand(ins, ins.ops[1], t, cta);
            splice(regs[size_t(ins.ops[0].reg)],
                   ins.type == Type::Pred ? Type::Pred : ins.type, v);
            t.pc++;
            continue;
          }
          case Op::Cvta: {
            const uint64_t v = readOperand(ins, ins.ops[1], t, cta);
            splice(regs[size_t(ins.ops[0].reg)], ins.type, v);
            t.pc++;
            continue;
          }
          case Op::Cvt: {
            const Type dt = ins.type;
            const Type st = ins.stype == Type::None ? dt : ins.stype;
            const uint64_t a = readOperand(ins, ins.ops[1], t, cta);
            uint64_t out;
            if (ptx::isFloat(st) && ptx::isFloat(dt)) {
                out = wrF(dt, rdF(st, a));
            } else if (ptx::isFloat(st)) {
                double x = rdF(st, a);
                x = ins.cvt_round == ptx::CvtRound::Nearest
                        ? std::nearbyint(x)
                        : std::trunc(x);
                out = ptx::isSigned(dt)
                          ? wrInt(dt, uint64_t(clampSigned(
                                          x, ptx::typeSize(dt) * 8)))
                          : wrInt(dt,
                                  clampUnsigned(x, ptx::typeSize(dt) * 8));
            } else if (ptx::isFloat(dt)) {
                out = ptx::isSigned(st) ? wrF(dt, double(rdS(st, a)))
                                        : wrF(dt, double(rdU(st, a)));
            } else {
                out = ptx::isSigned(st) ? wrInt(dt, uint64_t(rdS(st, a)))
                                        : wrInt(dt, rdU(st, a));
            }
            splice(regs[size_t(ins.ops[0].reg)], dt, out);
            t.pc++;
            continue;
          }
          case Op::Setp: {
            const uint64_t a = readOperand(ins, ins.ops[1], t, cta);
            const uint64_t b = readOperand(ins, ins.ops[2], t, cta);
            const bool r = evalSetp(ins, ins.type, a, b);
            splice(regs[size_t(ins.ops[0].reg)], Type::Pred, r ? 1 : 0);
            t.pc++;
            continue;
          }
          case Op::Selp: {
            const uint64_t a = readOperand(ins, ins.ops[1], t, cta);
            const uint64_t b = readOperand(ins, ins.ops[2], t, cta);
            const uint64_t p = readOperand(ins, ins.ops[3], t, cta);
            splice(regs[size_t(ins.ops[0].reg)], ins.type,
                   predByte(p) ? a : b);
            t.pc++;
            continue;
          }
          case Op::Bfi: {
            const uint64_t ia = rdU(ins.type,
                                    readOperand(ins, ins.ops[1], t, cta));
            const uint64_t ib = rdU(ins.type,
                                    readOperand(ins, ins.ops[2], t, cta));
            const uint32_t pos =
                uint32_t(readOperand(ins, ins.ops[3], t, cta)) & 0xff;
            const uint32_t len =
                uint32_t(readOperand(ins, ins.ops[4], t, cta)) & 0xff;
            const unsigned w = ptx::typeSize(ins.type) * 8;
            uint64_t out = ib;
            if (len > 0 && pos < w) {
                const uint64_t mask =
                    (len >= 64 ? ~0ull : ((1ull << len) - 1)) << pos;
                out = (ib & ~mask) | ((ia << pos) & mask);
            }
            splice(regs[size_t(ins.ops[0].reg)], ins.type,
                   wrInt(ins.type, out));
            t.pc++;
            continue;
          }
          case Op::Ld: {
            MLGS_REQUIRE(ins.vec_width == 1,
                         "RefExec: vector loads unsupported: ", ins.text);
            const Operand &am = ins.ops[1];
            const addr_t ea =
                (am.reg >= 0 ? regs[size_t(am.reg)] : symbolAddr(am.sym)) +
                addr_t(am.imm);
            const unsigned esz = ptx::typeSize(ins.type);
            uint8_t bytes[8] = {};
            loadBytes(ea, bytes, esz, shared, ins.space);
            uint64_t raw = 0;
            std::memcpy(&raw, bytes, esz); // little-endian cell load
            uint64_t cell;
            switch (ins.type) {
              case Type::S8: cell = uint64_t(int64_t(int8_t(raw))); break;
              case Type::S16: cell = uint64_t(int64_t(int16_t(raw))); break;
              case Type::S32: cell = uint64_t(int64_t(int32_t(raw))); break;
              default: cell = raw; break; // unsigned/bits/float: raw bytes
            }
            splice(regs[size_t(ins.ops[0].reg)], ins.type, cell);
            t.pc++;
            continue;
          }
          case Op::St: {
            MLGS_REQUIRE(ins.vec_width == 1,
                         "RefExec: vector stores unsupported: ", ins.text);
            const Operand &am = ins.ops[0];
            const addr_t ea =
                (am.reg >= 0 ? regs[size_t(am.reg)] : symbolAddr(am.sym)) +
                addr_t(am.imm);
            const uint64_t v = readOperand(ins, ins.ops[1], t, cta);
            const unsigned esz = ptx::typeSize(ins.type);
            uint8_t bytes[8];
            std::memcpy(bytes, &v, 8);
            storeBytes(ea, bytes, esz, shared, ins.space);
            t.pc++;
            continue;
          }
          case Op::Atom:
          case Op::Red:
          case Op::Tex:
            fatal("RefExec: unsupported instruction '", ins.text, "'");
          default: {
            // Plain ALU: d, a [, b [, c]]
            const size_t n = ins.ops.size();
            MLGS_REQUIRE(n >= 2, "RefExec: malformed ALU instr ", ins.text);
            const uint64_t a = readOperand(ins, ins.ops[1], t, cta);
            const uint64_t b =
                n > 2 ? readOperand(ins, ins.ops[2], t, cta) : 0;
            const uint64_t c =
                n > 3 ? readOperand(ins, ins.ops[3], t, cta) : 0;
            const uint64_t out = alu(ins, a, b, c);
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
            splice(regs[size_t(ins.ops[0].reg)], dt, out);
            t.pc++;
            continue;
          }
        }
    }
}

void
RefExec::runCta(uint64_t linear_cta)
{
    const Dim3 cta = unflatten(linear_cta, grid_);
    std::vector<uint8_t> shared(k_.shared_bytes, 0);

    std::vector<Thread> threads(threads_per_cta_);
    for (unsigned i = 0; i < threads_per_cta_; i++) {
        threads[i].regs = &regs_[size_t(linear_cta) * threads_per_cta_ + i];
        threads[i].idx3 = unflatten(i, block_);
        threads[i].tid = i;
    }

    while (true) {
        bool progressed = false;
        for (auto &t : threads) {
            if (t.state == Thread::Running) {
                runThread(t, shared, cta);
                progressed = true;
            }
        }
        bool any_barrier = false, all_done = true;
        for (const auto &t : threads) {
            if (t.state != Thread::Done)
                all_done = false;
            if (t.state == Thread::AtBarrier)
                any_barrier = true;
        }
        if (all_done)
            return;
        MLGS_REQUIRE(progressed || any_barrier,
                     "RefExec: CTA deadlock in ", k_.name);
        // Naive barrier: every unfinished thread is at the barrier; release.
        for (auto &t : threads)
            if (t.state == Thread::AtBarrier)
                t.state = Thread::Running;
    }
}

void
RefExec::run()
{
    for (uint64_t c = 0; c < num_ctas_; c++)
        runCta(c);
}

} // namespace mlgs::difftest
