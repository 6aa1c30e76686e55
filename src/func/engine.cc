#include "func/engine.h"

#include "func/compiled/exec.h"

namespace mlgs::func
{

using ptx::Op;
using ptx::Type;

void
FuncStats::accumulate(const WarpStepResult &res)
{
    instructions++;
    const unsigned lanes = unsigned(__builtin_popcount(res.active));
    thread_instructions += lanes;

    const ptx::Instr &ins = *res.ins;
    switch (ins.op) {
      case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
      case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
        sfu++;
        break;
      case Op::Div:
        if (isFloat(ins.type))
            sfu++;
        else
            alu++;
        break;
      case Op::Ld: case Op::St: case Op::Atom: case Op::Red: case Op::Tex:
        mem++;
        break;
      default:
        alu++;
        break;
    }

    if (isFloat(ins.type)) {
        switch (ins.op) {
          case Op::Fma: case Op::Mad:
            flops += 2ull * lanes;
            break;
          case Op::Add: case Op::Sub: case Op::Mul: case Op::Div:
          case Op::Min: case Op::Max: case Op::Abs: case Op::Neg:
          case Op::Sqrt: case Op::Rsqrt: case Op::Rcp: case Op::Sin:
          case Op::Cos: case Op::Ex2: case Op::Lg2:
            flops += lanes;
            break;
          default:
            break;
        }
    }

    for (const auto &acc : res.memAccesses()) {
        if (acc.space == ptx::Space::Global || acc.space == ptx::Space::Const ||
            acc.space == ptx::Space::Tex) {
            if (acc.is_store)
                global_st_bytes += acc.size;
            else
                global_ld_bytes += acc.size;
        }
        if (acc.is_atomic)
            atomics++;
    }
    shared_accesses += res.shared_accesses;
}

std::unique_ptr<CtaExec>
FunctionalEngine::makeCta(const LaunchEnv &env, const Dim3 &grid,
                          const Dim3 &block, uint64_t linear_cta) const
{
    MLGS_REQUIRE(linear_cta < grid.count(), "CTA index out of range");
    const Dim3 cta_id = unflatten(linear_cta, grid);
    return std::make_unique<CtaExec>(*env.kernel, grid, block, cta_id);
}

bool
FunctionalEngine::runCta(CtaExec &cta, const LaunchEnv &env,
                         uint64_t max_instr_per_warp, FuncStats *stats)
{
    Interpreter &interp = *interp_;
    if (interp.raceCheck())
        cta.enableRaceCheck();
    // Warps run in batches (whole basic-block spans per dispatch) unless a
    // warp-stream cache or a site profiler needs per-step granularity.
    const bool batch = !interp.warpStreamActive() && !interp.siteProfiler();
    while (true) {
        if (cta.allDone()) {
            if (const RaceShadow *rs = cta.raceShadow()) {
                for (const RaceRecord &r : rs->races())
                    warn("shared-memory race in kernel '", env.kernel->name,
                         "' cta (", cta.ctaId().x, ",", cta.ctaId().y, ",",
                         cta.ctaId().z, "): ",
                         r.a_is_write ? "store" : "load", " at line ",
                         r.line_a, " (thread ", r.tid_a, ") vs ",
                         r.b_is_write ? "store" : "load", " at line ",
                         r.line_b, " (thread ", r.tid_b, ") on shared byte ",
                         r.offset, " in barrier phase ", r.phase);
                if (stats)
                    stats->shared_races += rs->races().size();
            }
            return true;
        }

        bool progressed = false;
        for (unsigned w = 0; w < cta.numWarps(); w++) {
            if (batch) {
                const uint64_t before = cta.warpInstrCount(w);
                compiled::runWarp(interp, cta, w, env, max_instr_per_warp,
                                  stats);
                progressed |= cta.warpInstrCount(w) != before;
                continue;
            }
            while (!cta.warpDone(w) && !cta.warpAtBarrier(w) &&
                   cta.warpInstrCount(w) < max_instr_per_warp) {
                interp.stepWarp(cta, w, env, step_);
                if (stats)
                    stats->accumulate(step_);
                progressed = true;
                if (step_.barrier)
                    break;
            }
        }

        if (cta.barrierComplete()) {
            cta.releaseBarrier();
            if (stats)
                stats->barriers++;
            progressed = true;
        }

        if (!progressed) {
            // Every live warp is throttled by the instruction limit (the
            // checkpoint case) — or the CTA is deadlocked.
            bool any_below_limit = false;
            for (unsigned w = 0; w < cta.numWarps(); w++)
                if (!cta.warpDone(w) &&
                    cta.warpInstrCount(w) < max_instr_per_warp)
                    any_below_limit = true;
            if (!any_below_limit)
                return false;
            fatal("CTA deadlock in kernel ", env.kernel->name,
                  " (barrier never completed)");
        }
    }
}

FuncStats
FunctionalEngine::launch(const LaunchEnv &env, const Dim3 &grid,
                         const Dim3 &block)
{
    const uint64_t num_ctas = grid.count();
    FuncStats stats;
    for (uint64_t c = 0; c < num_ctas; c++) {
        auto cta = makeCta(env, grid, block, c);
        const bool done = runCta(*cta, env, UINT64_MAX, &stats);
        MLGS_ASSERT(done, "unlimited CTA run did not complete");
    }
    return stats;
}

} // namespace mlgs::func
