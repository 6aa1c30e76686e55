/**
 * @file
 * Compiled warp execution: dispatches the decode-once micro-op stream a
 * kernel was lowered into (ptx/uop.h) instead of re-decoding parsed
 * instructions each step. Two entry points:
 *
 *  - stepWarp(): single-instruction step with the exact WarpStepResult
 *    contract of Interpreter::stepWarpExec — used by the timing model and
 *    whenever a warp-stream cache is attached (record keeps its per-step
 *    granularity).
 *  - runWarp(): the batched fast path for the pure-functional engine — runs
 *    the warp until it finishes, reaches a barrier, or hits the instruction
 *    limit, folding stats in directly and walking straight-line basic-block
 *    spans without touching the SIMT stack.
 *
 * Both are bitwise identical to the interpreter on register files, memory
 * and every FuncStats field.
 */
#ifndef MLGS_FUNC_COMPILED_EXEC_H
#define MLGS_FUNC_COMPILED_EXEC_H

#include <cstdint>

#include "func/warp_step.h"

namespace mlgs::func
{

class CtaExec;
class Interpreter;
struct FuncStats;
struct LaunchEnv;

namespace compiled
{

/**
 * Execute one warp instruction (timing-model / warp-stream contract) into
 * `res`, which the caller has cleared.
 */
void stepWarp(Interpreter &interp, CtaExec &cta, unsigned warp,
              const LaunchEnv &env, WarpStepResult &res);

/**
 * Run a warp until done, at a barrier, or at the per-warp instruction limit.
 * `stats` may be null (checkpoint fast-forward discards counts, exactly like
 * the interpreter path).
 */
void runWarp(Interpreter &interp, CtaExec &cta, unsigned warp,
             const LaunchEnv &env, uint64_t max_instr_per_warp,
             FuncStats *stats);

} // namespace compiled
} // namespace mlgs::func

#endif // MLGS_FUNC_COMPILED_EXEC_H
