/**
 * @file
 * Functional execution of PTX warp instructions. One Interpreter instance is
 * shared by the pure-functional engine and by the timing model (which calls
 * stepWarp at issue time, GPGPU-Sim style).
 *
 * Two backends sit behind stepWarp(): the reference interpreter here
 * (per-instruction decode of the parsed IR) and the compiled micro-op
 * executor (src/func/compiled/, threaded dispatch over the lowered uop
 * stream from ptx/uop.h). Both run the shared scalar semantics in
 * func/exec_semantics.h and are bitwise identical on register files and
 * memory; ExecMode picks which one executes.
 */
#ifndef MLGS_FUNC_INTERPRETER_H
#define MLGS_FUNC_INTERPRETER_H

#include <string>

#include "func/bug_model.h"
#include "func/coverage.h"
#include "func/cta_exec.h"
#include "func/exec_mode.h"
#include "func/launch_env.h"
#include "func/texture.h"
#include "func/warp_step.h"
#include "func/warp_stream.h"
#include "mem/gpu_memory.h"
#include "ptx/ir.h"

namespace mlgs::func
{

class SiteProfiler;

/** Executes warp instructions against a CtaExec and global memory. */
class Interpreter
{
  public:
    explicit Interpreter(GpuMemory &mem, BugModel bugs = BugModel{},
                         ExecMode mode = ExecMode::Auto)
        : mem_(&mem), bugs_(bugs), mode_(resolveExecMode(mode))
    {
    }

    /** The resolved functional backend (never Auto). */
    ExecMode execMode() const { return mode_; }

    /** Optional coverage collection (differential coverage debugging). */
    void setCoverage(CoverageMap *cov) { coverage_ = cov; }
    CoverageMap *coverage() const { return coverage_; }

    /**
     * Record every stepped warp instruction into `cache` (trace-driven
     * timing replay capture). Pass nullptr to detach.
     */
    void setWarpStreamRecord(WarpStreamCache *cache) { record_streams_ = cache; }

    /**
     * Replay warp instructions from previously recorded streams instead of
     * interpreting: stepWarp() pops the next recorded step for the warp and
     * performs no register or memory work, so device memory is not updated.
     * Pass nullptr to detach. Mutually exclusive with record.
     */
    void
    setWarpStreamReplay(const WarpStreamCache *cache)
    {
        replay_streams_ = cache;
    }

    /** A warp-stream cache is attached (forces the serial timing path). */
    bool
    warpStreamActive() const
    {
        return record_streams_ != nullptr || replay_streams_ != nullptr;
    }

    /** Stream replay is attached (CTA register state is never read). */
    bool warpStreamReplayActive() const { return replay_streams_ != nullptr; }

    const BugModel &bugs() const { return bugs_; }
    GpuMemory &memory() { return *mem_; }

    /**
     * Record shared-memory ld/st into each CTA's RaceShadow (allocated by
     * the functional engine when this is on). Purely observational.
     */
    void setRaceCheck(bool on) { check_races_ = on; }
    bool raceCheck() const { return check_races_; }

    /**
     * Attach a per-pc memory-site profiler (perf-lint agreement loop).
     * Requires the interp backend (the profiler needs per-lane shared
     * addresses only the reference interpreter surfaces) and forces both
     * engines onto their serial paths. Pass nullptr to detach. Purely
     * observational: simulation results are bitwise identical either way.
     */
    void setSiteProfiler(SiteProfiler *prof);
    SiteProfiler *siteProfiler() const { return profiler_; }

    /**
     * Execute the next instruction of a warp into `res`, which is cleared
     * first. A caller that reuses one result keeps its access buffer, so a
     * step allocates nothing once the buffer has grown. The warp must not be
     * done and must not be waiting at a barrier.
     */
    void stepWarp(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                  WarpStepResult &res);

  private:
    void stepWarpExec(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                      WarpStepResult &res);
    void replayStep(CtaExec &cta, unsigned warp, const LaunchEnv &env,
                    WarpStepResult &res);

    void execLane(const ptx::Instr &ins, CtaExec &cta, unsigned tid,
                  unsigned lane, const LaunchEnv &env, WarpStepResult &res);

    GpuMemory *mem_;
    BugModel bugs_;
    ExecMode mode_;
    bool check_races_ = false;
    CoverageMap *coverage_ = nullptr;
    WarpStreamCache *record_streams_ = nullptr;
    const WarpStreamCache *replay_streams_ = nullptr;
    SiteProfiler *profiler_ = nullptr;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_INTERPRETER_H
