#include "func/interpreter.h"

#include "func/compiled/exec.h"
#include "func/site_profiler.h"

namespace mlgs::func
{

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
    compiled::stepWarp(*this, cta, warp, env, res);
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

} // namespace mlgs::func
