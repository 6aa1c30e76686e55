/**
 * @file
 * Functional state of one in-flight CTA: per-thread registers and local
 * memory, per-warp SIMT stacks and barrier status, and the CTA's shared
 * memory segment. This is exactly the "Data1" set the paper checkpoints.
 *
 * The registers of all threads live in one block laid out
 * [warp][reg][lane]: a register of one warp is kWarpSize contiguous cells,
 * so a 32-lane micro-op reads each operand from four adjacent cache lines
 * even when the timing model interleaves many warps between its steps. The
 * last warp is padded to kWarpSize lanes.
 */
#ifndef MLGS_FUNC_CTA_EXEC_H
#define MLGS_FUNC_CTA_EXEC_H

#include <memory>
#include <vector>

#include "common/types.h"
#include "func/race_check.h"
#include "func/simt_stack.h"
#include "ptx/ir.h"

namespace mlgs::ptx
{
struct UopProgram;
}

namespace mlgs::func
{

struct WarpStream;

/** Functional state of one CTA. */
class CtaExec
{
  public:
    /**
     * @param alloc_state allocate the register block, local and shared
     * memory. Warp-stream replay (trace-driven timing) passes false: it
     * never reads or writes functional state, only the SIMT stacks, barrier
     * flags, and instruction counters.
     */
    CtaExec(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
            const Dim3 &block_dim, const Dim3 &cta_id,
            bool alloc_state = true);

    const ptx::KernelDef &kernel() const { return *kernel_; }
    const Dim3 &gridDim() const { return grid_dim_; }
    const Dim3 &blockDim() const { return block_dim_; }
    const Dim3 &ctaId() const { return cta_id_; }

    unsigned numThreads() const { return num_threads_; }
    unsigned numWarps() const { return num_warps_; }

    /** Registers per thread (the kernel's register count). */
    unsigned numRegs() const { return num_regs_; }

    /** Register `r` of thread `tid`. */
    ptx::RegVal &reg(unsigned tid, size_t r) { return regs_[regIndex(tid, r)]; }
    const ptx::RegVal &
    reg(unsigned tid, size_t r) const
    {
        return regs_[regIndex(tid, r)];
    }

    /** A warp's registers: register r of lane l is at [r * kWarpSize + l]. */
    ptx::RegVal *
    warpRegs(unsigned warp)
    {
        return regs_ + regIndex(warp * kWarpSize, 0);
    }

    /** Thread `tid`'s .local scratch, localBytes() long. */
    uint8_t *local(unsigned tid) { return local_.data() + tid * local_bytes_; }
    const uint8_t *
    local(unsigned tid) const
    {
        return local_.data() + tid * local_bytes_;
    }
    size_t localBytes() const { return local_bytes_; }

    SimtStack &stack(unsigned warp) { return stacks_[warp]; }
    const SimtStack &stack(unsigned warp) const { return stacks_[warp]; }

    std::vector<uint8_t> &shared() { return shared_; }
    const std::vector<uint8_t> &shared() const { return shared_; }

    /** 3D thread index of a linear thread id. */
    Dim3 threadIdx3(unsigned tid) const { return unflatten(tid, block_dim_); }

    bool warpDone(unsigned warp) const { return stacks_[warp].empty(); }

    bool
    allDone() const
    {
        for (unsigned w = 0; w < num_warps_; w++)
            if (!warpDone(w))
                return false;
        return true;
    }

    // ---- barrier bookkeeping ----

    bool warpAtBarrier(unsigned warp) const { return at_barrier_[warp]; }
    void setWarpAtBarrier(unsigned warp) { at_barrier_[warp] = true; }

    /** True when every unfinished warp has arrived at the barrier. */
    bool
    barrierComplete() const
    {
        bool any = false;
        for (unsigned w = 0; w < num_warps_; w++) {
            if (warpDone(w))
                continue;
            if (!at_barrier_[w])
                return false;
            any = true;
        }
        return any;
    }

    void
    releaseBarrier()
    {
        for (unsigned w = 0; w < num_warps_; w++)
            at_barrier_[w] = false;
        if (race_)
            race_->advancePhase();
    }

    // ---- dynamic race checking (functional mode, ContextOptions) ----

    /** Allocate the per-byte shared-memory shadow (idempotent). */
    void
    enableRaceCheck()
    {
        if (!race_ && !shared_.empty())
            race_ = std::make_unique<RaceShadow>(shared_.size());
    }

    /** Shadow state, or nullptr when race checking is off. */
    RaceShadow *raceShadow() { return race_.get(); }
    const RaceShadow *raceShadow() const { return race_.get(); }

    /** Per-warp dynamic instruction counters (checkpointing, stats). */
    uint64_t &warpInstrCount(unsigned warp) { return instr_count_[warp]; }
    uint64_t warpInstrCount(unsigned warp) const { return instr_count_[warp]; }

    uint64_t
    totalInstrCount() const
    {
        uint64_t sum = 0;
        for (const auto c : instr_count_)
            sum += c;
        return sum;
    }

    /** Direct access to barrier flags for checkpoint restore. */
    std::vector<uint8_t> &barrierFlags() { return at_barrier_; }
    std::vector<uint64_t> &instrCounts() { return instr_count_; }

    // ---- compiled-backend program cache ----

    /**
     * Lowered micro-op program resolved for this CTA (compiled backend
     * only). A CTA is stepped by a single thread, so caching the pointer
     * here avoids the kernel cache's mutex on every warp step. The program
     * lives in the kernel's UopCache and outlives the CTA.
     */
    const ptx::UopProgram *uopProgram() const { return uops_; }
    void setUopProgram(const ptx::UopProgram *p) { uops_ = p; }

    // ---- warp-stream replay cache ----

    /**
     * The recorded stream a warp replays from, or nullptr before its first
     * replayed step. A CTA belongs to one launch, so the stream is found
     * once per warp instead of on every step.
     */
    const WarpStream *
    replayStream(unsigned warp) const
    {
        return warp < replay_.size() ? replay_[warp] : nullptr;
    }

    void
    setReplayStream(unsigned warp, const WarpStream *ws)
    {
        if (replay_.empty())
            replay_.assign(num_warps_, nullptr);
        replay_[warp] = ws;
    }

  private:
    size_t
    regIndex(unsigned tid, size_t r) const
    {
        return (size_t(tid / kWarpSize) * num_regs_ + r) * kWarpSize +
               tid % kWarpSize;
    }

    const ptx::KernelDef *kernel_;
    Dim3 grid_dim_;
    Dim3 block_dim_;
    Dim3 cta_id_;
    unsigned num_threads_;
    unsigned num_warps_;
    unsigned num_regs_;
    size_t local_bytes_;
    std::vector<ptx::RegVal> reg_store_; ///< backs regs_, with alignment slack
    ptx::RegVal *regs_ = nullptr;       ///< cache-line aligned [warp][reg][lane]
    std::vector<uint8_t> local_;        ///< [tid][local_bytes_]
    std::vector<SimtStack> stacks_;
    std::vector<uint8_t> shared_;
    std::vector<uint8_t> at_barrier_;
    std::vector<uint64_t> instr_count_;
    std::unique_ptr<RaceShadow> race_;
    const ptx::UopProgram *uops_ = nullptr;
    std::vector<const WarpStream *> replay_;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_CTA_EXEC_H
