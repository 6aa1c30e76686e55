#include "func/cta_exec.h"

#include <cstdint>

namespace mlgs::func
{

CtaExec::CtaExec(const ptx::KernelDef &kernel, const Dim3 &grid_dim,
                 const Dim3 &block_dim, const Dim3 &cta_id, bool alloc_state)
    : kernel_(&kernel),
      grid_dim_(grid_dim),
      block_dim_(block_dim),
      cta_id_(cta_id),
      num_threads_(unsigned(block_dim.count())),
      num_warps_((num_threads_ + kWarpSize - 1) / kWarpSize),
      num_regs_(unsigned(kernel.reg_types.size())),
      local_bytes_(kernel.local_bytes)
{
    MLGS_REQUIRE(num_threads_ > 0 && num_threads_ <= 1024,
                 "CTA size out of range: ", num_threads_);

    if (alloc_state) {
        // One block for every warp's registers, started on a cache line so
        // each 32-lane register spans exactly four lines.
        constexpr size_t kLineCells = 64 / sizeof(ptx::RegVal);
        reg_store_.resize(size_t(num_warps_) * num_regs_ * kWarpSize +
                          kLineCells - 1);
        const uintptr_t addr = reinterpret_cast<uintptr_t>(reg_store_.data());
        regs_ = reg_store_.data() +
                (kLineCells - addr / sizeof(ptx::RegVal) % kLineCells) %
                    kLineCells;
        local_.assign(size_t(num_threads_) * local_bytes_, 0);
    }

    stacks_.resize(num_warps_);
    for (unsigned w = 0; w < num_warps_; w++) {
        const unsigned first = w * kWarpSize;
        const unsigned count = std::min(kWarpSize, num_threads_ - first);
        const warp_mask_t mask =
            count == kWarpSize ? kFullWarpMask : ((warp_mask_t(1) << count) - 1);
        stacks_[w].init(mask);
    }

    shared_.assign(alloc_state ? kernel.shared_bytes : 0, 0);
    at_barrier_.assign(num_warps_, 0);
    instr_count_.assign(num_warps_, 0);
}

} // namespace mlgs::func
