/**
 * @file
 * Per-pc memory-site profiler: the dynamic half of perf-lint's agreement
 * loop. While attached to the interpreter (which forces single-step
 * execution), it measures for every executed memory instruction
 *
 *  - global sites: the number of distinct L1 lines each warp access touches
 *    (the same dedupe the timing model's coalescer performs), split into
 *    all accesses and full-warp (32 active lanes) accesses;
 *  - shared sites: the bank-conflict degree of each warp access (max
 *    distinct bank-width words routed to one bank; same-word lanes
 *    broadcast), from the per-lane shared addresses the compiled executor
 *    feeds in during the step.
 *
 * Results are keyed by (kernel name, block shape) so one run covering many
 * launch shapes can still be joined site-by-site against the static
 * predictions of ptx::verifier::perfReport (bench/tab_perflint).
 * Purely observational: nothing in the functional or timing state changes
 * when a profiler is attached.
 */
#ifndef MLGS_FUNC_SITE_PROFILER_H
#define MLGS_FUNC_SITE_PROFILER_H

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "func/warp_step.h"

namespace mlgs::func
{

class SiteProfiler
{
  public:
    /** Measured coalescing behavior of one global load/store/atomic pc. */
    struct GlobalSiteStats
    {
        uint64_t accesses = 0;     ///< warp executions with >=1 global lane
        uint64_t transactions = 0; ///< distinct lines summed over accesses
        uint64_t full_accesses = 0;     ///< subset with a full 32-lane mask
        uint64_t full_transactions = 0; ///< lines summed over full accesses
        bool is_store = false;
        bool is_atomic = false;
        unsigned width = 0; ///< bytes per lane
    };

    /** Measured bank behavior of one shared-memory access pc. */
    struct SharedSiteStats
    {
        uint64_t accesses = 0;
        uint64_t degree_sum = 0; ///< conflict degree summed over accesses
        uint64_t full_accesses = 0;
        uint64_t full_degree_sum = 0;
        unsigned max_degree = 0;
        uint64_t broadcasts = 0; ///< accesses where all lanes hit one word
        bool is_store = false;
        unsigned width = 0;
    };

    /** All measured sites of one (kernel, block shape) combination. */
    struct KernelSites
    {
        std::string kernel;
        Dim3 block;
        std::map<uint32_t, GlobalSiteStats> globals;
        std::map<uint32_t, SharedSiteStats> shared;
    };

    explicit SiteProfiler(unsigned line_bytes = 128,
                          unsigned shared_banks = 32, unsigned bank_bytes = 4)
        : line_bytes_(line_bytes), banks_(shared_banks),
          bank_bytes_(bank_bytes)
    {
    }

    /** Executor hooks (single-step execution is forced while attached). */
    void beginStep() { shared_lanes_.clear(); }
    void
    noteSharedLane(addr_t seg_addr, unsigned bytes)
    {
        shared_lanes_.push_back({seg_addr, bytes});
    }
    void finishStep(const std::string &kernel, const Dim3 &block,
                    const WarpStepResult &res);

    /** Key "kernel@BXxBYxBZ" used by kernels(). */
    static std::string key(const std::string &kernel, const Dim3 &block);

    const std::map<std::string, KernelSites> &kernels() const
    {
        return kernels_;
    }

  private:
    struct Lane
    {
        addr_t addr;
        unsigned bytes;
    };

    unsigned line_bytes_;
    unsigned banks_;
    unsigned bank_bytes_;
    std::vector<Lane> shared_lanes_;
    std::map<std::string, KernelSites> kernels_;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_SITE_PROFILER_H
