/**
 * @file
 * Cycle-level SIMT core ("shader core" / SM): warp schedulers with a
 * scoreboard, functional execution at issue (GPGPU-Sim style), an L1 data
 * cache with MSHR merging, and CTA occupancy management.
 *
 * Readiness is event-driven: each warp's blocked state is cached in
 * per-scheduler bitmasks and recomputed only when something that can change
 * it touches the warp (issue, writeback retire, load completion, barrier
 * release), so a scheduler with no ready warp costs O(1) per cycle.
 */
#ifndef MLGS_TIMING_CORE_H
#define MLGS_TIMING_CORE_H

#include <memory>
#include <unordered_map>

#include "func/engine.h"
#include "stats/aerial.h"
#include "timing/cache.h"
#include "timing/mem_fetch.h"

namespace mlgs::timing
{

/**
 * Scoreboard view of a kernel, resolved once per launch: for every pc, the
 * register-file words its source and destination registers touch (a warp
 * may issue it only when none of those bits is busy), in the spirit of
 * per-operand read/write access bits.
 */
struct KernelRegUse
{
    struct WordMask
    {
        uint32_t word = 0;
        uint64_t bits = 0;
    };
    struct Pc
    {
        uint32_t first = 0; ///< index of its first entry in `masks`
        uint32_t count = 0;
        bool exit = false;
        bool mem = false;
    };

    std::vector<Pc> pcs;
    std::vector<WordMask> masks;
    unsigned words = 0; ///< bitmap words per warp (from KernelDef::reg_types)

    KernelRegUse() = default;
    explicit KernelRegUse(const ptx::KernelDef &k);
};

/** Shared, per-launch dispatch state (which CTA goes next, completion). */
struct KernelDispatch
{
    const func::LaunchEnv *env = nullptr;
    Dim3 grid;
    Dim3 block;
    unsigned threads_per_cta = 0;
    unsigned warps_per_cta = 0;
    unsigned shared_bytes_per_cta = 0;
    uint64_t total_ctas = 0;
    uint64_t next_cta = 0;      ///< next linear CTA id to install
    uint64_t completed_ctas = 0;
    KernelRegUse regs;

    /**
     * Checkpoint resume: pre-initialized (possibly mid-execution) CTA states
     * for linear ids [preload_base, preload_base + preloaded.size()).
     */
    uint64_t preload_base = 0;
    std::vector<std::unique_ptr<func::CtaExec>> preloaded;

    bool allIssued() const { return next_cta >= total_ctas; }
    bool allDone() const { return completed_ctas >= total_ctas; }
};

/** Per-core aggregate counters. */
struct CoreCounters
{
    uint64_t issued_instructions = 0;
    uint64_t thread_instructions = 0;
    uint64_t alu = 0;
    uint64_t sfu = 0;
    uint64_t mem = 0;
    uint64_t shared_accesses = 0;
    uint64_t ctas_completed = 0;
};

/** One streaming multiprocessor. */
class ShaderCore
{
  public:
    ShaderCore(unsigned id, const GpuConfig &cfg, func::Interpreter &interp);

    /** Try to claim and install the dispatch's next CTA; true on success. */
    bool tryIssueCta(KernelDispatch &disp);

    /**
     * One core cycle: writeback retire, barrier release, scheduling, issue.
     * A quiet() core need not be stepped: it would only book an Idle stall
     * on each scheduler.
     */
    void cycle(cycle_t now, stats::AerialSampler *sampler);

    /** No live warps and no writeback in flight. */
    bool quiet() const { return live_warps_total_ == 0 && wb_count_ == 0; }

    /** Memory response delivered from the interconnect. */
    void pushResponse(const MemFetch &mf, cycle_t now);

    bool hasOutgoing() const { return !out_queue_.empty(); }
    MemFetch popOutgoing();

    /** Live warps or outstanding memory work. */
    bool busy() const;

    const CoreCounters &counters() const { return counters_; }
    const TagCache &l1() const { return l1_; }
    unsigned id() const { return id_; }

    /** Number of live (installed, unfinished) warps. */
    unsigned liveWarps() const { return live_warps_total_; }

  private:
    struct CtaSlot
    {
        std::unique_ptr<func::CtaExec> cta;
        KernelDispatch *disp = nullptr;
        std::vector<unsigned> warp_slots;
        unsigned live_warps = 0;
    };

    struct WarpSlot
    {
        bool valid = false;
        int cta_slot = -1;
        unsigned warp_in_cta = 0;
        std::vector<uint64_t> busy;     ///< scoreboard bitmap, bit = register
        std::vector<uint64_t> mem_dest; ///< busy bits released when loads drain
        unsigned pending_loads = 0;
        cycle_t last_issue = 0;
        unsigned sched = 0; ///< owning scheduler (fixed per slot)
        uint64_t bit = 0;   ///< the slot's bit in that scheduler's masks
        const KernelRegUse *regs = nullptr;
        const KernelRegUse::Pc *next = nullptr; ///< entry of the next pc
    };

    /**
     * Delayed register writeback (fixed-latency pipelines + L1 hits). The
     * instruction outlives the writeback: kernels stay loaded while the
     * model runs.
     */
    struct Writeback
    {
        unsigned warp = 0;
        const ptx::Instr *ins = nullptr; ///< nullptr: one part of a load
    };

    /**
     * Cached readiness of one scheduler's warps; bit i is the warp in slot
     * i * schedulers_per_core + s. A warp is ready when eligible and in none
     * of hazard / pending_full, and not `mem` while the outgoing queue is
     * full.
     */
    struct SchedState
    {
        uint64_t valid = 0;
        uint64_t eligible = 0;     ///< valid and not waiting at a barrier
        uint64_t hazard = 0;       ///< DataHazard: scoreboard, or exit with loads
        uint64_t pending_full = 0; ///< memory op at the pending-load limit
        uint64_t mem = 0;          ///< next instruction is a memory access
        unsigned size = 0;         ///< warp slots this scheduler owns
        unsigned rr = 0;           ///< LRR rotate position
        int last = -1;             ///< GTO sticky warp (bit index)
    };

    /** Recompute every cached bit of a warp (its pc or state changed). */
    void updateWarp(unsigned slot);
    /** Recompute only the hazard and pending-load bits (pc unchanged). */
    void updateHazard(const WarpSlot &w);
    void pushWriteback(const Writeback &wb, cycle_t now, cycle_t ready_at);
    void issueWarp(unsigned slot, cycle_t now, stats::AerialSampler *sampler);
    void retire(const Writeback &wb);
    void loadPartDone(unsigned slot);
    void completeCtaIfDone(int cta_slot);

    unsigned id_;
    const GpuConfig *cfg_;
    func::Interpreter *interp_;
    TagCache l1_;

    std::vector<CtaSlot> cta_slots_;
    std::vector<WarpSlot> warps_;
    std::vector<SchedState> sched_;
    bool barrier_check_ = false; ///< a warp arrived, exited or was installed

    unsigned used_threads_ = 0;
    unsigned used_shared_ = 0;
    unsigned used_ctas_ = 0;
    unsigned live_warps_total_ = 0;

    /**
     * Writebacks by retire cycle: wb_wheel_[c % size] holds those due at c.
     * A core with writebacks in flight is stepped every cycle, and every
     * latency is below the wheel size, so each slot is drained on time.
     * Retire order within a cycle does not matter: retires only clear bits
     * and count down loads.
     */
    std::vector<std::vector<Writeback>> wb_wheel_;
    size_t wb_count_ = 0;
    std::deque<MemFetch> out_queue_;
    std::unordered_map<addr_t, std::vector<unsigned>> l1_waiters_;
    uint64_t next_fetch_id_ = 0;
    std::vector<addr_t> load_lines_, store_lines_; ///< issueWarp scratch
    func::WarpStepResult step_;                    ///< issueWarp's result

    CoreCounters counters_;
};

} // namespace mlgs::timing

#endif // MLGS_TIMING_CORE_H
