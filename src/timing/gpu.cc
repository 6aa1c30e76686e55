#include "timing/gpu.h"

#include <algorithm>
#include <limits>

namespace mlgs::timing
{

namespace
{
constexpr cycle_t kNoDeadline = std::numeric_limits<cycle_t>::max();
} // namespace

TimingTotals &
TimingTotals::operator+=(const TimingTotals &o)
{
    cycles += o.cycles;
    warp_instructions += o.warp_instructions;
    thread_instructions += o.thread_instructions;
    alu += o.alu;
    sfu += o.sfu;
    mem_insts += o.mem_insts;
    shared_accesses += o.shared_accesses;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    icnt_flits += o.icnt_flits;
    dram_reads += o.dram_reads;
    dram_writes += o.dram_writes;
    dram_row_hits += o.dram_row_hits;
    dram_row_misses += o.dram_row_misses;
    core_active_cycles += o.core_active_cycles;
    core_idle_cycles += o.core_idle_cycles;
    return *this;
}

GpuModel::GpuModel(const GpuConfig &cfg, func::Interpreter &interp)
    : cfg_(cfg), interp_(&interp)
{
    for (unsigned c = 0; c < cfg_.num_cores; c++)
        cores_.push_back(std::make_unique<ShaderCore>(c, cfg_, interp));
    for (unsigned p = 0; p < cfg_.num_partitions; p++)
        partitions_.push_back(std::make_unique<MemPartition>(cfg_, p));
    totals_base_ = snapshot();
}

GpuModel::~GpuModel() = default;

bool
GpuModel::anythingInFlight() const
{
    for (const auto &core : cores_)
        if (core->busy())
            return true;
    for (const auto &part : partitions_)
        if (part->busy())
            return true;
    return !to_partition_.empty() || !to_core_.empty();
}

void
GpuModel::cycleOnce(cycle_t now, stats::AerialSampler *sampler)
{
    // 1. Shader cores (issue + writeback), then each core's outgoing
    //    requests enter the crossbar (per-partition acceptance below models
    //    the bandwidth limit). Cores are independent within a cycle, so each
    //    one's activity is sampled just before it steps. A quiet core is not
    //    stepped; its schedulers' Idle slots are booked in one bulk add.
    uint64_t quiet = 0;
    for (auto &core : cores_) {
        if (core->liveWarps())
            totals_.core_active_cycles++;
        else
            totals_.core_idle_cycles++;
        if (core->quiet())
            quiet++;
        else
            core->cycle(now, sampler);

        unsigned moved = 0;
        while (core->hasOutgoing() && moved < 2) {
            MemFetch mf = core->popOutgoing();
            mf.partition = unsigned((mf.line_addr / cfg_.l2.line_bytes) %
                                    cfg_.num_partitions);
            totals_.icnt_flits += (mf.bytes + 31) / 32;
            to_partition_.push(std::move(mf), now + cfg_.icnt_latency);
            moved++;
        }
    }
    if (sampler && quiet)
        sampler->recordStalls(stats::StallKind::Idle,
                              quiet * cfg_.schedulers_per_core);

    // 2. Interconnect -> partitions.
    while (to_partition_.ready(now)) {
        MemFetch mf = to_partition_.pop();
        partitions_[mf.partition]->pushRequest(std::move(mf));
    }

    // 3. Partitions (L2 + DRAM), response collection, bank sampling. An idle
    //    partition's step is a no-op, and a quiet channel's banks are
    //    neither pending nor transferring, so sampling them adds nothing.
    for (unsigned p = 0; p < partitions_.size(); p++) {
        MemPartition &part = *partitions_[p];
        if (!part.busy())
            continue;
        part.cycle(now);
        unsigned moved = 0;
        while (part.hasResponse() && moved < 2) {
            MemFetch mf = part.popResponse();
            totals_.icnt_flits += (mf.bytes + 31) / 32;
            to_core_.push(std::move(mf), now + cfg_.icnt_latency);
            moved++;
        }
        const DramChannel &dram = part.dram();
        if (sampler && !dram.quiet(now)) {
            for (unsigned b = 0; b < cfg_.dram_banks; b++)
                sampler->recordBank(p * cfg_.dram_banks + b,
                                    dram.bankTransferring(b, now),
                                    dram.bankPending(b));
        }
    }

    // 4. Interconnect -> cores.
    while (to_core_.ready(now)) {
        const MemFetch mf = to_core_.pop();
        cores_[mf.core_id]->pushResponse(mf, now);
    }

    if (sampler)
        sampler->endCycle();
}

std::vector<uint64_t>
GpuModel::perBankRowHits() const
{
    std::vector<uint64_t> out;
    for (const auto &p : partitions_)
        for (unsigned b = 0; b < cfg_.dram_banks; b++)
            out.push_back(p->dram().bankRowHits(b));
    return out;
}

std::vector<uint64_t>
GpuModel::perBankRowMisses() const
{
    std::vector<uint64_t> out;
    for (const auto &p : partitions_)
        for (unsigned b = 0; b < cfg_.dram_banks; b++)
            out.push_back(p->dram().bankRowMisses(b));
    return out;
}

GpuModel::StatBase
GpuModel::snapshot() const
{
    StatBase b;
    for (const auto &core : cores_) {
        b.l1_h += core->l1().hits();
        b.l1_m += core->l1().misses();
        b.core.push_back(core->counters());
    }
    for (const auto &p : partitions_) {
        b.l2_h += p->l2().hits();
        b.l2_m += p->l2().misses();
        b.row_h += p->dram().rowHits();
        b.row_m += p->dram().rowMisses();
        b.l2_wb += p->l2Writebacks();
    }
    b.icnt = totals_.icnt_flits;
    b.busy = totals_.cycles;
    b.active = totals_.core_active_cycles;
    b.idle = totals_.core_idle_cycles;
    return b;
}

uint64_t
GpuModel::beginKernel(const func::LaunchEnv &env, const Dim3 &grid,
                      const Dim3 &block, cycle_t not_before,
                      uint64_t skip_ctas,
                      std::vector<std::unique_ptr<func::CtaExec>> preloaded)
{
    MLGS_REQUIRE(env.kernel, "beginKernel without a kernel");

    auto ak = std::make_unique<ActiveKernel>();
    ak->token = next_token_++;
    ak->env = env;
    ak->env.launch_seq = next_launch_seq_++;
    ak->not_before = not_before;

    KernelDispatch &disp = ak->disp;
    disp.env = &ak->env;
    disp.grid = grid;
    disp.block = block;
    disp.threads_per_cta = unsigned(block.count());
    disp.warps_per_cta = (disp.threads_per_cta + kWarpSize - 1) / kWarpSize;
    disp.shared_bytes_per_cta = env.kernel->shared_bytes;
    disp.total_ctas = grid.count();
    disp.next_cta = std::min<uint64_t>(skip_ctas, disp.total_ctas);
    disp.completed_ctas = disp.next_cta;
    disp.preload_base = skip_ctas;
    disp.preloaded = std::move(preloaded);
    disp.regs = KernelRegUse(*env.kernel);

    MLGS_REQUIRE(disp.threads_per_cta <= cfg_.max_threads_per_core,
                 "CTA larger than a core's thread capacity");
    MLGS_REQUIRE(disp.shared_bytes_per_cta <= cfg_.shared_mem_per_core,
                 "CTA shared memory exceeds the core's capacity");

    last_progress_clock_ = clock_;
    active_.push_back(std::move(ak));
    return active_.back()->token;
}

KernelCompletion
GpuModel::finishActive(size_t idx)
{
    ActiveKernel &ak = *active_[idx];
    const StatBase now = snapshot();

    KernelRunStats rs;
    rs.kernel_name = ak.env.kernel->name;
    rs.cycles = clock_ - ak.start_clock;
    for (unsigned c = 0; c < cores_.size(); c++) {
        const CoreCounters &cc = now.core[c];
        const CoreCounters &c0 = ak.base.core[c];
        rs.warp_instructions += cc.issued_instructions - c0.issued_instructions;
        rs.thread_instructions +=
            cc.thread_instructions - c0.thread_instructions;
    }
    rs.ipc = rs.cycles ? double(rs.warp_instructions) / double(rs.cycles) : 0.0;
    const uint64_t dl1h = now.l1_h - ak.base.l1_h;
    const uint64_t dl1m = now.l1_m - ak.base.l1_m;
    rs.l1_hit_rate = (dl1h + dl1m) ? double(dl1h) / double(dl1h + dl1m) : 0.0;
    const uint64_t dl2h = now.l2_h - ak.base.l2_h;
    const uint64_t dl2m = now.l2_m - ak.base.l2_m;
    rs.l2_hit_rate = (dl2h + dl2m) ? double(dl2h) / double(dl2h + dl2m) : 0.0;
    const uint64_t drh = now.row_h - ak.base.row_h;
    const uint64_t drm = now.row_m - ak.base.row_m;
    rs.dram_row_hit_rate = (drh + drm) ? double(drh) / double(drh + drm) : 0.0;

    // Full window delta (per-launch breakdown + sampling extrapolation).
    rs.start_cycle = ak.start_clock;
    TimingTotals &w = rs.totals;
    w.cycles = now.busy - ak.base.busy;
    w.warp_instructions = rs.warp_instructions;
    w.thread_instructions = rs.thread_instructions;
    for (unsigned c = 0; c < cores_.size(); c++) {
        const CoreCounters &cc = now.core[c];
        const CoreCounters &c0 = ak.base.core[c];
        w.alu += cc.alu - c0.alu;
        w.sfu += cc.sfu - c0.sfu;
        w.mem_insts += cc.mem - c0.mem;
        w.shared_accesses += cc.shared_accesses - c0.shared_accesses;
    }
    w.l1_hits = dl1h;
    w.l1_misses = dl1m;
    w.l2_hits = dl2h;
    w.l2_misses = dl2m;
    w.icnt_flits = now.icnt - ak.base.icnt;
    w.dram_reads = dl2m;
    w.dram_writes = now.l2_wb - ak.base.l2_wb;
    w.dram_row_hits = drh;
    w.dram_row_misses = drm;
    w.core_active_cycles = now.active - ak.base.active;
    w.core_idle_cycles = now.idle - ak.base.idle;

    // Grand totals accumulate the delta since the previous accumulation
    // point, so overlapping kernels never double-count an event.
    for (unsigned c = 0; c < cores_.size(); c++) {
        const CoreCounters &cc = now.core[c];
        const CoreCounters &c0 = totals_base_.core[c];
        totals_.warp_instructions +=
            cc.issued_instructions - c0.issued_instructions;
        totals_.thread_instructions +=
            cc.thread_instructions - c0.thread_instructions;
        totals_.alu += cc.alu - c0.alu;
        totals_.sfu += cc.sfu - c0.sfu;
        totals_.mem_insts += cc.mem - c0.mem;
        totals_.shared_accesses += cc.shared_accesses - c0.shared_accesses;
    }
    totals_.l1_hits += now.l1_h - totals_base_.l1_h;
    totals_.l1_misses += now.l1_m - totals_base_.l1_m;
    totals_.l2_hits += now.l2_h - totals_base_.l2_h;
    totals_.l2_misses += now.l2_m - totals_base_.l2_m;
    totals_.dram_reads += now.l2_m - totals_base_.l2_m;
    totals_.dram_writes += now.l2_wb - totals_base_.l2_wb;
    totals_.dram_row_hits += now.row_h - totals_base_.row_h;
    totals_.dram_row_misses += now.row_m - totals_base_.row_m;
    totals_base_ = now;

    const KernelCompletion comp{ak.token, clock_};
    per_launch_.push_back(rs);
    finished_.emplace(ak.token, std::move(rs));
    active_.erase(active_.begin() + long(idx));
    last_progress_clock_ = clock_;
    return comp;
}

std::optional<KernelCompletion>
GpuModel::advanceUntil(cycle_t limit, stats::AerialSampler *sampler)
{
    while (!active_.empty()) {
        // Mark kernels whose start time has arrived as started.
        for (auto &ak : active_) {
            if (!ak->started && clock_ >= ak->not_before) {
                ak->started = true;
                ak->start_clock = clock_;
                ak->base = snapshot();
            }
        }

        // Retire the earliest-launched finished kernel. A lone kernel also
        // waits for the pipeline to drain, preserving the classic
        // one-kernel-at-a-time cycle accounting exactly.
        for (size_t i = 0; i < active_.size(); i++) {
            ActiveKernel &ak = *active_[i];
            if (ak.started && ak.disp.allDone() &&
                (active_.size() > 1 || !anythingInFlight()))
                return finishActive(i);
        }

        // Fully idle gap: every resident kernel is still waiting for its
        // start time — jump the clock instead of simulating empty cycles.
        bool any_started = false;
        cycle_t next_start = kNoDeadline;
        for (const auto &ak : active_) {
            if (ak->started)
                any_started = true;
            else
                next_start = std::min(next_start, ak->not_before);
        }
        if (!any_started && next_start > clock_ && !anythingInFlight()) {
            if (next_start > limit) {
                clock_ = limit;
                last_progress_clock_ = clock_;
                return std::nullopt;
            }
            clock_ = next_start;
            last_progress_clock_ = clock_;
            continue;
        }

        if (clock_ >= limit)
            return std::nullopt;

        // Leftover-core CTA dispatch: kernels claim free core slots in
        // launch order, so a later kernel fills whatever an earlier one
        // leaves unoccupied.
        for (auto &core : cores_) {
            for (auto &ak : active_) {
                if (!ak->started)
                    continue;
                while (!ak->disp.allIssued() && core->tryIssueCta(ak->disp)) {
                }
            }
        }

        cycleOnce(clock_, sampler);
        totals_.cycles++;
        clock_++;

        uint64_t completed = 0;
        for (const auto &ak : active_)
            completed += ak->disp.completed_ctas;
        if (completed != last_completed_sum_) {
            last_completed_sum_ = completed;
            last_progress_clock_ = clock_;
        }
        MLGS_ASSERT(clock_ - last_progress_clock_ < 10'000'000,
                    "timing model made no progress for 10M cycles in kernel ",
                    active_.front()->env.kernel->name);
    }
    return std::nullopt;
}

KernelRunStats
GpuModel::collectKernel(uint64_t token)
{
    const auto it = finished_.find(token);
    MLGS_REQUIRE(it != finished_.end(),
                 "collectKernel: token not finished: ", token);
    KernelRunStats rs = std::move(it->second);
    finished_.erase(it);
    return rs;
}

KernelRunStats
GpuModel::runKernel(const func::LaunchEnv &env, const Dim3 &grid,
                    const Dim3 &block, stats::AerialSampler *sampler)
{
    return runKernelFrom(env, grid, block, 0, {}, sampler);
}

KernelRunStats
GpuModel::runKernelFrom(const func::LaunchEnv &env, const Dim3 &grid,
                        const Dim3 &block, uint64_t skip_ctas,
                        std::vector<std::unique_ptr<func::CtaExec>>
                            preloaded_ctas,
                        stats::AerialSampler *sampler)
{
    MLGS_REQUIRE(active_.empty(),
                 "runKernelFrom requires an idle device (",
                 active_.size(), " kernels resident)");
    const uint64_t token = beginKernel(env, grid, block, clock_, skip_ctas,
                                       std::move(preloaded_ctas));
    const auto comp = advanceUntil(kNoDeadline, sampler);
    MLGS_REQUIRE(comp && comp->token == token, "kernel did not complete");
    return collectKernel(token);
}

} // namespace mlgs::timing
