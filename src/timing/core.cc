#include "timing/core.h"

#include <algorithm>

namespace mlgs::timing
{

using func::MemAccess;
using func::WarpStepResult;
using ptx::Op;

namespace
{

/** Set the scoreboard bits of an instruction's destination registers. */
void
markDests(std::vector<uint64_t> &bits, const ptx::Instr &ins)
{
    for (const int r : ins.dst_regs)
        bits[size_t(r) / 64] |= uint64_t(1) << (unsigned(r) % 64);
}

/** Highest set bit of a non-zero mask. */
unsigned
topBit(uint64_t m)
{
    return 63u - unsigned(__builtin_clzll(m));
}

} // namespace

KernelRegUse::KernelRegUse(const ptx::KernelDef &k)
{
    size_t nregs = k.reg_types.size();
    pcs.resize(k.instrs.size());
    for (size_t pc = 0; pc < k.instrs.size(); pc++) {
        const ptx::Instr &ins = k.instrs[pc];
        Pc &p = pcs[pc];
        p.first = uint32_t(masks.size());
        p.exit = ins.isExit();
        p.mem = ins.isMemAccess();
        auto add = [&](int r) {
            MLGS_ASSERT(r >= 0, "negative register id in ", k.name);
            nregs = std::max(nregs, size_t(r) + 1);
            const uint32_t word = uint32_t(r) / 64;
            const uint64_t bit = uint64_t(1) << (unsigned(r) % 64);
            for (size_t i = p.first; i < masks.size(); i++)
                if (masks[i].word == word) {
                    masks[i].bits |= bit;
                    return;
                }
            masks.push_back({word, bit});
        };
        for (const int r : ins.src_regs)
            add(r);
        for (const int r : ins.dst_regs)
            add(r);
        p.count = uint32_t(masks.size()) - p.first;
    }
    words = unsigned((nregs + 63) / 64);
}

ShaderCore::ShaderCore(unsigned id, const GpuConfig &cfg,
                       func::Interpreter &interp)
    : id_(id), cfg_(&cfg), interp_(&interp), l1_(cfg.l1)
{
    MLGS_REQUIRE(cfg.schedulers_per_core > 0 &&
                     cfg.max_warps_per_core <= 64 * cfg.schedulers_per_core,
                 "a warp scheduler owns at most 64 warp slots (",
                 cfg.max_warps_per_core, " warps, ", cfg.schedulers_per_core,
                 " schedulers)");
    cta_slots_.resize(cfg.max_ctas_per_core);
    warps_.resize(cfg.max_warps_per_core);
    sched_.resize(cfg.schedulers_per_core);
    for (unsigned slot = 0; slot < warps_.size(); slot++) {
        WarpSlot &w = warps_[slot];
        w.sched = slot % cfg.schedulers_per_core;
        w.bit = uint64_t(1) << sched_[w.sched].size++;
    }

    // The longest writeback latency issueWarp charges (integer div: 2x SFU).
    const unsigned max_latency =
        std::max({cfg.alu_latency, cfg.sfu_latency * 2, cfg.shared_latency,
                  cfg.l1.hit_latency});
    size_t wheel = 1;
    while (wheel <= max_latency)
        wheel *= 2;
    wb_wheel_.resize(wheel);
}

void
ShaderCore::pushWriteback(const Writeback &wb, cycle_t now, cycle_t ready_at)
{
    // Pushed during cycle `now`, a writeback retires at the earliest in the
    // next cycle's retire step.
    const cycle_t at = std::max(ready_at, now + 1);
    MLGS_ASSERT(at - now <= wb_wheel_.size(), "writeback latency ",
                at - now, " exceeds the wheel");
    wb_wheel_[at & (wb_wheel_.size() - 1)].push_back(wb);
    wb_count_++;
}

bool
ShaderCore::tryIssueCta(KernelDispatch &disp)
{
    if (disp.allIssued())
        return false;

    if (used_threads_ + disp.threads_per_cta > cfg_->max_threads_per_core)
        return false;
    if (used_ctas_ + 1 > cfg_->max_ctas_per_core)
        return false;
    if (used_shared_ + disp.shared_bytes_per_cta > cfg_->shared_mem_per_core)
        return false;

    // Every valid warp slot holds a live warp.
    if (warps_.size() - live_warps_total_ < disp.warps_per_cta)
        return false;

    int cta_idx = -1;
    for (size_t i = 0; i < cta_slots_.size(); i++) {
        if (!cta_slots_[i].cta) {
            cta_idx = int(i);
            break;
        }
    }
    if (cta_idx < 0)
        return false;

    const uint64_t linear = disp.next_cta++;
    const Dim3 cta_id = unflatten(linear, disp.grid);
    CtaSlot &cs = cta_slots_[size_t(cta_idx)];
    const uint64_t pidx = linear - disp.preload_base;
    if (linear >= disp.preload_base && pidx < disp.preloaded.size() &&
        disp.preloaded[pidx]) {
        cs.cta = std::move(disp.preloaded[pidx]); // checkpoint-restored state
    } else {
        cs.cta = std::make_unique<func::CtaExec>(
            *disp.env->kernel, disp.grid, disp.block, cta_id,
            /*alloc_state=*/!interp_->warpStreamReplayActive());
    }
    cs.disp = &disp;
    // The lowest-numbered free warp slots, in order.
    for (unsigned w = 0; cs.warp_slots.size() < disp.warps_per_cta; w++)
        if (!warps_[w].valid)
            cs.warp_slots.push_back(w);
    cs.live_warps = 0;
    for (unsigned w = 0; w < cs.cta->numWarps(); w++)
        if (!cs.cta->warpDone(w))
            cs.live_warps++;

    MLGS_ASSERT(cs.cta->numWarps() == disp.warps_per_cta, "warp count mismatch");
    for (unsigned i = 0; i < disp.warps_per_cta; i++) {
        WarpSlot &w = warps_[cs.warp_slots[i]];
        w.valid = !cs.cta->warpDone(i); // restored CTAs may have done warps
        w.cta_slot = cta_idx;
        w.warp_in_cta = i;
        w.busy.assign(disp.regs.words, 0);
        w.mem_dest.assign(disp.regs.words, 0);
        w.pending_loads = 0;
        w.last_issue = 0;
        w.regs = &disp.regs;
        updateWarp(cs.warp_slots[i]);
    }
    barrier_check_ = true; // a restored CTA may resume mid-barrier

    used_threads_ += disp.threads_per_cta;
    used_shared_ += disp.shared_bytes_per_cta;
    used_ctas_++;
    live_warps_total_ += cs.live_warps;
    completeCtaIfDone(cta_idx); // restored CTA may already be finished
    return true;
}

void
ShaderCore::updateWarp(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    SchedState &sc = sched_[w.sched];
    sc.valid &= ~w.bit;
    sc.eligible &= ~w.bit;
    sc.mem &= ~w.bit;
    if (!w.valid) {
        sc.hazard &= ~w.bit;
        sc.pending_full &= ~w.bit;
        return;
    }
    sc.valid |= w.bit;
    const func::CtaExec &cta = *cta_slots_[size_t(w.cta_slot)].cta;
    if (!cta.warpAtBarrier(w.warp_in_cta))
        sc.eligible |= w.bit;
    w.next = &w.regs->pcs[cta.stack(w.warp_in_cta).pc()];
    if (w.next->mem)
        sc.mem |= w.bit;
    updateHazard(w);
}

void
ShaderCore::updateHazard(const WarpSlot &w)
{
    SchedState &sc = sched_[w.sched];
    const KernelRegUse::Pc &u = *w.next;
    bool hazard = u.exit && w.pending_loads > 0;
    const KernelRegUse::WordMask *m = w.regs->masks.data() + u.first;
    for (uint32_t i = 0; !hazard && i < u.count; i++)
        hazard = (w.busy[m[i].word] & m[i].bits) != 0;
    const bool full = !hazard && u.mem &&
                      w.pending_loads >= cfg_->max_pending_loads_per_warp;
    sc.hazard = hazard ? sc.hazard | w.bit : sc.hazard & ~w.bit;
    sc.pending_full = full ? sc.pending_full | w.bit : sc.pending_full & ~w.bit;
}

void
ShaderCore::loadPartDone(unsigned slot)
{
    WarpSlot &w = warps_[slot];
    if (!w.valid || w.pending_loads == 0)
        return;
    if (--w.pending_loads == 0) {
        // Every load of the warp has drained: release their destinations.
        for (size_t i = 0; i < w.busy.size(); i++) {
            w.busy[i] &= ~w.mem_dest[i];
            w.mem_dest[i] = 0;
        }
    }
    // Fewer pending loads and fewer busy bits can only lift a block.
    const SchedState &sc = sched_[w.sched];
    if ((sc.hazard | sc.pending_full) & w.bit)
        updateHazard(w);
}

void
ShaderCore::retire(const Writeback &wb)
{
    if (!wb.ins) {
        loadPartDone(wb.warp);
        return;
    }
    WarpSlot &w = warps_[wb.warp];
    if (!w.valid)
        return;
    // The slot may since hold a warp of another CTA (the issuing warp
    // exited); the writeback still clears these register ids there.
    for (const int r : wb.ins->dst_regs)
        if (size_t(r) / 64 < w.busy.size())
            w.busy[size_t(r) / 64] &= ~(uint64_t(1) << (unsigned(r) % 64));
    // Clearing scoreboard bits can only lift a data hazard.
    if (sched_[w.sched].hazard & w.bit)
        updateHazard(w);
}

void
ShaderCore::completeCtaIfDone(int cta_slot)
{
    CtaSlot &cs = cta_slots_[size_t(cta_slot)];
    if (!cs.cta || cs.live_warps > 0)
        return;
    used_threads_ -= cs.disp->threads_per_cta;
    used_shared_ -= cs.disp->shared_bytes_per_cta;
    used_ctas_--;
    cs.disp->completed_ctas++;
    counters_.ctas_completed++;
    cs.cta.reset();
    cs.disp = nullptr;
    cs.warp_slots.clear();
}

void
ShaderCore::issueWarp(unsigned slot, cycle_t now, stats::AerialSampler *sampler)
{
    WarpSlot &w = warps_[slot];
    CtaSlot &cs = cta_slots_[size_t(w.cta_slot)];
    const func::LaunchEnv &env = *cs.disp->env;

    interp_->stepWarp(*cs.cta, w.warp_in_cta, env, step_);
    const WarpStepResult &res = step_;
    w.last_issue = now;

    const unsigned lanes = unsigned(__builtin_popcount(res.active));
    counters_.issued_instructions++;
    counters_.thread_instructions += lanes;
    if (sampler)
        sampler->recordIssue(id_, lanes);

    const ptx::Instr &ins = *res.ins;
    switch (ins.op) {
      case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
      case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
        counters_.sfu++;
        break;
      case Op::Ld: case Op::St: case Op::Atom: case Op::Red: case Op::Tex:
        counters_.mem++;
        break;
      default:
        counters_.alu++;
        break;
    }

    if (res.exited) {
        w.valid = false;
        MLGS_ASSERT(w.pending_loads == 0, "warp exited with loads in flight");
        cs.live_warps--;
        live_warps_total_--;
        barrier_check_ = true; // the CTA's barrier may now be complete
        completeCtaIfDone(w.cta_slot);
        return;
    }
    if (res.barrier) {
        barrier_check_ = true; // warp now waits; release happens in cycle()
        return;
    }

    // Memory path.
    const std::span<const MemAccess> accesses = res.memAccesses();
    if (!accesses.empty()) {
        // Coalesce per-lane accesses into cache lines.
        const unsigned line = cfg_->l1.line_bytes;
        std::vector<addr_t> &lines = load_lines_;
        std::vector<addr_t> &store_lines = store_lines_;
        lines.clear();
        store_lines.clear();
        for (const auto &acc : accesses) {
            auto &list = acc.is_store ? store_lines : lines;
            const addr_t la = acc.addr & ~addr_t(line - 1);
            // Also cover accesses straddling a line boundary.
            const addr_t lb = (acc.addr + acc.size - 1) & ~addr_t(line - 1);
            if (std::find(list.begin(), list.end(), la) == list.end())
                list.push_back(la);
            if (lb != la &&
                std::find(list.begin(), list.end(), lb) == list.end())
                list.push_back(lb);
        }

        bool any_load_part = false;
        for (const addr_t la : lines) {
            switch (l1_.accessRead(la, now)) {
              case CacheOutcome::Hit:
                w.pending_loads++;
                any_load_part = true;
                pushWriteback(Writeback{slot, nullptr}, now,
                              now + cfg_->l1.hit_latency);
                break;
              case CacheOutcome::MissMerged:
                w.pending_loads++;
                any_load_part = true;
                l1_waiters_[la].push_back(slot);
                break;
              case CacheOutcome::Miss:
              case CacheOutcome::ReservationFail:
              default: {
                w.pending_loads++;
                any_load_part = true;
                MemFetch mf;
                mf.id = next_fetch_id_++;
                mf.line_addr = la;
                mf.bytes = line;
                mf.is_write = false;
                mf.is_atomic = ins.op == Op::Atom || ins.op == Op::Red;
                mf.core_id = id_;
                mf.warp_slot = int(slot);
                mf.created = now;
                out_queue_.push_back(std::move(mf));
                break;
              }
            }
        }
        for (const addr_t la : store_lines) {
            l1_.accessWrite(la, now);
            MemFetch mf;
            mf.id = next_fetch_id_++;
            mf.line_addr = la;
            mf.bytes = line;
            mf.is_write = true;
            mf.is_atomic = ins.op == Op::Atom || ins.op == Op::Red;
            mf.core_id = id_;
            mf.warp_slot = mf.is_atomic ? int(slot) : -1;
            mf.created = now;
            if (mf.is_atomic) {
                w.pending_loads++;
                any_load_part = true;
            }
            out_queue_.push_back(std::move(mf));
        }

        if (any_load_part) {
            markDests(w.busy, ins);
            markDests(w.mem_dest, ins);
        }
        return;
    }

    if (res.shared_accesses > 0) {
        counters_.shared_accesses += res.shared_accesses;
        if (!ins.dst_regs.empty()) {
            markDests(w.busy, ins);
            pushWriteback(Writeback{slot, &ins}, now,
                          now + cfg_->shared_latency);
        }
        return;
    }

    // Arithmetic path: fixed-latency writeback.
    if (!ins.dst_regs.empty()) {
        unsigned lat = cfg_->alu_latency;
        switch (ins.op) {
          case Op::Sin: case Op::Cos: case Op::Ex2: case Op::Lg2:
          case Op::Rcp: case Op::Rsqrt: case Op::Sqrt:
            lat = cfg_->sfu_latency;
            break;
          case Op::Div:
            lat = isFloat(ins.type) ? cfg_->sfu_latency
                                    : cfg_->sfu_latency * 2;
            break;
          case Op::Ld:
            // Param-space load resolved without a memory access.
            lat = cfg_->alu_latency;
            break;
          default:
            break;
        }
        markDests(w.busy, ins);
        pushWriteback(Writeback{slot, &ins}, now, now + lat);
    }
}

void
ShaderCore::cycle(cycle_t now, stats::AerialSampler *sampler)
{
    // 1. Retire matured writebacks.
    if (wb_count_) {
        auto &due = wb_wheel_[now & (wb_wheel_.size() - 1)];
        for (const Writeback &wb : due)
            retire(wb);
        wb_count_ -= due.size();
        due.clear();
    }

    // 2. Release completed barriers. Only an arrival, an exit or a CTA
    //    install can complete one, and each of those sets barrier_check_.
    if (barrier_check_) {
        barrier_check_ = false;
        for (auto &cs : cta_slots_) {
            if (cs.cta && cs.cta->barrierComplete()) {
                cs.cta->releaseBarrier();
                for (const unsigned slot : cs.warp_slots)
                    updateWarp(slot);
            }
        }
    }

    // 3. Schedulers issue.
    const bool gto = cfg_->sched_policy == SchedPolicy::GTO;
    const unsigned nsched = unsigned(sched_.size());
    for (unsigned s = 0; s < nsched; s++) {
        SchedState &sc = sched_[s];
        // The outgoing queue is shared, so an earlier scheduler's issue
        // this cycle can fill it.
        const uint64_t blocked = sc.hazard | sc.pending_full |
                                 (out_queue_.size() >= 256 ? sc.mem : 0);
        const uint64_t ready = sc.eligible & ~blocked;

        if (ready) {
            unsigned chosen = 0; // bit index
            if (gto) {
                // Greedy: stay on the last-issued warp while it is ready,
                // else take the oldest (smallest last-issue) ready warp.
                if (sc.last >= 0 && (ready >> sc.last) & 1) {
                    chosen = unsigned(sc.last);
                } else {
                    cycle_t best = ~cycle_t(0);
                    for (uint64_t m = ready; m; m &= m - 1) {
                        const unsigned i = unsigned(__builtin_ctzll(m));
                        const cycle_t issued = warps_[i * nsched + s].last_issue;
                        if (issued < best) {
                            best = issued;
                            chosen = i;
                        }
                    }
                }
            } else {
                // Loose round robin: first ready warp from the rotate point.
                const unsigned start = sc.rr % sc.size;
                const uint64_t from_start = ready & (~uint64_t(0) << start);
                chosen =
                    unsigned(__builtin_ctzll(from_start ? from_start : ready));
                sc.rr = (chosen + 1) % sc.size;
            }
            sc.last = int(chosen);
            const unsigned slot = chosen * nsched + s;
            issueWarp(slot, now, sampler);
            updateWarp(slot);
        } else if (sampler) {
            // The reason reported is that of the last eligible warp in the
            // policy's scan order: slot order for GTO, the rotation ending
            // just before the rotate point for LRR.
            stats::StallKind why = stats::StallKind::Idle;
            if (sc.valid && !sc.eligible) {
                why = stats::StallKind::Barrier;
            } else if (sc.eligible) {
                uint64_t order = sc.eligible;
                if (!gto) {
                    const uint64_t before =
                        sc.eligible & ((uint64_t(1) << (sc.rr % sc.size)) - 1);
                    if (before)
                        order = before;
                }
                why = (sc.hazard >> topBit(order)) & 1
                          ? stats::StallKind::DataHazard
                          : stats::StallKind::MemStructural;
            }
            sampler->recordStall(id_, why);
        }
    }
}

void
ShaderCore::pushResponse(const MemFetch &mf, cycle_t now)
{
    l1_.fill(mf.line_addr, now);

    if (mf.warp_slot >= 0)
        loadPartDone(unsigned(mf.warp_slot));
    const auto it = l1_waiters_.find(mf.line_addr);
    if (it != l1_waiters_.end()) {
        for (const unsigned slot : it->second)
            loadPartDone(slot);
        l1_waiters_.erase(it);
    }
}

MemFetch
ShaderCore::popOutgoing()
{
    MemFetch mf = std::move(out_queue_.front());
    out_queue_.pop_front();
    return mf;
}

bool
ShaderCore::busy() const
{
    return live_warps_total_ > 0 || !out_queue_.empty() || wb_count_ > 0;
}

} // namespace mlgs::timing
