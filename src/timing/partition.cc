#include "timing/partition.h"

#include "common/log.h"

namespace mlgs::timing
{

MemPartition::MemPartition(const GpuConfig &cfg, unsigned id)
    : cfg_(&cfg), id_(id), l2_(cfg.l2), dram_(cfg, id)
{
}

void
MemPartition::cycle(cycle_t now)
{
    // 1. Accept one request per cycle from the interconnect side.
    if (!incoming_.empty()) {
        MemFetch mf = std::move(incoming_.front());
        incoming_.pop_front();

        if (mf.is_write && !mf.is_atomic) {
            // Write-through towards DRAM; no response needed.
            l2_.accessWrite(mf.line_addr, now);
            writes_seen_++;
            dram_.push(std::move(mf));
        } else {
            switch (l2_.accessRead(mf.line_addr, now)) {
              case CacheOutcome::Hit:
                inflight_++;
                l2_hit_pipe_.push(std::move(mf), now + cfg_->l2.hit_latency);
                break;
              case CacheOutcome::Miss:
                inflight_++;
                waiters_[mf.line_addr].push_back(mf);
                dram_.push(std::move(mf));
                break;
              case CacheOutcome::MissMerged:
                inflight_++;
                waiters_[mf.line_addr].push_back(std::move(mf));
                break;
              case CacheOutcome::ReservationFail:
                incoming_.push_front(std::move(mf)); // retry next cycle
                break;
            }
        }
    }

    // 2. DRAM.
    dram_.cycle(now);
    while (dram_.hasDone(now)) {
        MemFetch mf = dram_.popDone();
        if (mf.is_write && !mf.is_atomic)
            continue; // write-through completes silently
        l2_.fill(mf.line_addr, now);
        const auto it = waiters_.find(mf.line_addr);
        if (it != waiters_.end()) {
            for (auto &w : it->second) {
                inflight_--;
                responses_.push_back(std::move(w));
            }
            waiters_.erase(it);
        }
    }

    // 3. L2 hits maturing.
    while (l2_hit_pipe_.ready(now)) {
        inflight_--;
        responses_.push_back(l2_hit_pipe_.pop());
    }
}

MemFetch
MemPartition::popResponse()
{
    MemFetch mf = std::move(responses_.front());
    responses_.pop_front();
    return mf;
}

} // namespace mlgs::timing
