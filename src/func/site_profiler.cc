/**
 * @file
 * SiteProfiler: measured transactions-per-warp-access and bank-conflict
 * degrees per memory pc (site_profiler.h). The transaction rule is the
 * timing model's (ShaderCore::issueWarp): one transaction per distinct
 * line_bytes-aligned line, straddles touching both lines. The bank rule is
 * the one perf-lint predicts: words of bank_bytes, bank = word % banks,
 * degree = max distinct words on one bank, same-word lanes broadcast.
 */
#include <bit>
#include <set>
#include <sstream>

#include "func/site_profiler.h"

namespace mlgs::func
{

std::string
SiteProfiler::key(const std::string &kernel, const Dim3 &block)
{
    std::ostringstream os;
    os << kernel << "@" << block.x << "x" << block.y << "x" << block.z;
    return os.str();
}

void
SiteProfiler::finishStep(const std::string &kernel, const Dim3 &block,
                         const WarpStepResult &res)
{
    if (!res.ins) {
        shared_lanes_.clear();
        return;
    }
    const bool has_global = [&] {
        for (const MemAccess &a : res.memAccesses())
            if (a.space == ptx::Space::Global)
                return true;
        return false;
    }();
    if (!has_global && shared_lanes_.empty())
        return;

    KernelSites *ks = nullptr;
    {
        auto [it, inserted] = kernels_.try_emplace(key(kernel, block));
        ks = &it->second;
        if (inserted) {
            ks->kernel = kernel;
            ks->block = block;
        }
    }
    const bool full = std::popcount(uint64_t(res.active)) == 32;

    if (has_global) {
        const addr_t lmask = ~addr_t(line_bytes_ - 1);
        std::set<addr_t> lines;
        bool is_store = false, is_atomic = false;
        unsigned width = 0;
        for (const MemAccess &a : res.memAccesses()) {
            if (a.space != ptx::Space::Global)
                continue;
            lines.insert(a.addr & lmask);
            lines.insert((a.addr + a.size - 1) & lmask);
            is_store |= a.is_store;
            is_atomic |= a.is_atomic;
            width = a.size;
        }
        GlobalSiteStats &g = ks->globals[res.pc];
        g.accesses++;
        g.transactions += lines.size();
        if (full) {
            g.full_accesses++;
            g.full_transactions += lines.size();
        }
        g.is_store = is_store;
        g.is_atomic = is_atomic;
        g.width = width;
    }

    if (!shared_lanes_.empty()) {
        std::map<addr_t, std::set<addr_t>> bank_words;
        std::set<addr_t> words;
        unsigned width = 0;
        for (const Lane &l : shared_lanes_) {
            const addr_t first = l.addr / bank_bytes_;
            const addr_t last = (l.addr + l.bytes - 1) / bank_bytes_;
            for (addr_t w = first; w <= last; w++) {
                bank_words[w % banks_].insert(w);
                words.insert(w);
            }
            width = l.bytes;
        }
        unsigned degree = 1;
        for (const auto &[bank, bw] : bank_words)
            degree = std::max(degree, unsigned(bw.size()));
        SharedSiteStats &s = ks->shared[res.pc];
        s.accesses++;
        s.degree_sum += degree;
        if (full) {
            s.full_accesses++;
            s.full_degree_sum += degree;
        }
        s.max_degree = std::max(s.max_degree, degree);
        if (shared_lanes_.size() > 1 && words.size() == 1)
            s.broadcasts++;
        s.is_store = res.ins->op != ptx::Op::Ld;
        s.width = width;
        shared_lanes_.clear();
    }
}

} // namespace mlgs::func
