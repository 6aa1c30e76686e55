/**
 * @file
 * Execution-coverage map over instruction handler variants, supporting the
 * "differential coverage analysis" debugging technique from Section III-D:
 * comparing which opcode/type variants two workloads exercise localizes
 * functional-simulator code paths only reached by the failing workload.
 *
 * Counts are keyed by the per-Instr interned variant id assigned by
 * analyzeKernel, so the per-warp-instruction hot path is a vector increment;
 * mnemonic strings are materialized only when counts()/diff() are called.
 */
#ifndef MLGS_FUNC_COVERAGE_H
#define MLGS_FUNC_COVERAGE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ptx/ir.h"

namespace mlgs::func
{

/** Counts executed instruction variants, keyed by interned variant id. */
class CoverageMap
{
  public:
    void
    hit(uint32_t variant_id)
    {
        if (variant_id == ptx::kNoVariant)
            return; // instruction never went through analyzeKernel
        if (variant_id >= counts_.size())
            counts_.resize(variant_id + 1, 0);
        counts_[variant_id]++;
    }

    /** Convenience for tests/tools seeding a map by mnemonic text. */
    void hit(const std::string &variant) { hit(ptx::internVariant(variant)); }

    /** Materialize mnemonic-keyed counts (diagnostics; not the hot path). */
    std::map<std::string, uint64_t>
    counts() const
    {
        std::map<std::string, uint64_t> out;
        for (uint32_t id = 0; id < counts_.size(); id++)
            if (counts_[id] > 0)
                out.emplace(ptx::variantName(id), counts_[id]);
        return out;
    }

    /** Variants present in this map but absent from base (sorted). */
    std::vector<std::string>
    diff(const CoverageMap &base) const
    {
        std::vector<std::string> only;
        for (uint32_t id = 0; id < counts_.size(); id++)
            if (counts_[id] > 0 &&
                (id >= base.counts_.size() || base.counts_[id] == 0))
                only.push_back(ptx::variantName(id));
        std::sort(only.begin(), only.end());
        return only;
    }

    void clear() { counts_.clear(); }

  private:
    std::vector<uint64_t> counts_;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_COVERAGE_H
