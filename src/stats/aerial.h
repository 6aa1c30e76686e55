/**
 * @file
 * AerialVision-lite: time-bucketed performance counters that reproduce the
 * paper's plot types — per-bank DRAM efficiency/utilization, global and
 * per-shader IPC, and the warp-issue (divergence/stall) breakdown — with CSV
 * and terminal heat-map renderers.
 */
#ifndef MLGS_STATS_AERIAL_H
#define MLGS_STATS_AERIAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace mlgs::stats
{

/** Why a scheduler slot issued nothing this cycle. */
enum class StallKind : uint8_t
{
    Idle,          ///< no live warps on the core (W0)
    DataHazard,    ///< all candidate warps blocked by the scoreboard
    MemStructural, ///< load/store unit or queue full
    Barrier,       ///< all candidate warps waiting at bar.sync
    kCount,
};

/** One sampling bucket worth of aggregated counters. */
struct AerialBucket
{
    cycle_t start_cycle = 0;
    cycle_t cycles = 0;

    uint64_t instructions = 0;          ///< warp instructions issued (global)
    std::vector<uint64_t> core_instructions;  ///< per core
    std::vector<uint64_t> core_thread_instructions; ///< per core, lane-weighted

    /** Warp-issue histogram: index = active lanes (1..32); [0] unused. */
    std::vector<uint64_t> lane_histogram; ///< size 33
    /** Issue-slot stall counts by kind. */
    std::vector<uint64_t> stalls;         ///< size StallKind::kCount

    std::vector<uint64_t> bank_busy;      ///< cycles transferring, per bank
    std::vector<uint64_t> bank_pending;   ///< cycles with work queued, per bank
};

/** Collects per-cycle events into fixed-width cycle buckets. */
class AerialSampler
{
  public:
    AerialSampler(unsigned bucket_cycles, unsigned num_cores,
                  unsigned num_banks);

    unsigned numCores() const { return num_cores_; }
    unsigned numBanks() const { return num_banks_; }
    unsigned bucketCycles() const { return bucket_cycles_; }

    /** A warp instruction issued on a core with `lanes` active lanes. */
    void recordIssue(unsigned core, unsigned lanes);

    /** An issue slot on `core` produced nothing. */
    void
    recordStall(unsigned core, StallKind kind)
    {
        (void)core;
        current_.stalls[size_t(kind)]++;
    }

    /** `n` issue slots (on any cores) produced nothing, all for `kind`. */
    void
    recordStalls(StallKind kind, uint64_t n)
    {
        current_.stalls[size_t(kind)] += n;
    }

    /** DRAM bank status this cycle. */
    void recordBank(unsigned bank, bool transferring, bool has_pending);

    /** Advance time by one cycle (closes buckets on boundaries). */
    void endCycle();

    /** Flush the in-progress bucket (call after the run completes). */
    void finish();

    const std::vector<AerialBucket> &buckets() const { return buckets_; }

    /** Mean IPC over all buckets. */
    double globalIpc() const;

    /** Mean DRAM efficiency/utilization over all banks and buckets. */
    double meanDramEfficiency() const;
    double meanDramUtilization() const;

    /** Fraction of issue slots lost to a given stall kind. */
    double stallFraction(StallKind kind) const;

    // ---- rendering ----

    /** Write all series as CSV ("series,bucket0,bucket1,..."). */
    void writeCsv(const std::string &path) const;

    /** ASCII heat map of per-bank efficiency (rows = banks). */
    std::string renderBankHeatmap(bool utilization = false,
                                  unsigned max_cols = 100) const;

    /** ASCII line strip of global or per-core IPC. */
    std::string renderIpcStrip(unsigned max_cols = 100) const;
    std::string renderCoreHeatmap(unsigned max_cols = 100) const;

    /** ASCII stacked summary of the warp-issue breakdown. */
    std::string renderWarpBreakdown(unsigned max_cols = 100) const;

  private:
    AerialBucket makeBucket() const;
    void closeBucket();

    unsigned bucket_cycles_;
    unsigned num_cores_;
    unsigned num_banks_;

    cycle_t now_ = 0;
    AerialBucket current_;
    std::vector<AerialBucket> buckets_;
};

} // namespace mlgs::stats

#endif // MLGS_STATS_AERIAL_H
