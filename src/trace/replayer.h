/**
 * @file
 * TraceReplayer: re-drives a Context straight from a .mlgstrace file, with no
 * frontend (blas/cudnn/torchlet) code in the loop. Replay reproduces the
 * recorded run bit for bit: the deterministic first-fit allocator means the
 * replayed alloc/free sequence yields identical device addresses (asserted
 * op by op), so raw pointers inside recorded kernel parameter blocks stay
 * valid, and timing totals / DRAM bank statistics / AerialVision samples
 * match the live run exactly.
 */
#ifndef MLGS_TRACE_REPLAYER_H
#define MLGS_TRACE_REPLAYER_H

#include <string>

#include "func/warp_stream.h"
#include "runtime/context.h"
#include "trace/trace_format.h"

namespace mlgs::trace
{

/** Outcome counters of one replay pass. */
struct ReplayResult
{
    uint64_t ops = 0;
    uint64_t launches = 0;
    /** D2H bytes compared against the recorded payloads (all matched). */
    uint64_t verified_bytes = 0;
    /** Modules replayed as allocator effects only (source elided). */
    uint64_t modules_elided = 0;
};

class TraceReplayer
{
  public:
    explicit TraceReplayer(TraceFile trace) : trace_(std::move(trace)) {}

    static TraceReplayer
    fromFile(const std::string &path)
    {
        return TraceReplayer(TraceFile::load(path));
    }

    /**
     * ContextOptions reconstructed from the trace so a replay context is
     * configured exactly like the recorded one.
     */
    cuda::ContextOptions options() const;

    /**
     * Replay every op into `ctx` (which must be freshly constructed with
     * options() and have had no API activity). Recorded D2H payloads are
     * verified against replayed device contents; any divergence — address,
     * payload, or id mismatch — fails fatally with the offending op.
     */
    ReplayResult replay(cuda::Context &ctx) const;

    /**
     * Full-fidelity replay that additionally captures the run's warp
     * instruction streams into `capture` for later replayTimingOnly calls.
     */
    ReplayResult replayCapturing(cuda::Context &ctx,
                                 func::WarpStreamCache &capture) const;

    /**
     * Trace-driven timing replay: re-drives only the timing model from
     * previously captured warp streams — no functional interpretation, no
     * register or device-memory updates. Timing totals, DRAM bank stats and
     * AerialVision samples still match the live run bitwise; recorded D2H
     * payloads are NOT re-verified (verified_bytes stays 0). This is the
     * cheap path for replaying the same trace many times.
     */
    ReplayResult replayTimingOnly(cuda::Context &ctx,
                                  const func::WarpStreamCache &streams) const;

    const TraceFile &trace() const { return trace_; }

  private:
    ReplayResult replayImpl(cuda::Context &ctx,
                            func::WarpStreamCache *record,
                            const func::WarpStreamCache *streams) const;

    TraceFile trace_;
};

/**
 * Canonical end-of-run statistics as deterministic JSON: timing totals,
 * elapsed cycles, and per-bank DRAM row hits/misses. Byte-stable across
 * runs and builds, so CI can diff live vs replayed output bitwise.
 */
std::string statsJson(cuda::Context &ctx);

} // namespace mlgs::trace

#endif // MLGS_TRACE_REPLAYER_H
