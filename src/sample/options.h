/**
 * @file
 * Sampled fast-forward timing configuration. The performance model can run
 * every launch through the cycle-level GpuModel (Detailed), or cluster
 * launches by signature and cycle-simulate only cluster representatives
 * (Sampled), or additionally predict cycles for never-before-seen clusters
 * with a runtime-fitted ridge regression (Predicted). Selection order: an
 * explicit ContextOptions choice wins, then the
 * MLGS_TIMING environment variable ("detailed" / "sampled" / "predicted"),
 * then the default (Detailed — the cycle model stays bitwise-unchanged
 * unless sampling is asked for).
 */
#ifndef MLGS_SAMPLE_OPTIONS_H
#define MLGS_SAMPLE_OPTIONS_H

#include <cstdint>
#include <optional>
#include <string>

namespace mlgs::sample
{

/** How kernel launches are timed in performance mode. */
enum class TimingMode : uint8_t
{
    Auto,      ///< resolve from MLGS_TIMING, default Detailed
    Detailed,  ///< every launch through the cycle model (ground truth)
    Sampled,   ///< representatives detailed, members extrapolated
    Predicted, ///< Sampled + ridge-regression cycles for unseen clusters
};

/** Resolve Auto via MLGS_TIMING; explicit requests pass through unchanged. */
TimingMode resolveTimingMode(TimingMode requested);

/** Printable mode name ("detailed" / "sampled" / "predicted" / "auto"). */
const char *timingModeName(TimingMode mode);

/** Parse a CLI/env spelling; nullopt if unrecognized. */
std::optional<TimingMode> parseTimingMode(const std::string &name);

/** Knobs of the sampled/predicted timing modes. */
struct SamplingOptions
{
    /**
     * Detailed (cycle-simulated) launches required per cluster before
     * members fast-forward. The first representative is always detailed;
     * values > 1 buy real per-cluster error bars at the cost of speed.
     */
    unsigned detailed_per_cluster = 1;

    /**
     * Max launches a cluster may absorb; once exceeded, further members are
     * routed detailed. 1 disables clustering entirely (every launch
     * detailed — bitwise-identical to TimingMode::Detailed); 0 = unlimited.
     */
    unsigned max_cluster_size = 0;

    /**
     * Re-simulate every Nth cluster member in detail (0 = off). Refreshes
     * the representative's statistics and widens the error-bar sample.
     */
    unsigned redetail_period = 0;

    // ---- Predicted mode ----
    /** Min detailed launches observed before the predictor may fit. */
    unsigned predictor_min_train = 12;
    /** Ridge regularization strength (normal equations diagonal). */
    double predictor_lambda = 1e-3;
    /**
     * Leave-one-out cross-validated mean relative cycle error above which
     * the fitted model is rejected (every launch falls back to Detailed).
     */
    double predictor_max_cv_rel_err = 0.35;
    /**
     * Fractional slack added to the per-feature training min/max envelope;
     * launches whose features fall outside it fall back to Detailed.
     */
    double predictor_envelope_slack = 0.10;
};

} // namespace mlgs::sample

#endif // MLGS_SAMPLE_OPTIONS_H
