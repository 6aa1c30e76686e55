/**
 * @file
 * Inter-GPU interconnect model. The Fabric owns one directed link per
 * ordered device pair and serializes peer-to-peer transfers on each link:
 * a transfer occupies its link for ceil(bytes / bytes_per_cycle) cycles
 * starting no earlier than both the requester's ready time and the moment
 * the link last went idle, then lands after a fixed pipelined latency.
 * All arithmetic is integral device cycles, and reservations are made in
 * host API order on the calling thread, so link timing is
 * bitwise-deterministic.
 */
#ifndef MLGS_LINK_FABRIC_H
#define MLGS_LINK_FABRIC_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mlgs::link
{

/** Per-directed-link shape of the interconnect. */
struct LinkConfig
{
    /** Payload throughput of one directed link, in bytes per core cycle. */
    double bytes_per_cycle = 16.0;
    /** Fixed propagation latency added after the occupancy window. */
    cycle_t latency = 600;
};

/** Cumulative per-directed-link counters. */
struct LinkStats
{
    uint64_t transfers = 0;
    uint64_t bytes = 0;
    uint64_t busy_cycles = 0;
};

class Fabric
{
  public:
    Fabric(int device_count, LinkConfig cfg);

    /**
     * Reserve the src->dst link for a transfer of `bytes` that cannot begin
     * before `earliest`. Returns the cycle the last byte arrives at dst.
     * The link is busy [start, start + duration); latency is pipelined on
     * top, so back-to-back transfers stream at full bandwidth.
     */
    cycle_t reserveTransfer(int src, int dst, size_t bytes, cycle_t earliest);

    int deviceCount() const { return device_count_; }
    const LinkConfig &config() const { return cfg_; }
    const LinkStats &stats(int src, int dst) const;

    /** Sum of byte counters over every directed link. */
    uint64_t totalBytes() const;

    /** Sum of transfer counters over every directed link. */
    uint64_t totalTransfers() const;

  private:
    struct Link
    {
        cycle_t busy_until = 0;
        LinkStats stats;
    };

    size_t index(int src, int dst) const;

    int device_count_;
    LinkConfig cfg_;
    std::vector<Link> links_;
};

} // namespace mlgs::link

#endif // MLGS_LINK_FABRIC_H
