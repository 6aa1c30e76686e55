/**
 * @file
 * Unit tests for the AerialVision-lite sampler, the power model, and the
 * hardware oracle's estimator math.
 */
#include <gtest/gtest.h>

#include "oracle/hw_oracle.h"
#include "power/power_model.h"
#include "sim_test_util.h"
#include "stats/aerial.h"

using namespace mlgs;

namespace
{

TEST(Aerial, BucketsCloseOnBoundaries)
{
    stats::AerialSampler s(10, 2, 4);
    for (int c = 0; c < 25; c++) {
        s.recordIssue(0, 32);
        if (c % 2)
            s.recordBank(1, true, true);
        s.endCycle();
    }
    s.finish();
    ASSERT_EQ(s.buckets().size(), 3u); // 10 + 10 + 5
    EXPECT_EQ(s.buckets()[0].cycles, 10u);
    EXPECT_EQ(s.buckets()[2].cycles, 5u);
    EXPECT_EQ(s.buckets()[0].instructions, 10u);
    EXPECT_EQ(s.buckets()[0].lane_histogram[32], 10u);
}

TEST(Aerial, EfficiencyVsUtilizationSemantics)
{
    // Bank busy 5 cycles, pending 10 cycles, total 20 cycles:
    // efficiency = 5/10, utilization = 5/20.
    stats::AerialSampler s(20, 1, 1);
    for (int c = 0; c < 20; c++) {
        const bool pending = c < 10;
        const bool busy = c < 5;
        s.recordBank(0, busy, pending);
        s.endCycle();
    }
    s.finish();
    EXPECT_DOUBLE_EQ(s.meanDramEfficiency(), 0.5);
    EXPECT_DOUBLE_EQ(s.meanDramUtilization(), 0.25);
}

TEST(Aerial, StallFractions)
{
    stats::AerialSampler s(16, 1, 1);
    for (int c = 0; c < 16; c++) {
        if (c % 4 == 0)
            s.recordIssue(0, 16);
        else
            s.recordStall(0, stats::StallKind::DataHazard);
        s.endCycle();
    }
    s.finish();
    EXPECT_NEAR(s.stallFraction(stats::StallKind::DataHazard), 0.75, 1e-9);
    EXPECT_NEAR(s.stallFraction(stats::StallKind::Idle), 0.0, 1e-9);
}

TEST(Aerial, CsvContainsAllSeries)
{
    stats::AerialSampler s(4, 2, 2);
    for (int c = 0; c < 8; c++) {
        s.recordIssue(c % 2, 32);
        s.endCycle();
    }
    s.finish();
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("aerial_test.csv");
    s.writeCsv(path);
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        contents.append(buf, n);
    std::fclose(f);
    for (const char *series :
         {"global_ipc", "core_ipc_1", "bank_eff_0", "bank_util_1", "warp_w32",
          "stall_idle", "stall_data_hazard"})
        EXPECT_NE(contents.find(series), std::string::npos) << series;
}

TEST(Power, EnergyScalesWithWork)
{
    timing::TimingTotals small;
    small.cycles = 1000;
    small.thread_instructions = 10000;
    small.alu = 300;
    small.core_active_cycles = 1000;
    small.core_idle_cycles = 0;

    timing::TimingTotals big = small;
    big.thread_instructions *= 10;

    power::PowerModel pm;
    const auto p_small = pm.compute(small, 1.0);
    const auto p_big = pm.compute(big, 1.0);
    EXPECT_GT(p_big.core_w, p_small.core_w);
    EXPECT_DOUBLE_EQ(p_big.idle_w, p_small.idle_w); // static unchanged
}

TEST(Power, IdleDominatesWhenCoresIdle)
{
    timing::TimingTotals t;
    t.cycles = 10000;
    t.core_active_cycles = 1000;  // 1 core-cycle in 10 active
    t.core_idle_cycles = 9000;
    t.thread_instructions = 100;
    t.alu = 10;
    power::PowerModel pm;
    const auto p = pm.compute(t, 1.0);
    EXPECT_GT(p.idle_w, p.core_w);
}

TEST(Power, ZeroCyclesIsZeroPower)
{
    power::PowerModel pm;
    const auto p = pm.compute(timing::TimingTotals{}, 1.0);
    EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(Oracle, RooflineLimbs)
{
    oracle::HwSpec spec;
    spec.num_sms = 2;
    spec.issue_per_sm = 1;
    spec.dram_bytes_per_cycle = 10;
    spec.launch_overhead = 0;
    spec.dep_latency = 4;
    spec.warp_slots_per_sm = 8;
    oracle::HwOracle orc(spec);

    cuda::LaunchRecord rec;
    rec.kernel_name = "k";
    rec.grid = Dim3(64);
    rec.block = Dim3(128); // plenty of warps -> full occupancy

    // Compute-bound: many ALU ops, no memory.
    rec.func_stats = {};
    rec.func_stats.instructions = 1000;
    rec.func_stats.alu = 1000;
    const double compute = orc.estimateCycles(rec);
    EXPECT_NEAR(compute, 1000.0 / 2.0, 1.0);

    // Memory-bound: same instructions + heavy traffic.
    rec.func_stats.global_ld_bytes = 1000000;
    const double mem = orc.estimateCycles(rec);
    EXPECT_NEAR(mem, 100000.0, 1.0);

    // Dependency-bound: one warp, long serial chain.
    cuda::LaunchRecord serial = rec;
    serial.grid = Dim3(1);
    serial.block = Dim3(32);
    serial.func_stats = {};
    serial.func_stats.instructions = 1000;
    serial.func_stats.alu = 1000;
    const double dep = orc.estimateCycles(serial);
    EXPECT_NEAR(dep, 1000.0 * 4.0, 1.0);
}

TEST(Oracle, PearsonOnPerfectLine)
{
    std::vector<oracle::CorrelationRow> rows;
    for (int i = 1; i <= 5; i++) {
        std::string name = "k"; // not "k" + ...: GCC 12 -O3 -Wrestrict
        name += std::to_string(i);
        rows.push_back({name, double(i * 100), double(i * 150)});
    }
    EXPECT_NEAR(oracle::HwOracle::pearson(rows), 1.0, 1e-9);
    EXPECT_NEAR(oracle::HwOracle::overallRelative(rows), 150.0, 1e-9);
}

} // namespace
