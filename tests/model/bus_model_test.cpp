/**
 * @file
 * Unit tests for the bus analytic model.
 */

#include <gtest/gtest.h>

#include "src/coherence/driver.hpp"
#include "src/model/bus_model.hpp"

namespace ringsim::model {
namespace {

BusModelInput
input(trace::Benchmark b, unsigned procs, double cycle_ns,
      Tick bus_period = 20000)
{
    auto cfg = trace::workloadPreset(b, procs);
    cfg.dataRefsPerProc = 20000;
    BusModelInput in;
    in.census = coherence::runFunctional(cfg);
    in.bus = core::BusSystemConfig::forProcs(procs, bus_period).bus;
    in.system.procCycle = nsToTicks(cycle_ns);
    return in;
}

TEST(BusModel, Converges)
{
    ModelResult r = solveBus(input(trace::Benchmark::MP3D, 8, 20));
    EXPECT_LT(r.iterations, 1000u);
    EXPECT_GT(r.procUtilization, 0.0);
    EXPECT_LE(r.procUtilization, 1.0);
    EXPECT_LE(r.networkUtilization, 1.0);
}

TEST(BusModel, ClosedLoopKeepsRhoBelowOne)
{
    // Even with absurdly fast processors the closed-queue fixed point
    // keeps the work-conserving bus at (not beyond) saturation.
    ModelResult r = solveBus(input(trace::Benchmark::MP3D, 32, 1));
    EXPECT_LE(r.networkUtilization, 1.0);
    EXPECT_TRUE(r.saturated);
}

TEST(BusModel, FasterBusIsBetter)
{
    ModelResult slow =
        solveBus(input(trace::Benchmark::MP3D, 16, 5, 20000));
    ModelResult fast =
        solveBus(input(trace::Benchmark::MP3D, 16, 5, 10000));
    EXPECT_GT(fast.procUtilization, slow.procUtilization);
    EXPECT_LT(fast.missLatencyNs, slow.missLatencyNs);
}

TEST(BusModel, LoadGrowsWithSystemSize)
{
    ModelResult small = solveBus(input(trace::Benchmark::MP3D, 8, 20));
    ModelResult big = solveBus(input(trace::Benchmark::MP3D, 32, 20));
    EXPECT_GT(big.networkUtilization, small.networkUtilization);
    EXPECT_LT(big.procUtilization, small.procUtilization);
}

TEST(BusModel, WaterBarelyLoadsTheBus)
{
    ModelResult r = solveBus(input(trace::Benchmark::WATER, 8, 20));
    EXPECT_LT(r.networkUtilization, 0.2);
    EXPECT_GT(r.procUtilization, 0.9);
}

TEST(BusModel, MissLatencyFloor)
{
    // Six bus cycles + memory access is the absolute floor.
    ModelResult r = solveBus(input(trace::Benchmark::WATER, 8, 20));
    EXPECT_GE(r.missLatencyNs, 6 * 20.0 + 140.0);
}

TEST(BusModelDeathTest, MismatchedSizesFatal)
{
    auto in = input(trace::Benchmark::MP3D, 8, 20);
    in.bus.nodes = 16;
    EXPECT_EXIT(solveBus(in), testing::ExitedWithCode(1), "census");
}

} // namespace
} // namespace ringsim::model
