/**
 * @file
 * Unit tests for the ring analytic model: convergence, limits and
 * monotonicity properties.
 */

#include <gtest/gtest.h>

#include "src/coherence/driver.hpp"
#include "src/model/ring_model.hpp"

namespace ringsim::model {
namespace {

coherence::Census
census(trace::Benchmark b, unsigned procs)
{
    auto cfg = trace::workloadPreset(b, procs);
    cfg.dataRefsPerProc = 20000;
    return coherence::runFunctional(cfg);
}

RingModelInput
input(trace::Benchmark b, unsigned procs, double cycle_ns,
      RingProtocol proto)
{
    RingModelInput in;
    in.census = census(b, procs);
    in.ring = core::RingSystemConfig::forProcs(procs).ring;
    in.system.procCycle = nsToTicks(cycle_ns);
    in.protocol = proto;
    return in;
}

TEST(RingModel, Converges)
{
    ModelResult r = solveRing(
        input(trace::Benchmark::MP3D, 8, 20, RingProtocol::Snoop));
    EXPECT_LT(r.iterations, 500u);
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.procUtilization, 0.0);
    EXPECT_LE(r.procUtilization, 1.0);
}

TEST(RingModel, UtilizationFallsWithFasterProcessors)
{
    auto in = input(trace::Benchmark::MP3D, 16, 20,
                    RingProtocol::Snoop);
    double prev = 2.0;
    for (double cyc : {20.0, 10.0, 5.0, 2.0, 1.0}) {
        in.system.procCycle = nsToTicks(cyc);
        ModelResult r = solveRing(in);
        EXPECT_LT(r.procUtilization, prev) << "cycle " << cyc;
        prev = r.procUtilization;
    }
}

TEST(RingModel, NetworkLoadRisesWithFasterProcessors)
{
    auto in = input(trace::Benchmark::MP3D, 16, 20,
                    RingProtocol::Snoop);
    ModelResult slow = solveRing(in);
    in.system.procCycle = nsToTicks(2);
    ModelResult fast = solveRing(in);
    EXPECT_GT(fast.networkUtilization, slow.networkUtilization);
    EXPECT_GE(fast.missLatencyNs, slow.missLatencyNs);
}

TEST(RingModel, SnoopLatencyBelowDirectoryAtLowLoad)
{
    // Section 4.2: below ~70% ring utilization snooping's latency is
    // lower than the directory's.
    for (auto b : {trace::Benchmark::MP3D, trace::Benchmark::WATER,
                   trace::Benchmark::CHOLESKY}) {
        ModelResult snoop =
            solveRing(input(b, 16, 20, RingProtocol::Snoop));
        ModelResult dir =
            solveRing(input(b, 16, 20, RingProtocol::Directory));
        ASSERT_LT(snoop.networkUtilization, 0.7);
        EXPECT_LT(snoop.missLatencyNs, dir.missLatencyNs)
            << trace::benchmarkName(b);
    }
}

TEST(RingModel, SlowerRingRaisesLatency)
{
    auto in = input(trace::Benchmark::WATER, 8, 20,
                    RingProtocol::Snoop);
    ModelResult r500 = solveRing(in);
    in.ring = core::RingSystemConfig::forProcs(8, 4000).ring;
    ModelResult r250 = solveRing(in);
    EXPECT_GT(r250.missLatencyNs, r500.missLatencyNs);
    EXPECT_LT(r250.procUtilization, r500.procUtilization);
}

TEST(RingModel, PureLatencyFloor)
{
    // At idle, a snoop remote miss is bounded below by round trip +
    // memory access.
    ModelResult r = solveRing(
        input(trace::Benchmark::WATER, 8, 20, RingProtocol::Snoop));
    auto ring = core::RingSystemConfig::forProcs(8).ring;
    double floor_ns =
        ticksToNs(ring.roundTripTime()) + 140.0;
    EXPECT_GE(r.missLatencyNs, floor_ns);
}

TEST(RingModel, SaturationFlaggedAtExtremeLoad)
{
    // A pathological ring (tiny bandwidth) must be reported saturated,
    // not diverge.
    auto in = input(trace::Benchmark::MP3D, 32, 1,
                    RingProtocol::Snoop);
    in.ring.clockPeriod = 50000; // 20 MHz ring
    ModelResult r = solveRing(in);
    EXPECT_TRUE(r.saturated);
    EXPECT_GT(r.missLatencyNs, 1000.0);
}

TEST(RingModelDeathTest, MismatchedSizesFatal)
{
    auto in = input(trace::Benchmark::MP3D, 8, 20, RingProtocol::Snoop);
    in.ring.nodes = 16;
    EXPECT_EXIT(solveRing(in), testing::ExitedWithCode(1), "census");
}

} // namespace
} // namespace ringsim::model
