/**
 * @file
 * Unit tests for the Table 4 bus-clock matcher.
 */

#include <gtest/gtest.h>

#include "src/coherence/driver.hpp"
#include "src/model/matcher.hpp"

namespace ringsim::model {
namespace {

BusModelInput
busInput(trace::Benchmark b, unsigned procs, double cycle_ns)
{
    auto cfg = trace::workloadPreset(b, procs);
    cfg.dataRefsPerProc = 20000;
    BusModelInput in;
    in.census = coherence::runFunctional(cfg);
    in.bus = core::BusSystemConfig::forProcs(procs).bus;
    in.system.procCycle = nsToTicks(cycle_ns);
    return in;
}

TEST(Matcher, MatchedClockReproducesTarget)
{
    BusModelInput in = busInput(trace::Benchmark::MP3D, 16, 10);
    double target = 0.6;
    double period_ns = matchBusClock(in, target);
    in.bus.clockPeriod = nsToTicks(period_ns);
    ModelResult r = solveBus(in);
    EXPECT_NEAR(r.procUtilization, target, 0.01);
}

TEST(Matcher, FasterRingNeedsFasterBus)
{
    // Table 4 shape: matching a 500 MHz ring takes a faster bus than
    // matching a 250 MHz ring.
    BusModelInput in = busInput(trace::Benchmark::MP3D, 16, 10);

    RingModelInput ring_in;
    ring_in.census = in.census;
    ring_in.system = in.system;
    ring_in.protocol = RingProtocol::Snoop;

    ring_in.ring = core::RingSystemConfig::forProcs(16, 4000).ring;
    double util250 = solveRing(ring_in).procUtilization;
    ring_in.ring = core::RingSystemConfig::forProcs(16, 2000).ring;
    double util500 = solveRing(ring_in).procUtilization;
    ASSERT_GT(util500, util250);

    double bus250 = matchBusClock(in, util250);
    double bus500 = matchBusClock(in, util500);
    EXPECT_LT(bus500, bus250);
}

TEST(Matcher, DemandGrowsWithProcessorSpeed)
{
    // Faster processors demand a faster matching bus.
    BusModelInput in10 = busInput(trace::Benchmark::MP3D, 16, 10);
    BusModelInput in25 = busInput(trace::Benchmark::MP3D, 16, 2.5);

    RingModelInput ring_in;
    ring_in.census = in10.census;
    ring_in.ring = core::RingSystemConfig::forProcs(16).ring;
    ring_in.protocol = RingProtocol::Snoop;

    ring_in.system.procCycle = nsToTicks(10);
    double t10 = solveRing(ring_in).procUtilization;
    ring_in.system.procCycle = nsToTicks(2.5);
    double t25 = solveRing(ring_in).procUtilization;

    double b10 = matchBusClock(in10, t10);
    double b25 = matchBusClock(in25, t25);
    EXPECT_LT(b25, b10);
}

TEST(Matcher, BracketEdges)
{
    BusModelInput in = busInput(trace::Benchmark::WATER, 8, 20);
    // A trivially low target: even the slowest bus exceeds it.
    EXPECT_DOUBLE_EQ(matchBusClock(in, 0.0001, 1.0, 500.0), 500.0);
    // An impossible target: even the fastest bus cannot reach it.
    EXPECT_DOUBLE_EQ(matchBusClock(in, 0.999999, 1.0, 500.0), 1.0);
}

TEST(MatcherDeathTest, BadBracketFatal)
{
    BusModelInput in = busInput(trace::Benchmark::WATER, 8, 20);
    EXPECT_EXIT(matchBusClock(in, 0.5, 10.0, 5.0),
                testing::ExitedWithCode(1), "bracket");
}

} // namespace
} // namespace ringsim::model
