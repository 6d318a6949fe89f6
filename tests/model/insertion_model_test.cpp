/**
 * @file
 * Unit tests for the register-insertion ring model and the
 * slotted-vs-insertion comparison it supports.
 */

#include <gtest/gtest.h>

#include "src/coherence/driver.hpp"
#include "src/model/ring_model.hpp"

namespace ringsim::model {
namespace {

RingModelInput
input(trace::Benchmark b, unsigned procs, double cycle_ns)
{
    auto cfg = trace::workloadPreset(b, procs);
    cfg.dataRefsPerProc = 20000;
    RingModelInput in;
    in.census = coherence::runFunctional(cfg);
    in.ring = core::RingSystemConfig::forProcs(procs).ring;
    in.system.procCycle = nsToTicks(cycle_ns);
    in.protocol = RingProtocol::Directory;
    return in;
}

TEST(InsertionModel, Converges)
{
    ModelResult r =
        solveInsertionRing(input(trace::Benchmark::MP3D, 16, 20));
    EXPECT_LT(r.iterations, 500u);
    EXPECT_GT(r.procUtilization, 0.0);
    EXPECT_LE(r.procUtilization, 1.0);
    EXPECT_FALSE(r.saturated);
}

TEST(InsertionModel, FasterAccessAtLightLoad)
{
    // Section 2's intuition: under light load the insertion ring's
    // access time beats the slotted ring's slot-residual wait.
    auto in = input(trace::Benchmark::WATER, 16, 20);
    ModelResult slotted = solveRing(in);
    ModelResult inserted = solveInsertionRing(in);
    ASSERT_LT(slotted.networkUtilization, 0.1);
    EXPECT_LT(inserted.missLatencyNs, slotted.missLatencyNs);
    // The advantage is bounded by about one frame residual per
    // message leg (a few slot acquisitions per miss).
    EXPECT_GT(inserted.missLatencyNs,
              slotted.missLatencyNs - 4 * 20.0);
}

TEST(InsertionModel, LoadGrowsFasterThanSlotted)
{
    // The insertion ring pays for its light-load advantage with
    // steeper queueing growth as processors speed up.
    auto in = input(trace::Benchmark::MP3D, 32, 20);
    ModelResult ins_slow = solveInsertionRing(in);
    in.system.procCycle = nsToTicks(1.0);
    ModelResult ins_fast = solveInsertionRing(in);
    EXPECT_GT(ins_fast.networkUtilization,
              ins_slow.networkUtilization);
    EXPECT_GT(ins_fast.missLatencyNs, ins_slow.missLatencyNs);
}

TEST(InsertionModelDeathTest, SnoopingRejected)
{
    auto in = input(trace::Benchmark::MP3D, 16, 20);
    in.protocol = RingProtocol::Snoop;
    EXPECT_EXIT(solveInsertionRing(in), testing::ExitedWithCode(1),
                "cannot support snooping");
}

TEST(InsertionModelDeathTest, MismatchedSizesFatal)
{
    auto in = input(trace::Benchmark::MP3D, 16, 20);
    in.ring.nodes = 8;
    EXPECT_EXIT(solveInsertionRing(in), testing::ExitedWithCode(1),
                "census");
}

} // namespace
} // namespace ringsim::model
