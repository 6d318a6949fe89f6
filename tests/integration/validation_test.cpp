/**
 * @file
 * Hybrid-methodology validation: the analytic models must reproduce
 * the detailed simulator within the paper's claimed tolerances —
 * "within 15% of the simulated values for latencies, and within 5%
 * for processor and network utilizations" (Section 4.0) — at the
 * calibration operating point. Near bus saturation the bus model's MVA
 * wait is known to be optimistic, so the bus latency check uses the unloaded
 * workloads.
 */

#include <gtest/gtest.h>

#include "src/coherence/driver.hpp"
#include "src/core/system.hpp"
#include "src/model/bus_model.hpp"
#include "src/model/ring_model.hpp"

namespace ringsim {
namespace {

trace::WorkloadConfig
workload(trace::Benchmark b, unsigned procs)
{
    auto cfg = trace::workloadPreset(b, procs);
    cfg.dataRefsPerProc = 25000;
    return cfg;
}

void
expectWithin(double model_value, double sim_value, double rel,
             const char *what)
{
    ASSERT_GT(sim_value, 0.0) << what;
    EXPECT_NEAR(model_value, sim_value, rel * sim_value) << what;
}

class RingValidation
    : public ::testing::TestWithParam<
          std::tuple<trace::Benchmark, unsigned, model::RingProtocol>>
{
};

TEST_P(RingValidation, ModelTracksSimulation)
{
    auto [b, procs, proto] = GetParam();
    auto wl = workload(b, procs);
    coherence::Census census = coherence::runFunctional(wl);

    auto cfg = core::RingSystemConfig::forProcs(procs);
    core::ProtocolKind kind = proto == model::RingProtocol::Snoop
        ? core::ProtocolKind::RingSnoop
        : core::ProtocolKind::RingDirectory;
    core::RunResult sim = core::runRingSystem(cfg, wl, kind);

    model::RingModelInput in;
    in.census = census;
    in.ring = cfg.ring;
    in.system = cfg.common;
    in.protocol = proto;
    model::ModelResult m = model::solveRing(in);

    // Paper tolerances: 5% on utilizations (absolute here, which is
    // stricter than relative for the small ring numbers), 15% on
    // latencies.
    EXPECT_NEAR(m.procUtilization, sim.procUtilization, 0.05);
    EXPECT_NEAR(m.networkUtilization, sim.networkUtilization, 0.05);
    expectWithin(m.missLatencyNs, sim.missLatencyNs, 0.15,
                 "miss latency");
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RingValidation,
    ::testing::Combine(
        ::testing::Values(trace::Benchmark::MP3D,
                          trace::Benchmark::WATER,
                          trace::Benchmark::CHOLESKY),
        ::testing::Values(8u, 16u),
        ::testing::Values(model::RingProtocol::Snoop,
                          model::RingProtocol::Directory)));

class BusValidation
    : public ::testing::TestWithParam<
          std::tuple<trace::Benchmark, unsigned>>
{
};

TEST_P(BusValidation, ModelTracksSimulation)
{
    auto [b, procs] = GetParam();
    auto wl = workload(b, procs);
    coherence::Census census = coherence::runFunctional(wl);

    auto cfg = core::BusSystemConfig::forProcs(procs);
    core::RunResult sim = core::runBusSystem(cfg, wl);

    model::BusModelInput in;
    in.census = census;
    in.bus = cfg.bus;
    in.system = cfg.common;
    model::ModelResult m = model::solveBus(in);

    // Near saturation the MVA wait is optimistic (correlated
    // request/response arrivals); the tolerances widen there, as
    // documented in EXPERIMENTS.md.
    bool saturated = sim.networkUtilization >= 0.6;
    EXPECT_NEAR(m.procUtilization, sim.procUtilization,
                saturated ? 0.08 : 0.05);
    double util_tol = saturated ? 0.15 : 0.06;
    EXPECT_NEAR(m.networkUtilization, sim.networkUtilization,
                util_tol);
    if (sim.networkUtilization < 0.5) {
        expectWithin(m.missLatencyNs, sim.missLatencyNs, 0.15,
                     "bus miss latency");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BusValidation,
    ::testing::Combine(::testing::Values(trace::Benchmark::MP3D,
                                         trace::Benchmark::WATER),
                       ::testing::Values(8u, 16u)));

TEST(Validation, HeadlineResultHolds)
{
    // Contrary to the era's common wisdom: snooping beats the
    // directory on the ring for MP3D at every size (Section 6).
    for (unsigned procs : {8u, 16u, 32u}) {
        auto wl = workload(trace::Benchmark::MP3D, procs);
        coherence::Census census = coherence::runFunctional(wl);
        for (double cycle_ns : {20.0, 10.0, 5.0}) {
            model::RingModelInput in;
            in.census = census;
            in.ring = core::RingSystemConfig::forProcs(procs).ring;
            in.system.procCycle = nsToTicks(cycle_ns);
            in.protocol = model::RingProtocol::Snoop;
            double snoop = model::solveRing(in).procUtilization;
            in.protocol = model::RingProtocol::Directory;
            double dir = model::solveRing(in).procUtilization;
            EXPECT_GT(snoop, dir)
                << procs << " procs @ " << cycle_ns << " ns";
        }
    }
}

TEST(Validation, RingOutlastsBusAsProcessorsSpeedUp)
{
    // Figure 6 crossover: at 8 CPUs the 50 MHz bus is competitive
    // with the 250 MHz ring for slow processors but falls behind for
    // fast ones (MP3D).
    auto wl = workload(trace::Benchmark::MP3D, 8);
    coherence::Census census = coherence::runFunctional(wl);

    auto ring_util = [&](double cycle_ns) {
        model::RingModelInput in;
        in.census = census;
        in.ring = core::RingSystemConfig::forProcs(8, 4000).ring;
        in.system.procCycle = nsToTicks(cycle_ns);
        in.protocol = model::RingProtocol::Snoop;
        return model::solveRing(in).procUtilization;
    };
    auto bus_util = [&](double cycle_ns) {
        model::BusModelInput in;
        in.census = census;
        in.bus = core::BusSystemConfig::forProcs(8, 20000).bus;
        in.system.procCycle = nsToTicks(cycle_ns);
        return model::solveBus(in).procUtilization;
    };

    // Slow processors: the bus is competitive; fast processors: it
    // falls behind. The *relative* gap must widen markedly.
    double slow_ratio = bus_util(20.0) / ring_util(20.0);
    double fast_ratio = bus_util(2.0) / ring_util(2.0);
    EXPECT_GT(slow_ratio, 0.8);
    EXPECT_LT(fast_ratio, slow_ratio - 0.1);
}

TEST(Validation, RingNeverSaturatesInPaperConfigs)
{
    // Section 6: "the network never saturates in the configurations
    // we have simulated" — ring utilization stays under 80%.
    for (trace::Benchmark b : {trace::Benchmark::MP3D,
                               trace::Benchmark::WATER,
                               trace::Benchmark::CHOLESKY}) {
        for (unsigned procs : {8u, 16u, 32u}) {
            auto wl = workload(b, procs);
            coherence::Census census = coherence::runFunctional(wl);
            model::RingModelInput in;
            in.census = census;
            in.ring = core::RingSystemConfig::forProcs(procs).ring;
            in.system.procCycle = nsToTicks(1.0); // 1000 MIPS
            in.protocol = model::RingProtocol::Snoop;
            model::ModelResult r = model::solveRing(in);
            EXPECT_LT(r.networkUtilization, 0.85)
                << trace::benchmarkName(b) << " " << procs;
        }
    }
}

} // namespace
} // namespace ringsim
