/**
 * @file
 * Golden equivalence between the ring's tick paths.
 *
 * The schedule-driven tick (visitation table, idle-visit skipping,
 * quiescence fast-forward) must be observationally indistinguishable
 * from the original scan-driven tick, which is retained behind
 * RingConfig::referenceTickPath as the executable specification. Every
 * full-system measurement a paper figure plots is compared EXACTLY
 * (doubles included — the arithmetic must be the same, not merely
 * close), across both ring protocols, the paper's node counts, all
 * three 64-processor Figure 4 workloads, fault injection on/off (plus a
 * heavy-corruption case that sends thousands of corrupt slots through
 * the visit predicate's discard branch), and warm-reset vs cold-start
 * measurement windows (warmupFrac 0.3 triggers a mid-run
 * SlotRing::resetStats(), 0 never rebases).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/system.hpp"
#include "src/trace/workload.hpp"

namespace ringsim {
namespace {

struct GoldenCase
{
    core::ProtocolKind kind;
    unsigned procs;
    bool faults;
    /**
     * Warmup fraction. 0.3 (the production default) makes the run
     * call SlotRing::resetStats() mid-flight once every processor
     * clears its warmup prefix — the measurement window then starts
     * from rebased counters while the ring is hot. 0 skips the reset
     * entirely. Both must agree with the reference path exactly: the
     * rebase arithmetic (occupancy integral accrual, rotation and
     * cycle rebasing) is part of the observable behavior.
     */
    double warmup;
    /** Workload preset. MP3D covers the 8–32 processor points; the
     *  paper's 64-processor workloads are FFT/WEATHER/SIMPLE. */
    trace::Benchmark bench;
    /** Corruption rate per occupied slot per cycle when faults are
     *  on; kHeavyCorrupt marks the heavy-fault cases. */
    double corruptRate = kCorruptRate;

    static constexpr double kCorruptRate = 1e-4;
    static constexpr double kHeavyCorrupt = 1e-3;
};

/** The workload a case runs when its name does not spell one out. */
trace::Benchmark
defaultBench(unsigned procs)
{
    return procs == 64 ? trace::Benchmark::FFT : trace::Benchmark::MP3D;
}

std::string
nameOf(const GoldenCase &c)
{
    const char *proto =
        c.kind == core::ProtocolKind::RingSnoop ? "Snoop" : "Directory";
    std::string bench;
    if (c.bench != defaultBench(c.procs)) {
        bench = trace::benchmarkName(c.bench);
        for (size_t i = 1; i < bench.size(); ++i)
            bench[i] = static_cast<char>(std::tolower(bench[i]));
    }
    return proto + std::to_string(c.procs) + bench +
           (c.faults ? "FaultsOn" : "FaultsOff") +
           (c.corruptRate == GoldenCase::kHeavyCorrupt ? "Heavy" : "") +
           (c.warmup > 0 ? "WarmReset" : "ColdStart");
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return nameOf(info.param);
}

/** gtest prints a parameter in the test listing; by name, not by its
 *  raw bytes (which include uninitialised padding). */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << nameOf(c);
}

class GoldenEquivalence : public ::testing::TestWithParam<GoldenCase>
{
};

core::RunResult
runWith(const GoldenCase &c, bool reference)
{
    auto cfg = core::RingSystemConfig::forProcs(c.procs);
    cfg.ring.referenceTickPath = reference;
    cfg.common.warmupFrac = c.warmup;
    if (c.faults) {
        cfg.common.faults.corruptRate = c.corruptRate;
        cfg.common.faults.dropRate = 5e-5;
        cfg.common.faults.stallRate = 1e-5;
        cfg.common.faults.seed = 11;
    }
    auto wl = trace::workloadPreset(c.bench, c.procs);
    wl.dataRefsPerProc = c.procs <= 16 ? 2000 : c.procs == 32 ? 1200
                                                              : 800;
    return core::runRingSystem(cfg, wl, c.kind);
}

TEST_P(GoldenEquivalence, FastPathMatchesReferenceExactly)
{
    core::RunResult ref = runWith(GetParam(), /*reference=*/true);
    core::RunResult fast = runWith(GetParam(), /*reference=*/false);

    EXPECT_EQ(ref.procUtilization, fast.procUtilization);
    EXPECT_EQ(ref.networkUtilization, fast.networkUtilization);
    EXPECT_EQ(ref.missLatencyNs, fast.missLatencyNs);
    EXPECT_EQ(ref.missLatencyAllNs, fast.missLatencyAllNs);
    EXPECT_EQ(ref.upgradeLatencyNs, fast.upgradeLatencyNs);
    EXPECT_EQ(ref.acquireWaitNs, fast.acquireWaitNs);
    EXPECT_EQ(ref.window, fast.window);
    EXPECT_EQ(ref.localMisses, fast.localMisses);
    EXPECT_EQ(ref.cleanMiss1, fast.cleanMiss1);
    EXPECT_EQ(ref.dirtyMiss1, fast.dirtyMiss1);
    EXPECT_EQ(ref.miss2, fast.miss2);
    EXPECT_EQ(ref.upgrades, fast.upgrades);
    EXPECT_EQ(ref.faultsInjected, fast.faultsInjected);
    EXPECT_EQ(ref.retries, fast.retries);
    EXPECT_EQ(ref.recovered, fast.recovered);
    EXPECT_EQ(ref.fatalTxns, fast.fatalTxns);
    EXPECT_EQ(ref.nacks, fast.nacks);
    EXPECT_EQ(ref.timeouts, fast.timeouts);
    if (GetParam().corruptRate == GoldenCase::kHeavyCorrupt) {
        // The point of the heavy case: corrupt slots by the thousand,
        // each dispatched to the first node it reaches and discarded.
        EXPECT_GT(ref.faultsInjected, 1000u);
    }
}

std::vector<GoldenCase>
allCases()
{
    std::vector<GoldenCase> cases;
    for (auto kind : {core::ProtocolKind::RingSnoop,
                      core::ProtocolKind::RingDirectory}) {
        for (unsigned procs : {8u, 16u, 32u, 64u})
            for (bool faults : {false, true})
                for (double warmup : {0.3, 0.0})
                    cases.push_back({kind, procs, faults, warmup,
                                     defaultBench(procs)});
        // The other two Figure 4 workloads.
        for (auto bench :
             {trace::Benchmark::WEATHER, trace::Benchmark::SIMPLE})
            for (bool faults : {false, true})
                cases.push_back({kind, 64, faults, 0.3, bench});
        cases.push_back({kind, 64, true, 0.3, defaultBench(64),
                         GoldenCase::kHeavyCorrupt});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SnoopAndDirectory, GoldenEquivalence,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
} // namespace ringsim
