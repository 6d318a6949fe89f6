/**
 * @file
 * The invariant the invalidation walk relies on, and the work counter
 * that measures it.
 *
 * FunctionalEngine::invalidateOthers probes only the nodes whose
 * full-map presence bit is set, so every node holding a block must
 * have that block's bit set (presence is a superset of the holders).
 * These tests pin that after every access of every workload at 8, 16,
 * 32 and 64 nodes, with the coherence checker on, and pin
 * EngineWork::invalidationProbes to the presence popcounts it counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "src/coherence/engine.hpp"
#include "src/trace/generator.hpp"

namespace ringsim::coherence {
namespace {

/** What a checked run saw. */
struct CheckedRun
{
    Count accesses = 0;
    Count violations = 0;            //!< holders without a presence bit
    Count invalidating = 0;          //!< upgrades plus write misses
    Count expectedProbes = 0;        //!< sum of presence popcounts
    Count upgrades = 0;
    Count invalidationProbes = 0;    //!< EngineWork after the run
    std::string firstViolation;
};

/** Every node holding @p block has its presence bit set. */
void
checkHolders(FunctionalEngine &engine, unsigned procs, Addr block,
             CheckedRun &run)
{
    std::uint64_t presence = engine.memState(block).presence;
    for (NodeId q = 0; q < procs; ++q) {
        if (engine.cacheOf(q).state(block) == cache::State::Invalid)
            continue;
        if ((presence >> q) & 1)
            continue;
        if (run.violations++ == 0) {
            run.firstViolation = "node " + std::to_string(q) +
                                 " holds block " + std::to_string(block) +
                                 " without its presence bit";
        }
    }
}

/**
 * Round-robin @p cfg through a checked engine; after every data access
 * check the accessed and the displaced block (the only blocks whose
 * holders an access changes).
 */
CheckedRun
runChecked(const trace::WorkloadConfig &cfg)
{
    trace::AddressMap map = trace::makeAddressMap(cfg);
    trace::TraceSet streams = trace::makeTraceSet(cfg, map);
    EngineOptions options;
    options.geometry.blockBytes = cfg.blockBytes;
    options.check = true;
    FunctionalEngine engine(map, options);

    CheckedRun run;
    std::vector<bool> alive(cfg.procs, true);
    unsigned live = cfg.procs;
    trace::TraceRecord rec;
    while (live > 0) {
        for (NodeId p = 0; p < cfg.procs; ++p) {
            if (!alive[p])
                continue;
            if (!streams[p]->next(rec)) {
                alive[p] = false;
                --live;
                continue;
            }
            if (!rec.isData()) {
                engine.access(p, rec);
                continue;
            }
            std::uint64_t before =
                engine.memState(rec.addr).presenceExcept(p);
            AccessOutcome o;
            engine.access(p, rec, &o);
            ++run.accesses;
            bool invalidating =
                o.type == AccessOutcome::Type::Upgrade ||
                (o.type == AccessOutcome::Type::Miss && o.isWrite);
            if (invalidating) {
                ++run.invalidating;
                run.expectedProbes +=
                    static_cast<Count>(std::popcount(before));
            }
            run.upgrades += o.type == AccessOutcome::Type::Upgrade;
            checkHolders(engine, cfg.procs, o.block, run);
            if (o.victimValid)
                checkHolders(engine, cfg.procs, o.victimBlock, run);
        }
    }
    run.invalidationProbes = engine.work().invalidationProbes;
    return run;
}

/** Every benchmark at every paper ring size. */
struct Case
{
    trace::Benchmark benchmark;
    unsigned procs;
};

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (trace::Benchmark b :
         {trace::Benchmark::MP3D, trace::Benchmark::WATER,
          trace::Benchmark::CHOLESKY, trace::Benchmark::FFT,
          trace::Benchmark::WEATHER, trace::Benchmark::SIMPLE}) {
        for (unsigned procs : {8u, 16u, 32u, 64u})
            cases.push_back({b, procs});
    }
    return cases;
}

/**
 * The paper preset of @p c's benchmark resized to @p c's node count
 * (the SPLASH presets exist at 8-32 nodes, the others at 64).
 */
trace::WorkloadConfig
workloadOf(const Case &c)
{
    bool splash = c.benchmark == trace::Benchmark::MP3D ||
                  c.benchmark == trace::Benchmark::WATER ||
                  c.benchmark == trace::Benchmark::CHOLESKY;
    unsigned preset_procs = splash ? std::min(c.procs, 32u) : 64u;
    trace::WorkloadConfig cfg =
        trace::workloadPreset(c.benchmark, preset_procs);
    cfg.procs = c.procs;
    cfg.dataRefsPerProc = 3000;
    return cfg;
}

class PresenceInvariant : public ::testing::TestWithParam<Case>
{
};

TEST_P(PresenceInvariant, PresenceCoversEveryHolder)
{
    trace::WorkloadConfig cfg = workloadOf(GetParam());
    CheckedRun run = runChecked(cfg);
    EXPECT_EQ(run.violations, 0u) << run.firstViolation;
    EXPECT_EQ(run.accesses, cfg.procs * cfg.dataRefsPerProc);
    EXPECT_GT(run.invalidating, 0u) << "no invalidation was exercised";
    EXPECT_EQ(run.invalidationProbes, run.expectedProbes);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PresenceInvariant, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(trace::benchmarkName(info.param.benchmark)) +
               "_" + std::to_string(info.param.procs);
    });

TEST(InvalidationProbes, BelowFullScanOnSixtyFourNodes)
{
    trace::WorkloadConfig cfg =
        workloadOf({trace::Benchmark::FFT, 64});
    CheckedRun run = runChecked(cfg);
    ASSERT_GT(run.upgrades, 0u);
    Count full_scan = (cfg.procs - 1) * run.invalidating;
    EXPECT_LT(run.invalidationProbes, full_scan);
}

/** Hand-built traces on small and 64-node rings. */
class ProbeTrace : public ::testing::Test
{
  protected:
    void
    build(unsigned procs)
    {
        map_ = std::make_unique<trace::AddressMap>(procs, 16, 7);
        EngineOptions options;
        options.check = true;
        engine_ = std::make_unique<FunctionalEngine>(*map_, options);
    }

    void read(NodeId p, Addr a) { engine_->access(p, {trace::Op::Read, a}); }
    void write(NodeId p, Addr a) { engine_->access(p, {trace::Op::Write, a}); }

    Count probes() const { return engine_->work().invalidationProbes; }

    std::unique_ptr<trace::AddressMap> map_;
    std::unique_ptr<FunctionalEngine> engine_;
};

TEST_F(ProbeTrace, ProbesFollowStickyPresence)
{
    build(8);
    cache::Geometry g;
    Addr a = map_->sharedBlock(0);
    read(0, a);
    read(1, a);
    read(2, a);
    EXPECT_EQ(probes(), 0u) << "reads never invalidate";

    // Node 1 silently replaces its copy: its bit stays set.
    read(1, a + g.sets() * g.blockBytes);
    ASSERT_EQ(engine_->cacheOf(1).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->memState(a).presence, 0b111u);

    // Node 0 upgrades: nodes 1 and 2 are probed, only 2 held a copy.
    write(0, a);
    EXPECT_EQ(probes(), 2u);
    EXPECT_EQ(engine_->cacheOf(2).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->memState(a).presence, 0b1u);

    // Node 3's write miss probes only the owner.
    write(3, a);
    EXPECT_EQ(probes(), 3u);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::Invalid);

    // A write hit invalidates nothing.
    write(3, a);
    EXPECT_EQ(probes(), 3u);
}

TEST_F(ProbeTrace, HighestPresenceBitIsWalked)
{
    build(64);
    Addr a = map_->sharedBlock(0);
    read(0, a);
    read(63, a);
    EXPECT_EQ(engine_->memState(a).presence,
              (std::uint64_t(1) << 63) | 1u);

    write(1, a);
    EXPECT_EQ(engine_->cacheOf(63).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->cacheOf(1).state(a), cache::State::WriteExcl);
    EXPECT_EQ(engine_->memState(a).presence, 0b10u);
    EXPECT_EQ(probes(), 2u);
}

} // namespace
} // namespace ringsim::coherence
