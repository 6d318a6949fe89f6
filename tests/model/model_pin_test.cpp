/**
 * @file
 * Exact outputs of every analytic model on a hand-built census.
 *
 * The census holds integer counts only, so each expected value depends
 * on IEEE double arithmetic alone, not on the libm calls behind trace
 * generation. Every ModelResult field is compared with ==, so any
 * change to a model's arithmetic (a reordered sum, a new term) fails
 * here and has to update these literals on purpose.
 */

#include <gtest/gtest.h>

#include "src/model/bus_model.hpp"
#include "src/model/ring_model.hpp"

namespace ringsim::model {
namespace {

constexpr unsigned kProcs = 16;

/**
 * A 16-processor census with a SPLASH-like reference mix and @p load
 * times a light share of misses, invalidations and messages. Every
 * snoop probe travels the whole ring (16 hops), every block message
 * half of it.
 */
coherence::Census
pinCensus(Count load)
{
    coherence::Census c;
    c.procs = kProcs;
    c.instrRefs = 320000;
    c.privateReads = 150000;
    c.privateWrites = 50000;
    c.sharedReads = 90000;
    c.sharedWrites = 30000;
    c.hits = 320000 - 2000 * load;
    c.privateMisses = 600 * load;
    c.sharedMisses = 1400 * load;
    c.upgrades = 3000 * load;
    c.writebacks = 150 * load;

    coherence::ProtocolCensus &s = c.snoop;
    s.missTraversals = {200 * load, 1600 * load, 0, 0};
    s.invTraversals = {0, 3000 * load, 0, 0};
    s.localMisses = 200 * load;
    s.cleanMiss1 = 1100 * load;
    s.dirtyMiss1 = 500 * load;
    s.probes = 4600 * load;
    s.probeHops = 73600.0 * load;
    s.blocks = 1750 * load;
    s.blockHops = 14000.0 * load;

    coherence::ProtocolCensus &d = c.fullMap;
    d.missTraversals = {200 * load, 1200 * load, 400 * load, 0};
    d.invTraversals = {900 * load, 1400 * load, 500 * load, 200 * load};
    d.localMisses = 200 * load;
    d.cleanMiss1 = 800 * load;
    d.dirtyMiss1 = 400 * load;
    d.miss2 = 400 * load;
    d.probes = 7000 * load;
    d.probeHops = 56000.0 * load;
    d.blocks = 1750 * load;
    d.blockHops = 14000.0 * load;
    return c;
}

/** An operating point: processor cycle and census load. */
struct Point
{
    Tick procCycle;
    Count load;
};

/** 20 ns processors, light census: every network lightly loaded. */
constexpr Point kLight{20000, 1};
/** 1 ns processors, ten times the traffic: the bus saturates and the
 *  processors spend nearly all their time stalled on the ring. */
constexpr Point kSaturated{1000, 10};

RingModelInput
ringInput(Point at, RingProtocol protocol)
{
    RingModelInput in;
    in.census = pinCensus(at.load);
    in.ring = core::RingSystemConfig::forProcs(kProcs).ring;
    in.system.procCycle = at.procCycle;
    in.protocol = protocol;
    return in;
}

BusModelInput
busInput(Point at)
{
    BusModelInput in;
    in.census = pinCensus(at.load);
    in.bus = core::BusSystemConfig::forProcs(kProcs).bus;
    in.system.procCycle = at.procCycle;
    return in;
}

void
expectExact(const ModelResult &got, const ModelResult &want)
{
    EXPECT_EQ(got.execTimeNs, want.execTimeNs);
    EXPECT_EQ(got.procUtilization, want.procUtilization);
    EXPECT_EQ(got.networkUtilization, want.networkUtilization);
    EXPECT_EQ(got.missLatencyNs, want.missLatencyNs);
    EXPECT_EQ(got.upgradeLatencyNs, want.upgradeLatencyNs);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.saturated, want.saturated);
}

// Expected values: {execTimeNs, procUtilization, networkUtilization,
// missLatencyNs, upgradeLatencyNs, iterations, saturated}.

TEST(ModelPin, SnoopRing)
{
    expectExact(solveRing(ringInput(kLight, RingProtocol::Snoop)),
                {0x1.9eea446be68efp+19, 0x1.e206bc9afd173p-1,
                 0x1.5fe113ec058e7p-5, 0x1.0f90b01bdaadep+8,
                 0x1.bc941c3b2463ap+6, 20u, false});
    expectExact(solveRing(ringInput(kSaturated, RingProtocol::Snoop)),
                {0x1.46b3d13c3f445p+19, 0x1.e9be094d07d4ep-5,
                 0x1.174e614dee777p-1, 0x1.41159c52e23efp+8,
                 0x1.34008b10e54b3p+7, 14u, false});
}

TEST(ModelPin, DirectoryRing)
{
    expectExact(solveRing(ringInput(kLight, RingProtocol::Directory)),
                {0x1.a68d8c658e762p+19, 0x1.d950410b3c2b2p-1,
                 0x1.14197b468dc3dp-5, 0x1.58ad60b968054p+8,
                 0x1.31d20571bc6f4p+7, 20u, false});
    expectExact(solveRing(ringInput(kSaturated, RingProtocol::Directory)),
                {0x1.789ca9cc9db2bp+19, 0x1.a8d7283d31038p-5,
                 0x1.833970ad1b573p-2, 0x1.75cad3ea8ad86p+8,
                 0x1.6557cb34b3e7ap+7, 22u, false});
}

TEST(ModelPin, InsertionRing)
{
    expectExact(solveInsertionRing(ringInput(kLight, RingProtocol::Directory)),
                {0x1.a3a893f4fa007p+19, 0x1.dc93f5e4e18d1p-1,
                 0x1.d30be19dbe51ep-6, 0x1.3e45c0640ae05p+8,
                 0x1.0ec18ac02984dp+7, 18u, false});
    expectExact(solveInsertionRing(
                    ringInput(kSaturated, RingProtocol::Directory)),
                {0x1.3bb9847be06b4p+19, 0x1.fac5494798539p-5,
                 0x1.83ff0c1ad0ap-2, 0x1.43aa2f29db85ep+8,
                 0x1.15cd4eb192e58p+7, 25u, false});
}

TEST(ModelPin, Bus)
{
    expectExact(solveBus(busInput(kLight)),
                {0x1.9d7766af351f2p+19, 0x1.e3b719546f075p-1,
                 0x1.87cf30ad59eedp-2, 0x1.3a52073988cadp+8,
                 0x1.0ca40e731195ap+6, 16u, false});
    expectExact(solveBus(busInput(kSaturated)),
                {0x1.8b8200000005dp+21, 0x1.948b0fcd6e981p-7,
                 0x1.fffffffffff87p-1, 0x1.a6cb972e5cbf7p+10,
                 0x1.79cb972e5cbf7p+9, 16u, true});
}

} // namespace
} // namespace ringsim::model
