/**
 * @file
 * Unit tests for the functional coherence engine, driving hand-built
 * reference sequences through small systems and checking states,
 * censuses and outcomes.
 */

#include <gtest/gtest.h>

#include "src/coherence/engine.hpp"

namespace ringsim::coherence {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    static constexpr unsigned procs = 4;

    EngineTest() : map_(procs, 16, 7)
    {
        EngineOptions options;
        options.check = true;
        engine_ = std::make_unique<FunctionalEngine>(map_, options);
    }

    /** A shared address whose home is NOT any of the given nodes. */
    Addr
    sharedAddrAvoiding(std::initializer_list<NodeId> avoid)
    {
        for (std::uint64_t i = 0;; ++i) {
            Addr a = map_.sharedBlock(i * 256); // distinct pages
            NodeId h = map_.home(a);
            bool ok = true;
            for (NodeId n : avoid)
                ok = ok && h != n;
            if (ok)
                return a;
        }
    }

    /** A shared address homed at @p node. */
    Addr
    sharedAddrAt(NodeId node)
    {
        for (std::uint64_t i = 0;; ++i) {
            Addr a = map_.sharedBlock(i * 256);
            if (map_.home(a) == node)
                return a;
        }
    }

    AccessOutcome
    read(NodeId p, Addr a)
    {
        AccessOutcome o;
        engine_->access(p, {trace::Op::Read, a}, &o);
        return o;
    }

    AccessOutcome
    write(NodeId p, Addr a)
    {
        AccessOutcome o;
        engine_->access(p, {trace::Op::Write, a}, &o);
        return o;
    }

    trace::AddressMap map_;
    std::unique_ptr<FunctionalEngine> engine_;
};

TEST_F(EngineTest, ColdReadMisses)
{
    Addr a = sharedAddrAvoiding({0});
    AccessOutcome o = read(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Miss);
    EXPECT_FALSE(o.wasDirty);
    EXPECT_FALSE(o.isWrite);
    EXPECT_TRUE(o.isShared);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::ReadShared);
    EXPECT_EQ(engine_->census().sharedMisses, 1u);
}

TEST_F(EngineTest, SecondReadHits)
{
    Addr a = sharedAddrAvoiding({0});
    read(0, a);
    AccessOutcome o = read(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Hit);
    EXPECT_EQ(engine_->census().hits, 1u);
}

TEST_F(EngineTest, WriteAfterReadIsUpgrade)
{
    Addr a = sharedAddrAvoiding({0});
    read(0, a);
    EXPECT_EQ(engine_->memState(a).listSizeExcept(0), 0u);
    AccessOutcome o = write(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Upgrade);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::WriteExcl);
    EXPECT_EQ(engine_->census().upgrades, 1u);
}

TEST_F(EngineTest, UpgradeWithSharersSeesThem)
{
    Addr a = sharedAddrAvoiding({0, 1});
    read(0, a);
    read(1, a);
    EXPECT_EQ(engine_->memState(a).listSizeExcept(0), 1u);
    AccessOutcome o = write(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Upgrade);
    EXPECT_TRUE(o.mapSharers);
    EXPECT_EQ(engine_->cacheOf(1).state(a), cache::State::Invalid);
}

TEST_F(EngineTest, DirtyReadDowngradesOwner)
{
    Addr a = sharedAddrAvoiding({0, 1});
    write(0, a);
    AccessOutcome o = read(1, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Miss);
    EXPECT_TRUE(o.wasDirty);
    EXPECT_EQ(o.owner, 0u);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::ReadShared);
    EXPECT_EQ(engine_->cacheOf(1).state(a), cache::State::ReadShared);
    EXPECT_FALSE(engine_->memState(a).dirty);
}

TEST_F(EngineTest, WriteMissInvalidatesEverybody)
{
    Addr a = sharedAddrAvoiding({0, 1, 2});
    read(0, a);
    read(1, a);
    EXPECT_EQ(engine_->memState(a).listSizeExcept(2), 2u);
    AccessOutcome o = write(2, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Miss);
    EXPECT_TRUE(o.isWrite);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->cacheOf(1).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->cacheOf(2).state(a), cache::State::WriteExcl);
    const MemState &ms = engine_->memState(a);
    EXPECT_TRUE(ms.dirty);
    EXPECT_EQ(ms.owner, 2u);
}

TEST_F(EngineTest, WriteMissOnDirtyTransfersOwnership)
{
    Addr a = sharedAddrAvoiding({0, 1});
    write(0, a);
    AccessOutcome o = write(1, a);
    EXPECT_TRUE(o.wasDirty);
    EXPECT_EQ(o.owner, 0u);
    EXPECT_EQ(engine_->cacheOf(0).state(a), cache::State::Invalid);
    EXPECT_EQ(engine_->memState(a).owner, 1u);
}

TEST_F(EngineTest, InstrRefsOnlyCount)
{
    engine_->access(0, {trace::Op::Instr, map_.codeBlock(0, 0)});
    EXPECT_EQ(engine_->census().instrRefs, 1u);
    EXPECT_EQ(engine_->census().dataRefs(), 0u);
}

TEST_F(EngineTest, SnoopCensusOneTraversalAlways)
{
    Addr a = sharedAddrAvoiding({0, 1});
    read(0, a);  // clean remote miss
    write(1, a); // write miss, dirty nobody... clean with sharer
    read(0, a);  // dirty miss
    const Census &c = engine_->census();
    EXPECT_EQ(c.snoop.missTraversals[1], 3u);
    EXPECT_EQ(c.snoop.missTraversals[2], 0u);
    EXPECT_EQ(c.snoop.missTraversals[0], 0u);
}

TEST_F(EngineTest, FullMapNeverExceedsTwoTraversals)
{
    Addr a = sharedAddrAvoiding({0, 1});
    read(0, a);
    read(1, a);
    read(2, a);
    write(3, a);
    read(0, a);
    write(1, a);
    const Census &c = engine_->census();
    EXPECT_EQ(c.fullMap.missTraversals[3], 0u);
    EXPECT_GT(c.fullMap.missTraversals[1] + c.fullMap.missTraversals[2],
              0u);
}

TEST_F(EngineTest, LinkedListSerialInvalidations)
{
    Addr a = sharedAddrAvoiding({2});
    // Three readers, then an upgrade by one of them (whose node is
    // not the home): the linked list purges the two others serially
    // -> 3 traversals (home trip + 2).
    read(0, a);
    read(1, a);
    read(2, a);
    write(2, a);
    const Census &c = engine_->census();
    EXPECT_EQ(c.linkedList.invTraversals[3], 1u) << "3+ bucket";
    EXPECT_EQ(c.fullMap.invTraversals[2], 1u)
        << "full map multicast caps at 2";
}

TEST_F(EngineTest, StickyPresenceVsExactList)
{
    Addr a = sharedAddrAvoiding({0, 1});
    read(0, a);
    read(1, a);
    const MemState &ms = engine_->memState(a);
    EXPECT_EQ(ms.list.size(), 2u);
    EXPECT_EQ(ms.head(), 1u) << "most recent reader heads the list";
    EXPECT_EQ(ms.presence, 0b11u);
}

TEST_F(EngineTest, LocalCleanMissIsLocalForDirectory)
{
    Addr a = sharedAddrAt(2);
    AccessOutcome o = read(2, a);
    EXPECT_EQ(o.home, 2u);
    const Census &c = engine_->census();
    EXPECT_EQ(c.fullMap.localMisses, 1u);
    EXPECT_EQ(c.fullMap.missTraversals[0], 1u);
    // The snooping protocol still probes (one traversal), but the
    // data never leaves the node.
    EXPECT_EQ(c.snoop.missTraversals[1], 1u);
    EXPECT_EQ(c.snoop.localMisses, 1u);
    EXPECT_EQ(c.snoop.blocks, 0u);
}

TEST_F(EngineTest, ResetCensusKeepsState)
{
    Addr a = sharedAddrAvoiding({0});
    read(0, a);
    engine_->resetCensus();
    EXPECT_EQ(engine_->census().sharedMisses, 0u);
    AccessOutcome o = read(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Hit)
        << "cache state survives the census reset";
}

TEST_F(EngineTest, VictimReportedInOutcome)
{
    // Fill two private blocks that collide in the direct-mapped cache.
    cache::Geometry g;
    Addr a = map_.privateBlock(0, 0);
    Addr b = a + g.sets() * g.blockBytes;
    write(0, a);
    AccessOutcome o = write(0, b);
    ASSERT_TRUE(o.victimValid);
    EXPECT_TRUE(o.victimDirty);
    EXPECT_EQ(o.victimBlock, a);
    EXPECT_EQ(o.victimHome, 0u);
    EXPECT_EQ(engine_->census().writebacks, 1u);
    EXPECT_FALSE(engine_->memState(a).dirty);
}

TEST_F(EngineTest, WritebackRefillIsCleanMiss)
{
    cache::Geometry g;
    Addr a = map_.privateBlock(0, 0);
    Addr b = a + g.sets() * g.blockBytes;
    write(0, a);
    write(0, b); // evicts a with write-back
    AccessOutcome o = read(0, a);
    EXPECT_EQ(o.type, AccessOutcome::Type::Miss);
    EXPECT_FALSE(o.wasDirty) << "write-back cleared the dirty bit";
}

TEST(MemTable, GrowthKeepsKeysDistinctAndStatesInPlace)
{
    MemTable t;
    MemState &zero = t[0];
    zero.owner = 7;
    // Dense blocks plus blocks 256 MB apart (the private-region
    // stride), far past the initial capacity.
    constexpr Addr n = 5000;
    for (Addr i = 1; i < n; ++i) {
        t[i * 16].owner = static_cast<NodeId>(i);
        t[i << 28].presence = i;
    }
    EXPECT_EQ(&t[0], &zero) << "growth moved a MemState";
    EXPECT_EQ(zero.owner, 7u);
    Addr wrong = 0;
    for (Addr i = 1; i < n; ++i) {
        wrong += t[i * 16].owner != i;
        wrong += t[i << 28].presence != i;
    }
    EXPECT_EQ(wrong, 0u);
}

} // namespace
} // namespace ringsim::coherence
