/**
 * @file
 * Unit tests for the 3-state coherent cache.
 */

#include <gtest/gtest.h>

#include "src/cache/coherent_cache.hpp"

namespace ringsim::cache {
namespace {

Geometry
smallGeometry()
{
    Geometry g;
    g.sizeBytes = 1024; // 64 blocks
    g.blockBytes = 16;
    return g;
}

TEST(CoherentCache, MissWhenEmpty)
{
    CoherentCache c(smallGeometry());
    EXPECT_EQ(c.classify(0x100, false), AccessResult::Miss);
    EXPECT_EQ(c.classify(0x100, true), AccessResult::Miss);
    EXPECT_EQ(c.state(0x100), State::Invalid);
}

TEST(CoherentCache, ReadFillHits)
{
    CoherentCache c(smallGeometry());
    Victim v = c.fill(0x100, State::ReadShared);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.classify(0x100, false), AccessResult::Hit);
    EXPECT_EQ(c.classify(0x104, false), AccessResult::Hit)
        << "same block, different byte";
    EXPECT_EQ(c.state(0x100), State::ReadShared);
}

TEST(CoherentCache, WriteToSharedIsUpgrade)
{
    CoherentCache c(smallGeometry());
    c.fill(0x100, State::ReadShared);
    EXPECT_EQ(c.classify(0x100, true), AccessResult::UpgradeMiss);
    c.upgrade(0x100);
    EXPECT_EQ(c.classify(0x100, true), AccessResult::Hit);
    EXPECT_EQ(c.state(0x100), State::WriteExcl);
}

TEST(CoherentCache, InvalidateRemoves)
{
    CoherentCache c(smallGeometry());
    c.fill(0x100, State::ReadShared);
    EXPECT_EQ(c.invalidate(0x100), State::ReadShared);
    EXPECT_EQ(c.state(0x100), State::Invalid);
    // Invalidating an absent block is a no-op.
    EXPECT_EQ(c.invalidate(0x200), State::Invalid);
}

TEST(CoherentCache, DowngradeKeepsReadable)
{
    CoherentCache c(smallGeometry());
    c.fill(0x100, State::WriteExcl);
    c.downgrade(0x100);
    EXPECT_EQ(c.state(0x100), State::ReadShared);
    EXPECT_EQ(c.classify(0x100, true), AccessResult::UpgradeMiss);
}

TEST(CoherentCache, DirectMappedConflictEvicts)
{
    CoherentCache c(smallGeometry());
    Geometry g = smallGeometry();
    Addr a = 0x100;
    Addr b = a + g.sets() * g.blockBytes; // same set, different tag
    c.fill(a, State::ReadShared);
    Victim v = c.fill(b, State::ReadShared);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr, g.blockBase(a));
    EXPECT_EQ(v.state, State::ReadShared);
    EXPECT_EQ(c.state(a), State::Invalid);
    EXPECT_EQ(c.state(b), State::ReadShared);
}

TEST(CoherentCache, DirtyEvictionIsWriteback)
{
    CoherentCache c(smallGeometry());
    Geometry g = smallGeometry();
    Addr a = 0x100;
    Addr b = a + g.sets() * g.blockBytes;
    c.fill(a, State::WriteExcl);
    Victim v = c.fill(b, State::ReadShared);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.state, State::WriteExcl);
    EXPECT_EQ(c.writebacks().value(), 1u);
    EXPECT_EQ(c.evictions().value(), 1u);
}

TEST(CoherentCache, RefillPresentBlockDoesNotEvict)
{
    CoherentCache c(smallGeometry());
    c.fill(0x100, State::ReadShared);
    Victim v = c.fill(0x100, State::WriteExcl);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.state(0x100), State::WriteExcl);
    EXPECT_EQ(c.validBlocks(), 1u);
}

TEST(CoherentCache, LruInSet)
{
    Geometry g = smallGeometry();
    g.assoc = 2;
    CoherentCache c(g);
    Addr stride = g.sets() * g.blockBytes;
    Addr a = 0x100;
    Addr b = a + stride;
    Addr d = a + 2 * stride;
    c.fill(a, State::ReadShared);
    c.fill(b, State::ReadShared);
    EXPECT_EQ(c.touchIfHit(a, false), AccessResult::Hit); // b is LRU
    Victim v = c.fill(d, State::ReadShared);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr, g.blockBase(b));
    EXPECT_EQ(c.state(a), State::ReadShared);
}

TEST(CoherentCache, HitStats)
{
    CoherentCache c(smallGeometry());
    EXPECT_EQ(c.touchIfHit(0x100, false), AccessResult::Miss);
    c.fill(0x100, State::ReadShared);
    EXPECT_EQ(c.touchIfHit(0x100, false), AccessResult::Hit);
    EXPECT_EQ(c.touchIfHit(0x104, false), AccessResult::Hit);
    EXPECT_EQ(c.touchIfHit(0x100, true), AccessResult::UpgradeMiss);
    EXPECT_EQ(c.hits().value(), 2u) << "only hits are recorded";
    EXPECT_EQ(c.fills().value(), 1u);
}

TEST(CoherentCache, ClearDropsEverything)
{
    CoherentCache c(smallGeometry());
    c.fill(0x100, State::WriteExcl);
    c.clear();
    EXPECT_EQ(c.validBlocks(), 0u);
    EXPECT_EQ(c.state(0x100), State::Invalid);
}

TEST(CoherentCacheDeathTest, MisusePanics)
{
    CoherentCache c(smallGeometry());
    EXPECT_DEATH(c.upgrade(0x100), "uncached");
    EXPECT_DEATH(c.downgrade(0x100), "uncached");
    c.fill(0x100, State::WriteExcl);
    EXPECT_DEATH(c.upgrade(0x100), "WE");
}

TEST(CoherentCache, StateNames)
{
    EXPECT_STREQ(stateName(State::Invalid), "INV");
    EXPECT_STREQ(stateName(State::ReadShared), "RS");
    EXPECT_STREQ(stateName(State::WriteExcl), "WE");
}

} // namespace
} // namespace ringsim::cache
