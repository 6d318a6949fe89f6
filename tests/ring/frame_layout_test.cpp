/**
 * @file
 * Unit tests for frame geometry, including the full Table 3 matrix.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "src/ring/frame_layout.hpp"

namespace ringsim::ring {
namespace {

TEST(FrameLayout, PaperDefaultIsTenStages)
{
    FrameLayout f; // 32-bit, 16-byte blocks
    f.validate();
    EXPECT_EQ(f.probeStages(), 2u);
    EXPECT_EQ(f.blockSlotStages(), 6u); // 2 header + 4 data
    EXPECT_EQ(f.frameStages(), 10u);
}

TEST(FrameLayout, SlotOffsets)
{
    FrameLayout f;
    EXPECT_EQ(f.slotOffset(0), 0u);
    EXPECT_EQ(f.slotOffset(1), 2u);
    EXPECT_EQ(f.slotOffset(2), 4u);
}

TEST(FrameLayout, SlotTypes)
{
    EXPECT_EQ(FrameLayout::slotTypeAt(0), SlotType::ProbeEven);
    EXPECT_EQ(FrameLayout::slotTypeAt(1), SlotType::ProbeOdd);
    EXPECT_EQ(FrameLayout::slotTypeAt(2), SlotType::Block);
}

TEST(FrameLayout, SlotStagesByType)
{
    FrameLayout f;
    EXPECT_EQ(f.slotStages(SlotType::ProbeEven), 2u);
    EXPECT_EQ(f.slotStages(SlotType::ProbeOdd), 2u);
    EXPECT_EQ(f.slotStages(SlotType::Block), 6u);
}

TEST(FrameLayout, WiderLinksShrinkFrames)
{
    FrameLayout f;
    f.linkBits = 64;
    EXPECT_EQ(f.probeStages(), 1u);
    EXPECT_EQ(f.blockSlotStages(), 3u);
    EXPECT_EQ(f.frameStages(), 5u);
}

// gtest names each case by the raw bytes of its parameter, so the case
// must have no padding: uninitialised padding made the names vary from
// build to build. A 64-bit linkBits keeps every byte defined.
struct Table3Case
{
    std::uint64_t linkBits;
    size_t blockBytes;
    double paperNs;
};

static_assert(sizeof(Table3Case) == 24,
              "Table3Case must have no padding bytes");

class Table3 : public ::testing::TestWithParam<Table3Case>
{
};

TEST_P(Table3, SnoopInterArrivalMatchesPaper)
{
    const Table3Case &c = GetParam();
    Tick t = snoopInterArrival(static_cast<unsigned>(c.linkBits),
                               c.blockBytes, 2000);
    EXPECT_DOUBLE_EQ(ticksToNs(t), c.paperNs);
}

INSTANTIATE_TEST_SUITE_P(
    PaperMatrix, Table3,
    ::testing::Values(Table3Case{16, 16, 40}, Table3Case{32, 16, 20},
                      Table3Case{64, 16, 10}, Table3Case{16, 32, 56},
                      Table3Case{32, 32, 28}, Table3Case{64, 32, 14},
                      Table3Case{16, 64, 88}, Table3Case{32, 64, 44},
                      Table3Case{64, 64, 22}, Table3Case{16, 128, 152},
                      Table3Case{32, 128, 76},
                      Table3Case{64, 128, 38}));

TEST(FrameLayoutDeathTest, BadWidthFatal)
{
    FrameLayout f;
    f.linkBits = 12;
    EXPECT_EXIT(f.validate(), testing::ExitedWithCode(1), "multiple");
}

TEST(FrameLayout, BlockShiftIsLog2ForPowersOfTwo)
{
    FrameLayout f;
    f.blockBytes = 1;
    EXPECT_EQ(f.blockShift(), 0);
    f.blockBytes = 8;
    EXPECT_EQ(f.blockShift(), 3);
    f.blockBytes = 16;
    EXPECT_EQ(f.blockShift(), 4);
    f.blockBytes = 32;
    EXPECT_EQ(f.blockShift(), 5);
    f.blockBytes = 128;
    EXPECT_EQ(f.blockShift(), 7);
}

TEST(FrameLayout, BlockShiftRejectsNonPowersOfTwo)
{
    FrameLayout f;
    f.blockBytes = 0;
    EXPECT_EQ(f.blockShift(), -1);
    f.blockBytes = 24;
    EXPECT_EQ(f.blockShift(), -1);
    f.blockBytes = 48;
    EXPECT_EQ(f.blockShift(), -1);
    f.blockBytes = 100;
    EXPECT_EQ(f.blockShift(), -1);
}

TEST(FrameLayout, ProbeParityShiftMatchesDivide)
{
    // SlotRing::probeTypeFor picks the probe parity with the cached
    // shift on the slot-insert hot path; the divide remains the
    // specification (and the fallback for non-power-of-two layouts).
    // Pin their agreement across every Table 3 block size and an
    // address sweep that crosses block boundaries, both parities, and
    // the high bits.
    for (size_t block_bytes : {16u, 32u, 64u, 128u}) {
        FrameLayout f;
        f.blockBytes = block_bytes;
        int shift = f.blockShift();
        ASSERT_GE(shift, 0) << "block size " << block_bytes;
        std::vector<Addr> addrs;
        for (Addr a = 0; a < 4 * 128; ++a)
            addrs.push_back(a);
        for (Addr a : {Addr{0xdeadbeef}, Addr{0x7fffffffffffffff},
                       Addr{1} << 40, (Addr{1} << 40) + block_bytes})
            addrs.push_back(a);
        for (Addr addr : addrs) {
            Addr by_shift = addr >> static_cast<unsigned>(shift);
            Addr by_divide = addr / block_bytes;
            EXPECT_EQ(by_shift % 2, by_divide % 2)
                << "block " << block_bytes << " addr " << addr;
        }
    }
}

TEST(FrameLayout, SlotTypeNames)
{
    EXPECT_STREQ(slotTypeName(SlotType::ProbeEven), "probe-even");
    EXPECT_STREQ(slotTypeName(SlotType::Block), "block");
}

} // namespace
} // namespace ringsim::ring
