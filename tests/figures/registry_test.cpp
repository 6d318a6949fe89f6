/**
 * @file
 * Properties every registered paper artifact must keep, at tiny refs:
 *
 *  - assembling runFigureBlock(0..n-1) reproduces renderFigure byte
 *    for byte (the contract behind the fleet's sweep split);
 *  - the output is independent of the sweep's worker count;
 *  - the wire name round-trips through the registry.
 */

#include <gtest/gtest.h>

#include "src/figures/figures.hpp"

namespace ringsim::figures {
namespace {

FigureOptions
tinyOptions(unsigned jobs)
{
    FigureOptions opt;
    opt.refs = 600;
    opt.fast = true;
    opt.jobs = jobs;
    return opt;
}

class RegistryTest : public ::testing::TestWithParam<FigureId>
{
};

TEST_P(RegistryTest, BlocksAssembleToRender)
{
    const FigureId id = GetParam();
    const FigureOptions opt = tinyOptions(2);
    // Figure 6 also registers a CHOLESKY variant; check both plans.
    for (bool cholesky : {false, id == FigureId::Fig6}) {
        std::size_t blocks = figureBlockCount(id, opt, cholesky);
        ASSERT_GT(blocks, 0u);
        std::vector<std::vector<FigureRow>> rows;
        for (std::size_t i = 0; i < blocks; ++i)
            rows.push_back(runFigureBlock(id, opt, i, cholesky));
        for (bool csv : {false, true}) {
            EXPECT_EQ(assembleFigure(id, opt, rows, csv, cholesky),
                      renderFigure(id, opt, csv, cholesky))
                << "csv=" << csv << " cholesky=" << cholesky;
        }
    }
}

TEST_P(RegistryTest, OutputIndependentOfJobs)
{
    const FigureId id = GetParam();
    EXPECT_EQ(renderFigure(id, tinyOptions(1)),
              renderFigure(id, tinyOptions(4)));
}

TEST_P(RegistryTest, NameRoundTrips)
{
    const FigureId id = GetParam();
    FigureId parsed = id == FigureId::Fig3 ? FigureId::Fig4
                                           : FigureId::Fig3;
    ASSERT_TRUE(tryFigureFromName(figureName(id), &parsed));
    EXPECT_EQ(parsed, id);
    EXPECT_EQ(artifact(id).id, id);
    EXPECT_FALSE(figureTitle(id).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Artifacts, RegistryTest, ::testing::ValuesIn(allFigures()),
    [](const ::testing::TestParamInfo<FigureId> &info) {
        return std::string(figureName(info.param));
    });

TEST(Registry, UnknownNameRejected)
{
    FigureId id = FigureId::Fig4;
    EXPECT_FALSE(tryFigureFromName("fig9", &id));
    EXPECT_EQ(id, FigureId::Fig4);
}

} // namespace
} // namespace ringsim::figures
