#include "figures.hpp"

#include <sstream>

#include "coherence/driver.hpp"
#include "runner/experiment_runner.hpp"
#include "util/logging.hpp"

namespace ringsim::figures {

const std::vector<double> &
cycleSweepNs()
{
    static const std::vector<double> sweep = {1,  2,  3,  4,  5, 6,
                                              8,  10, 12, 14, 16, 20};
    return sweep;
}

void
FigureOptions::apply(trace::WorkloadConfig &cfg) const
{
    cfg.dataRefsPerProc = fast ? refs / 4 : refs;
    cfg.seed = seed;
}

void
FigureSweep::addCensusBlock(const trace::WorkloadConfig &wl, RowsFn rows)
{
    std::string key = wl.displayName() + "/" + std::to_string(wl.seed) +
                      "/" + std::to_string(wl.dataRefsPerProc);
    std::size_t slot = 0;
    while (slot < calibrations_.size() && calibrations_[slot].key != key)
        ++slot;
    if (slot == calibrations_.size())
        calibrations_.push_back({wl, std::move(key)});
    blocks_.push_back({std::move(rows), slot, false});
}

void
FigureSweep::addBlock(bool sim, RowsFn rows)
{
    blocks_.push_back({std::move(rows), kNoCensus, sim});
}

std::vector<FigureRow>
FigureSweep::blockRows(const Block &block,
                       const coherence::Census *census) const
{
    // Degraded tier: the sim blocks are the expensive half; model-only
    // output simply omits their rows.
    if (block.sim && opt_.modelOnly)
        return {};
    return block.rows(census);
}

std::vector<std::vector<FigureRow>>
FigureSweep::run() const
{
    // Phase 1: one census job per distinct workload. Blocks
    // without a census are not held up by this phase in principle; in
    // practice censuses are the cheaper half and the two-phase
    // structure keeps result wiring trivial.
    std::vector<std::function<coherence::Census()>> census_tasks;
    census_tasks.reserve(calibrations_.size());
    for (const Calibration &c : calibrations_)
        census_tasks.push_back(
            [&c]() { return coherence::runFunctional(c.wl); });
    std::vector<coherence::Census> censuses =
        runner::runAll(std::move(census_tasks), opt_.jobs);

    // Phase 2: every registered block is one job producing its rows.
    // Blocks the degraded tier skips still occupy their index (with
    // empty rows), so the result aligns with the block index space
    // that sweep-part jobs shard over.
    std::vector<std::function<std::vector<FigureRow>()>> block_tasks;
    block_tasks.reserve(blocks_.size());
    for (const Block &block : blocks_) {
        const coherence::Census *census =
            block.census == kNoCensus ? nullptr : &censuses[block.census];
        block_tasks.push_back(
            [this, &block, census]() { return blockRows(block, census); });
    }
    return runner::runAll(std::move(block_tasks), opt_.jobs);
}

std::vector<FigureRow>
FigureSweep::runBlock(std::size_t index) const
{
    if (index >= blocks_.size())
        panic("figure block index %zu out of range (%zu blocks)",
              index, blocks_.size());
    const Block &block = blocks_[index];
    if (block.census == kNoCensus)
        return blockRows(block, nullptr);
    const Calibration &c = calibrations_[block.census];
    coherence::Census census = coherence::runFunctional(c.wl);
    return blockRows(block, &census);
}

bool
FigureSweep::hasModelTier() const
{
    bool sim = false;
    bool model = false;
    for (const Block &block : blocks_) {
        sim = sim || block.sim;
        model = model || !block.sim;
    }
    return sim && model;
}

const char *
figureName(FigureId id)
{
    return artifact(id).name;
}

bool
tryFigureFromName(const std::string &name, FigureId *out)
{
    for (FigureId id : allFigures()) {
        if (name == artifact(id).name) {
            *out = id;
            return true;
        }
    }
    return false;
}

std::string
figureTitle(FigureId id)
{
    return artifact(id).title;
}

FigureSweep
buildFigure(FigureId id, const FigureOptions &opt, bool fig6_cholesky)
{
    FigureSweep sweep(opt);
    artifact(id).build(sweep, fig6_cholesky);
    return sweep;
}

bool
figureHasModelTier(FigureId id)
{
    return buildFigure(id, FigureOptions{}).hasModelTier();
}

std::string
renderTable(const std::string &title, const TextTable &table, bool csv)
{
    std::ostringstream os;
    if (csv) {
        table.printCsv(os);
    } else {
        os << "\n== " << title << " ==\n";
        table.print(os);
    }
    return os.str();
}

namespace {

/** The artifact's table over @p rows_per_block, rendered. */
std::string
renderRows(FigureId id,
           const std::vector<std::vector<FigureRow>> &rows_per_block,
           bool csv)
{
    const Artifact &a = artifact(id);
    TextTable table(a.columns);
    for (const std::vector<FigureRow> &rows : rows_per_block) {
        for (const FigureRow &row : rows)
            table.addRow(row);
    }
    return renderTable(a.title, table, csv);
}

} // namespace

std::string
renderFigure(FigureId id, const FigureOptions &opt, bool csv,
             bool fig6_cholesky)
{
    return renderRows(id, buildFigure(id, opt, fig6_cholesky).run(), csv);
}

std::size_t
figureBlockCount(FigureId id, const FigureOptions &opt,
                 bool fig6_cholesky)
{
    return buildFigure(id, opt, fig6_cholesky).blockCount();
}

std::vector<FigureRow>
runFigureBlock(FigureId id, const FigureOptions &opt,
               std::size_t block, bool fig6_cholesky)
{
    return buildFigure(id, opt, fig6_cholesky).runBlock(block);
}

std::string
assembleFigure(FigureId id, const FigureOptions &opt,
               const std::vector<std::vector<FigureRow>> &rows_per_block,
               bool csv, bool fig6_cholesky)
{
    std::size_t blocks = figureBlockCount(id, opt, fig6_cholesky);
    if (rows_per_block.size() != blocks)
        panic("%s assembly expects %zu block row sets, got %zu",
              figureName(id), blocks, rows_per_block.size());
    return renderRows(id, rows_per_block, csv);
}

} // namespace ringsim::figures
