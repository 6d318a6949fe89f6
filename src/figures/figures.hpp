/**
 * @file
 * Every artifact of the paper as a registered sweep.
 *
 * Each table, figure and ablation has the paper's Section 4.0 shape:
 * calibrate a census per workload, fan out model or simulation
 * points, and print rows in a fixed order. This module defines all of
 * them (Tables 1-4, Figures 3-6, the ring, latency-tolerance and
 * register-insertion ablations) in one registry, and every front end
 * executes the identical sweep:
 *
 *  - the bench binaries (bench/artifact_main.cpp, built once per
 *    artifact name) for direct command-line reproduction;
 *  - the experiment service (src/service/), whose sweep job executes
 *    an artifact through this library and memoizes the rendered
 *    output under a content-addressed key;
 *  - the fleet coordinator (src/fleet/), which splits a sweep into
 *    its registered blocks across workers and reassembles them.
 *
 * Byte-identity between the paths is by construction: all of them
 * call renderFigure() (or assembleFigure() over runFigureBlock()) with
 * the same FigureOptions, so the service can legally serve a cached
 * result where a direct run would recompute.
 *
 * A block is census-based (its rows are computed from the census of
 * one workload), a timed simulation ("sim", skipped by the degraded
 * model-only tier), or a pure computation. An artifact with both
 * model and sim blocks has a model tier (figureHasModelTier()).
 *
 * Fault injection: a non-zero FigureOptions::faults is applied to the
 * sim validation points of Figures 3, 4 and 6 (the analytic-model
 * series stay fault-free — the model has no fault dimension). The
 * all-zero default leaves every artifact byte-identical to builds
 * without the fault subsystem.
 */

#ifndef RINGSIM_FIGURES_FIGURES_HPP
#define RINGSIM_FIGURES_FIGURES_HPP

#include <functional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fault/fault.hpp"
#include "model/bus_model.hpp"
#include "coherence/census.hpp"
#include "model/ring_model.hpp"
#include "util/table.hpp"

namespace ringsim::figures {

/** Processor cycle sweep of the figures, in ns (x axes, 1..20). */
const std::vector<double> &cycleSweepNs();

/** One rendered table row (the cells of the artifact's columns). */
using FigureRow = std::vector<std::string>;

/** Options one artifact sweep runs under (a subset of bench flags). */
struct FigureOptions
{
    Count refs = 120'000;       //!< data references per processor
    std::uint64_t seed = 12345; //!< master workload seed
    bool fast = false;          //!< quarter-length traces
    unsigned jobs = 0;          //!< sweep worker threads; 0 = auto
    fault::FaultConfig faults;  //!< applied to sim validation points

    /**
     * Skip the timed sim blocks and emit the rest only. This is the
     * service's degraded answer tier: the model half of a figure
     * costs milliseconds where the sim half costs seconds, at the
     * paper's ~15% accuracy envelope.
     */
    bool modelOnly = false;

    /**
     * Apply refs/seed/fast to a workload preset: the one
     * workload-sizing rule of every bench, sweep and service job.
     */
    void apply(trace::WorkloadConfig &cfg) const;
};

/**
 * Declarative artifact sweep: register blocks, then run() them as
 * parallel jobs — every distinct census first, then every block.
 */
class FigureSweep
{
  public:
    /** Rows of one block from its census (null without a census). */
    using RowsFn =
        std::function<std::vector<FigureRow>(const coherence::Census *)>;

    explicit FigureSweep(const FigureOptions &opt) : opt_(opt) {}

    const FigureOptions &options() const { return opt_; }

    /**
     * Register a block whose rows are computed from the census of
     * @p wl (coherence::runFunctional). Blocks naming the same
     * workload share one census job in run().
     */
    void addCensusBlock(const trace::WorkloadConfig &wl, RowsFn rows);

    /**
     * Register a block without a census: a timed simulation when
     * @p sim (no rows under FigureOptions::modelOnly), else a pure
     * computation.
     */
    void addBlock(bool sim, RowsFn rows);

    /**
     * Execute all registered blocks — census jobs first (one per
     * distinct census), then every block as its own job — and return
     * the rows of each block, in block order. Uses opt.jobs workers.
     */
    std::vector<std::vector<FigureRow>> run() const;

    /**
     * Number of registered blocks. The block index space is the unit
     * of fleet sweep sharding: a sweep job with part=i computes
     * exactly runBlock(i), and assembling all parts reproduces run()
     * byte-identically.
     */
    std::size_t blockCount() const { return blocks_.size(); }

    /**
     * Execute one registered block and return its rows. A census
     * block computes its own census (the census is deterministic, so a census recomputed on another worker yields
     * the same rows as run()'s shared census). Under opt.modelOnly a
     * sim block returns no rows, mirroring run(). Panics on an
     * out-of-range index — callers validate against blockCount().
     */
    std::vector<FigureRow> runBlock(std::size_t index) const;

    /** True when both sim and non-sim blocks are registered. */
    bool hasModelTier() const;

  private:
    static constexpr std::size_t kNoCensus = static_cast<std::size_t>(-1);

    struct Block
    {
        RowsFn rows;
        std::size_t census = kNoCensus; //!< calibrations_ slot
        bool sim = false;
    };

    struct Calibration
    {
        trace::WorkloadConfig wl;
        std::string key;
    };

    std::vector<FigureRow> blockRows(const Block &block,
                                     const coherence::Census *census) const;

    FigureOptions opt_;
    std::vector<Block> blocks_;
    std::vector<Calibration> calibrations_;
};

/** The paper artifacts this library can build, in registry order. */
enum class FigureId {
    Table1,                   //!< ring traversals per transaction
    Table2,                   //!< trace characteristics
    Table3,                   //!< snooping rate per directory bank
    Table4,                   //!< bus clock matching ring utilization
    Fig3,                     //!< snooping vs directory, SPLASH 8/16/32
    Fig4,                     //!< snooping vs directory, 64 CPUs
    Fig5,                     //!< directory remote-miss breakdown
    Fig6,                     //!< ring (250/500 MHz) vs bus (50/100 MHz)
    AblationRing,             //!< anti-starvation, link width, clock
    AblationLatencyTolerance, //!< store buffers on ring vs bus
    AblationInsertionRing,    //!< slotted vs register insertion
};

/** One registered artifact: how it is named, titled and built. */
struct Artifact
{
    FigureId id;
    const char *name;  //!< wire name ("table1", "fig3", ...)
    const char *title; //!< title line of the emitted table
    std::vector<std::string> columns;
    /** Register the artifact's blocks (cholesky: Figure 6 only). */
    void (*build)(FigureSweep &sweep, bool cholesky);
};

/** The registry entry of @p id. */
const Artifact &artifact(FigureId id);

/** Every registered artifact id, in registry order. */
const std::vector<FigureId> &allFigures();

/** Wire name of @p id ("table1", "fig3", "ablation_ring", ...). */
const char *figureName(FigureId id);

/**
 * Parse a wire name. Returns false (leaving @p out alone) on an
 * unknown name.
 */
[[nodiscard]] bool tryFigureFromName(const std::string &name,
                                     FigureId *out);

/** Title line of the artifact's emitted table. */
std::string figureTitle(FigureId id);

/**
 * Build the registered sweep of @p id under @p opt. Figure 6
 * optionally includes CHOLESKY (the paper omits it for space).
 */
FigureSweep buildFigure(FigureId id, const FigureOptions &opt,
                        bool fig6_cholesky = false);

/**
 * Does @p id have a model tier — both model and sim blocks, so a
 * model-only render is a cheaper, still meaningful answer? Decides
 * which sweeps the service may degrade.
 */
bool figureHasModelTier(FigureId id);

/**
 * Render @p table the way every bench prints it: the title line plus
 * the aligned table, or CSV when @p csv.
 */
std::string renderTable(const std::string &title, const TextTable &table,
                        bool csv);

/**
 * Execute @p id and render the complete bench output (title line plus
 * table, or CSV when @p csv) exactly as the bench binary prints it.
 * This is the unit of work the experiment service caches.
 */
std::string renderFigure(FigureId id, const FigureOptions &opt,
                         bool csv = false, bool fig6_cholesky = false);

/** Block count of @p id under @p opt (the sweep-part index space). */
std::size_t figureBlockCount(FigureId id, const FigureOptions &opt,
                             bool fig6_cholesky = false);

/**
 * Execute one block of @p id (see FigureSweep::runBlock). This is the
 * unit of work a fleet worker performs for a sweep-part job.
 */
std::vector<FigureRow> runFigureBlock(FigureId id,
                                      const FigureOptions &opt,
                                      std::size_t block,
                                      bool fig6_cholesky = false);

/**
 * Render @p rows_per_block (one entry per block, in block order) into
 * the complete bench output. assembleFigure() over runFigureBlock()
 * results equals renderFigure() byte-for-byte — the contract that
 * legalizes fleet sweep splitting.
 */
std::string
assembleFigure(FigureId id, const FigureOptions &opt,
               const std::vector<std::vector<FigureRow>> &rows_per_block,
               bool csv = false, bool fig6_cholesky = false);

} // namespace ringsim::figures

#endif // RINGSIM_FIGURES_FIGURES_HPP
