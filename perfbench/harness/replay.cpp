/**
 * @file
 * Layer-by-layer replay of a figure sweep.
 *
 * The replay calls the same public functions the library composes
 * internally, with a span around each call, so the per-layer numbers
 * describe the work an untraced run does. The figure block plans below
 * mirror src/figures/figures.cpp (buildFig4/buildFig6); the replayed
 * rows are assembled with figures::assembleFigure(), so a plan that
 * drifts from the library shows up as a digest mismatch, not as
 * silently different work.
 */

#include <functional>

#include "coherence/engine.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "model/bus_model.hpp"
#include "model/ring_model.hpp"
#include "runner/experiment_runner.hpp"
#include "trace/generator.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace perfbench {

using namespace ringsim;

namespace {

enum class BlockKind { RingSeries, BusSeries, RingSim, BusSim };

struct Block
{
    BlockKind kind = BlockKind::RingSeries;
    trace::WorkloadConfig wl;
    Tick period = 0;
    model::RingProtocol protocol = model::RingProtocol::Snoop;
    core::ProtocolKind simKind = core::ProtocolKind::RingSnoop;
    std::string label;
    std::size_t censusSlot = 0;
};

struct Plan
{
    std::vector<trace::WorkloadConfig> calibrations;
    std::vector<Block> blocks;

    std::size_t slotFor(const trace::WorkloadConfig &wl)
    {
        for (std::size_t i = 0; i < calibrations.size(); ++i) {
            const trace::WorkloadConfig &c = calibrations[i];
            if (c.displayName() == wl.displayName() &&
                c.seed == wl.seed &&
                c.dataRefsPerProc == wl.dataRefsPerProc)
                return i;
        }
        calibrations.push_back(wl);
        return calibrations.size() - 1;
    }

    void ringSeries(const trace::WorkloadConfig &wl, Tick period,
                    model::RingProtocol protocol, const char *label)
    {
        Block b;
        b.kind = BlockKind::RingSeries;
        b.wl = wl;
        b.period = period;
        b.protocol = protocol;
        b.label = label;
        b.censusSlot = slotFor(wl);
        blocks.push_back(b);
    }

    void busSeries(const trace::WorkloadConfig &wl, Tick period,
                   const char *label)
    {
        Block b;
        b.kind = BlockKind::BusSeries;
        b.wl = wl;
        b.period = period;
        b.label = label;
        b.censusSlot = slotFor(wl);
        blocks.push_back(b);
    }

    void ringSim(const trace::WorkloadConfig &wl, Tick period,
                 core::ProtocolKind kind, const char *label)
    {
        Block b;
        b.kind = BlockKind::RingSim;
        b.wl = wl;
        b.period = period;
        b.simKind = kind;
        b.label = label;
        blocks.push_back(b);
    }

    void busSim(const trace::WorkloadConfig &wl, Tick period,
                const char *label)
    {
        Block b;
        b.kind = BlockKind::BusSim;
        b.wl = wl;
        b.period = period;
        b.label = label;
        blocks.push_back(b);
    }
};

Plan
planFor(figures::FigureId id, const figures::FigureOptions &opt)
{
    Plan plan;
    if (id == figures::FigureId::Fig4) {
        for (trace::Benchmark b : {trace::Benchmark::FFT,
                                   trace::Benchmark::WEATHER,
                                   trace::Benchmark::SIMPLE}) {
            trace::WorkloadConfig wl = trace::workloadPreset(b, 64);
            opt.apply(wl);
            plan.ringSeries(wl, 2000, model::RingProtocol::Snoop,
                            "snooping");
            plan.ringSeries(wl, 2000, model::RingProtocol::Directory,
                            "directory");
            plan.ringSim(wl, 2000, core::ProtocolKind::RingSnoop,
                         "snooping");
            plan.ringSim(wl, 2000, core::ProtocolKind::RingDirectory,
                         "directory");
        }
    } else if (id == figures::FigureId::Fig6) {
        for (trace::Benchmark b :
             {trace::Benchmark::MP3D, trace::Benchmark::WATER}) {
            for (unsigned procs : {8u, 16u, 32u}) {
                trace::WorkloadConfig wl =
                    trace::workloadPreset(b, procs);
                opt.apply(wl);
                plan.ringSeries(wl, 2000, model::RingProtocol::Snoop,
                                "ring 500MHz");
                plan.ringSeries(wl, 4000, model::RingProtocol::Snoop,
                                "ring 250MHz");
                plan.busSeries(wl, 10000, "bus 100MHz");
                plan.busSeries(wl, 20000, "bus 50MHz");
                plan.ringSim(wl, 2000, core::ProtocolKind::RingSnoop,
                             "ring 500MHz");
                plan.busSim(wl, 20000, "bus 50MHz");
            }
        }
    } else {
        panic("perfbench replays fig4 and fig6 only");
    }
    return plan;
}

figures::FigureRow
makeRow(const trace::WorkloadConfig &wl, const std::string &label,
        const char *source, double cycle_ns, double putil,
        double netutil, double lat)
{
    return {wl.displayName(), label, source, fmtDouble(cycle_ns, 0),
            fmtPercent(putil, 1), fmtPercent(netutil, 1),
            fmtDouble(lat, 0)};
}

/**
 * A calibration census, as model::calibrate computes it, with the
 * trace layer and the coherence layer in separate spans: the streams
 * are drained into memory first, then fed to a FunctionalEngine in
 * coherence::runFunctional's round-robin order.
 */
coherence::Census
replayCensus(const trace::WorkloadConfig &wl, SpanLog &spans,
             std::uint64_t parent, std::uint64_t request,
             LayerCounts *counts)
{
    std::uint64_t gen = spans.open("trace.gen", parent, request);
    trace::AddressMap map = trace::makeAddressMap(wl);
    std::vector<std::vector<trace::TraceRecord>> records(wl.procs);
    {
        trace::TraceSet streams = trace::makeTraceSet(wl, map);
        for (NodeId p = 0; p < wl.procs; ++p) {
            records[p] = trace::drain(*streams[p]);
            counts->traceRefs += records[p].size();
        }
    }
    spans.close(gen);

    SpanScope census_span(spans, "coherence.census", parent, request);
    coherence::EngineOptions options;
    options.geometry.blockBytes = wl.blockBytes;
    coherence::FunctionalEngine engine(map, options);

    auto warmup_target = static_cast<Count>(
        0.3 * static_cast<double>(wl.dataRefsPerProc));
    bool warmed = warmup_target == 0;
    std::vector<std::size_t> pos(wl.procs, 0);
    std::vector<Count> data_seen(wl.procs, 0);
    unsigned live = wl.procs;
    std::vector<bool> alive(wl.procs, true);
    while (live > 0) {
        for (NodeId p = 0; p < wl.procs; ++p) {
            if (!alive[p])
                continue;
            if (pos[p] >= records[p].size()) {
                alive[p] = false;
                --live;
                continue;
            }
            const trace::TraceRecord &rec = records[p][pos[p]++];
            engine.access(p, rec);
            ++counts->accesses;
            if (rec.isData())
                ++data_seen[p];
        }
        if (!warmed && data_seen[0] >= warmup_target) {
            engine.resetCensus();
            warmed = true;
        }
    }
    const coherence::Census &c = engine.census();
    counts->censuses += 1;
    counts->dataRefs += c.dataRefs();
    counts->hits += c.hits;
    counts->misses += c.misses();
    counts->upgrades += c.upgrades;
    counts->writebacks += c.writebacks;
    return c;
}

model::ModelResult
solveRingAt(const coherence::Census &census, unsigned procs, Tick period,
            model::RingProtocol protocol, double cycle_ns)
{
    model::RingModelInput in;
    in.census = census;
    in.ring = core::RingSystemConfig::forProcs(procs, period).ring;
    in.system.procCycle = nsToTicks(cycle_ns);
    in.protocol = protocol;
    return model::solveRing(in);
}

model::ModelResult
solveBusAt(const coherence::Census &census, unsigned procs, Tick period,
           double cycle_ns)
{
    model::BusModelInput in;
    in.census = census;
    in.bus = core::BusSystemConfig::forProcs(procs, period).bus;
    in.system.procCycle = nsToTicks(cycle_ns);
    return model::solveBus(in);
}

void
countRun(const core::RunResult &r, const trace::WorkloadConfig &wl,
         LayerCounts *counts)
{
    counts->simRefs +=
        static_cast<std::uint64_t>(wl.procs) * wl.dataRefsPerProc;
    counts->windowTicks += r.window;
    counts->remoteMisses += r.cleanMiss1 + r.dirtyMiss1 + r.miss2;
    counts->simUpgrades += r.upgrades;
}

std::vector<figures::FigureRow>
replayBlock(const Block &block, const coherence::Census *census,
            SpanLog &spans, std::uint64_t parent, std::uint64_t request,
            LayerCounts *counts)
{
    SpanScope block_span(spans, "figures.block", parent, request);
    std::vector<figures::FigureRow> rows;
    const trace::WorkloadConfig &wl = block.wl;
    if (block.kind == BlockKind::RingSeries ||
        block.kind == BlockKind::BusSeries) {
        for (double cycle_ns : figures::cycleSweepNs()) {
            model::ModelResult r;
            {
                SpanScope solve(spans, "model.solve", block_span.id(),
                                request);
                r = block.kind == BlockKind::RingSeries
                        ? solveRingAt(*census, wl.procs, block.period,
                                      block.protocol, cycle_ns)
                        : solveBusAt(*census, wl.procs, block.period,
                                     cycle_ns);
            }
            counts->solves += 1;
            rows.push_back(makeRow(wl, block.label, "model", cycle_ns,
                                   r.procUtilization,
                                   r.networkUtilization,
                                   r.missLatencyNs));
        }
        return rows;
    }
    core::RunResult r;
    {
        SpanScope run(spans, "core.run", block_span.id(), request);
        if (block.kind == BlockKind::RingSim) {
            r = core::runRingSystem(
                core::RingSystemConfig::forProcs(wl.procs, block.period),
                wl, block.simKind);
        } else {
            r = core::runBusSystem(
                core::BusSystemConfig::forProcs(wl.procs, block.period),
                wl);
        }
    }
    if (block.kind == BlockKind::RingSim)
        counts->ringRuns += 1;
    else
        counts->busRuns += 1;
    countRun(r, wl, counts);
    rows.push_back(makeRow(wl, block.label, "sim", 20, r.procUtilization,
                           r.networkUtilization, r.missLatencyNs));
    return rows;
}

/**
 * Run @p jobs on a fresh ExperimentRunner, one runner.job span each,
 * and add their queue wait, run time and the longest run to @p runner.
 */
void
runPhase(std::vector<std::function<void(std::uint64_t, std::uint64_t)>>
             jobs,
         unsigned threads, SpanLog &spans, std::uint64_t parent,
         RunnerTimes *runner)
{
    std::vector<double> submitted(jobs.size(), 0);
    std::vector<double> started(jobs.size(), 0);
    std::vector<double> ended(jobs.size(), 0);
    {
        runner::ExperimentRunner pool(threads);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            submitted[i] = nowS();
            pool.submit([&, i]() {
                started[i] = nowS();
                std::uint64_t request = spans.newRequest();
                {
                    SpanScope job(spans, "runner.job", parent, request);
                    jobs[i](job.id(), request);
                }
                ended[i] = nowS();
            });
        }
        pool.wait();
    }
    double longest = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        runner->queueWaitS += started[i] - submitted[i];
        runner->busyS += ended[i] - started[i];
        longest = std::max(longest, ended[i] - started[i]);
    }
    runner->criticalS += longest;
    runner->jobs += jobs.size();
}

} // namespace

std::string
replayFigure(figures::FigureId id, const figures::FigureOptions &opt,
             unsigned threads, SpanLog &spans, std::uint64_t parent,
             LayerCounts *counts, RunnerTimes *runner)
{
    const double t0 = nowS();
    Plan plan = planFor(id, opt);
    runner->threads = runner::resolveJobs(threads);

    // Phase 1: one census per distinct workload.
    std::vector<coherence::Census> censuses(plan.calibrations.size());
    std::vector<LayerCounts> calib_counts(plan.calibrations.size());
    std::vector<std::function<void(std::uint64_t, std::uint64_t)>> jobs;
    for (std::size_t i = 0; i < plan.calibrations.size(); ++i) {
        jobs.push_back([&, i](std::uint64_t job, std::uint64_t request) {
            censuses[i] = replayCensus(plan.calibrations[i], spans, job,
                                       request, &calib_counts[i]);
        });
    }
    runPhase(std::move(jobs), threads, spans, parent, runner);

    // Phase 2: every block is one job.
    std::vector<std::vector<figures::FigureRow>> rows(plan.blocks.size());
    std::vector<LayerCounts> block_counts(plan.blocks.size());
    jobs.clear();
    for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
        jobs.push_back([&, i](std::uint64_t job, std::uint64_t request) {
            const Block &block = plan.blocks[i];
            bool series = block.kind == BlockKind::RingSeries ||
                          block.kind == BlockKind::BusSeries;
            rows[i] = replayBlock(
                block, series ? &censuses[block.censusSlot] : nullptr,
                spans, job, request, &block_counts[i]);
        });
    }
    runPhase(std::move(jobs), threads, spans, parent, runner);

    for (const LayerCounts &c : calib_counts)
        counts->add(c);
    for (const LayerCounts &c : block_counts)
        counts->add(c);
    counts->blocks += plan.blocks.size();
    std::string text = figures::assembleFigure(id, opt, rows);
    runner->wallS += nowS() - t0;
    return text;
}

} // namespace perfbench
