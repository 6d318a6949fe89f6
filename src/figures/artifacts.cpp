/**
 * @file
 * The registry: every paper artifact's title, columns and blocks.
 *
 * Each entry's comment carries the paper's shape notes for that
 * artifact: what it reproduces and what the output should look like.
 */

#include <array>

#include "figures.hpp"
#include "model/matcher.hpp"
#include "ring/frame_layout.hpp"
#include "util/logging.hpp"

namespace ringsim::figures {

namespace {

using Census = coherence::Census;
using Rows = std::vector<FigureRow>;

double
pct(Count n, Count total)
{
    return total ? 100.0 * static_cast<double>(n) /
                       static_cast<double>(total)
                 : 0.0;
}

trace::WorkloadConfig
preset(const FigureSweep &sweep, trace::Benchmark b, unsigned procs)
{
    trace::WorkloadConfig wl = trace::workloadPreset(b, procs);
    sweep.options().apply(wl);
    return wl;
}

// --- Table 1 ----------------------------------------------------------
//
// Distribution of the number of ring traversals, full-map directory vs
// SCI-style linked list, for remote misses and invalidations of the
// three 16-processor SPLASH workloads. Paper reference values are
// printed beside the measured ones.

/** Paper Table 1 values, in % (full map / linked list). */
struct Table1Paper
{
    trace::Benchmark benchmark;
    double missFull[3]; //!< 1 / 2 / 3+ traversals
    double missList[3];
    double invFull[3];
    double invList[3];
};

const Table1Paper table1Paper[] = {
    {trace::Benchmark::MP3D, {70.5, 29.5, 0.0}, {67.0, 32.0, 1.0},
     {12.6, 87.4, 0.0}, {7.1, 87.7, 5.2}},
    {trace::Benchmark::WATER, {72.4, 27.6, 0.0}, {53.5, 45.9, 0.6},
     {12.6, 87.4, 0.0}, {7.2, 88.6, 4.2}},
    {trace::Benchmark::CHOLESKY, {84.5, 15.5, 0.0}, {66.5, 31.5, 1.8},
     {17.1, 82.9, 0.0}, {5.2, 75.5, 19.3}},
};

Rows
table1Rows(const trace::WorkloadConfig &wl, const Table1Paper &paper,
           const Census &census)
{
    struct Line
    {
        const char *txn;
        const char *proto;
        const double *paperVals;
        const std::array<Count, 4> *hist;
    };
    const Line lines[] = {
        {"miss", "full map", paper.missFull,
         &census.fullMap.missTraversals},
        {"miss", "linked list", paper.missList,
         &census.linkedList.missTraversals},
        {"invalidate", "full map", paper.invFull,
         &census.fullMap.invTraversals},
        {"invalidate", "linked list", paper.invList,
         &census.linkedList.invTraversals},
    };
    Rows rows;
    for (const Line &line : lines) {
        const auto &h = *line.hist;
        Count remote = h[1] + h[2] + h[3];
        rows.push_back({wl.displayName(), line.txn, line.proto,
                        fmtDouble(line.paperVals[0], 1),
                        fmtDouble(line.paperVals[1], 1),
                        fmtDouble(line.paperVals[2], 1),
                        fmtDouble(pct(h[1], remote), 1),
                        fmtDouble(pct(h[2], remote), 1),
                        fmtDouble(pct(h[3], remote), 1)});
    }
    return rows;
}

void
buildTable1(FigureSweep &sweep, bool)
{
    for (const Table1Paper &paper : table1Paper) {
        trace::WorkloadConfig wl = preset(sweep, paper.benchmark, 16);
        sweep.addCensusBlock(wl, [wl, &paper](const Census *c) {
            return table1Rows(wl, paper, *c);
        });
    }
}

// --- Table 2 ----------------------------------------------------------
//
// Trace characteristics of the twelve workloads under the paper's
// 128 KB direct-mapped / 16-byte-block cache. The paper's absolute
// reference counts come from multi-million-reference captured traces;
// ringsim's synthetic traces are shorter, so the comparable quantities
// are the mix fractions and the miss rates, printed against the
// paper's values.

Rows
table2Rows(const trace::WorkloadConfig &wl, const Census &c)
{
    return {{
        trace::benchmarkName(wl.benchmark),
        std::to_string(wl.procs),
        fmtPercent(static_cast<double>(c.sharedRefs()) /
                       static_cast<double>(c.dataRefs()),
                   1),
        fmtPercent(wl.targets.privateWriteFrac, 0),
        fmtPercent(c.privateWriteFrac(), 0),
        fmtPercent(wl.targets.sharedWriteFrac, 0),
        fmtPercent(c.sharedWriteFrac(), 0),
        fmtPercent(wl.targets.totalMissRate, 2),
        fmtPercent(c.totalMissRate(), 2),
        fmtPercent(wl.targets.sharedMissRate, 2),
        fmtPercent(c.sharedMissRate(), 2),
    }};
}

void
buildTable2(FigureSweep &sweep, bool)
{
    for (trace::WorkloadConfig wl : trace::allWorkloadPresets()) {
        sweep.options().apply(wl);
        sweep.addCensusBlock(
            wl, [wl](const Census *c) { return table2Rows(wl, *c); });
    }
}

// --- Table 3 ----------------------------------------------------------
//
// Minimum probe inter-arrival time ("snooping rate") per dual-directory
// bank, for ring widths of 16/32/64 bits and block sizes of 16..128
// bytes at 500 MHz, with a 2-way interleaved dual directory. Pure
// arithmetic: one block per block size.

/** Paper Table 3 (ns): rows = block size, cols = 16/32/64-bit. */
const double table3Paper[4][3] = {
    {40, 20, 10},
    {56, 28, 14},
    {88, 44, 22},
    {152, 76, 38},
};

void
buildTable3(FigureSweep &sweep, bool)
{
    static const std::size_t block_sizes[4] = {16, 32, 64, 128};
    static const unsigned widths[3] = {16, 32, 64};
    const Tick period = 2000; // 500 MHz
    for (unsigned row = 0; row < 4; ++row) {
        sweep.addBlock(false, [row, period](const Census *) -> Rows {
            FigureRow cells;
            cells.push_back(std::to_string(block_sizes[row]) + " bytes");
            for (unsigned col = 0; col < 3; ++col) {
                Tick ours = ring::snoopInterArrival(
                    widths[col], block_sizes[row], period);
                cells.push_back(fmtDouble(table3Paper[row][col], 0) +
                                " / " + fmtDouble(ticksToNs(ours), 0));
            }
            return {cells};
        });
    }
}

// --- Table 4 ----------------------------------------------------------
//
// The bus clock cycle (ns) a 64-bit split-transaction bus needs to
// match the processor utilization of 32-bit slotted rings clocked at
// 250 and 500 MHz, for processor speeds of 100/200/400 MIPS, on the
// three SPLASH workloads at 8/16/32 CPUs. Methodology exactly as in
// the paper: calibrate once per workload, evaluate the ring's
// utilization with the analytic model, then bisect the bus model's
// clock to the same utilization.

/** Paper Table 4 (ns): per benchmark row, 250 MHz then 500 MHz, at
 *  100/200/400 MIPS. */
struct Table4Paper
{
    trace::Benchmark benchmark;
    unsigned procs;
    double ring250[3];
    double ring500[3];
};

const Table4Paper table4Paper[] = {
    {trace::Benchmark::MP3D, 8, {12.5, 10.3, 8.9}, {7.8, 6.6, 5.6}},
    {trace::Benchmark::WATER, 8, {19.6, 19.1, 17.7}, {10.0, 10.0, 9.9}},
    {trace::Benchmark::CHOLESKY, 8, {12.8, 10.6, 9.0}, {7.6, 6.6, 5.7}},
    {trace::Benchmark::MP3D, 16, {9.0, 7.1, 6.2}, {6.5, 4.9, 4.0}},
    {trace::Benchmark::WATER, 16, {25.4, 21.4, 16.5},
     {14.1, 12.9, 10.9}},
    {trace::Benchmark::CHOLESKY, 16, {6.8, 5.4, 4.7}, {4.9, 3.7, 3.1}},
    {trace::Benchmark::MP3D, 32, {3.8, 3.7, 3.6}, {2.4, 2.1, 2.0}},
    {trace::Benchmark::WATER, 32, {21.4, 13.9, 9.2}, {16.2, 11.0, 7.3}},
    {trace::Benchmark::CHOLESKY, 32, {3.7, 3.5, 3.4}, {2.3, 2.0, 1.9}},
};

Rows
table4Rows(const trace::WorkloadConfig &wl, const Table4Paper &paper,
           const Census &census)
{
    static const double mips_points[3] = {100, 200, 400};
    Rows rows;
    for (unsigned ring_idx = 0; ring_idx < 2; ++ring_idx) {
        Tick ring_period = ring_idx == 0 ? 4000 : 2000;
        const double *paper_ns =
            ring_idx == 0 ? paper.ring250 : paper.ring500;

        FigureRow cells;
        cells.push_back(wl.displayName());
        cells.push_back(ring_idx == 0 ? "250" : "500");
        for (unsigned m = 0; m < 3; ++m) {
            Tick cycle = nsToTicks(1e3 / mips_points[m]);

            model::RingModelInput rin;
            rin.census = census;
            rin.ring =
                core::RingSystemConfig::forProcs(paper.procs, ring_period)
                    .ring;
            rin.system.procCycle = cycle;
            rin.protocol = model::RingProtocol::Snoop;
            double target = model::solveRing(rin).procUtilization;

            model::BusModelInput bin;
            bin.census = census;
            bin.bus = core::BusSystemConfig::forProcs(paper.procs).bus;
            bin.system.procCycle = cycle;
            double period_ns = model::matchBusClock(bin, target);

            cells.push_back(fmtDouble(paper_ns[m], 1) + " / " +
                            fmtDouble(period_ns, 1));
        }
        rows.push_back(std::move(cells));
    }
    return rows;
}

void
buildTable4(FigureSweep &sweep, bool)
{
    for (const Table4Paper &paper : table4Paper) {
        trace::WorkloadConfig wl =
            preset(sweep, paper.benchmark, paper.procs);
        sweep.addCensusBlock(wl, [wl, &paper](const Census *c) {
            return table4Rows(wl, paper, *c);
        });
    }
}

// --- Figures 3, 4 and 6: model series plus sim validation points ------

FigureRow
figureRow(const trace::WorkloadConfig &wl, const std::string &label,
          const char *source, double cycle_ns, double putil,
          double netutil, double lat)
{
    return {wl.displayName(), label, source, fmtDouble(cycle_ns, 0),
            fmtPercent(putil, 1), fmtPercent(netutil, 1),
            fmtDouble(lat, 0)};
}

/** The model-swept series of one ring configuration. */
void
addRingSeries(FigureSweep &sweep, const trace::WorkloadConfig &wl,
              Tick ring_period, model::RingProtocol protocol,
              const std::string &label)
{
    sweep.addCensusBlock(wl, [=](const Census *c) {
        Rows rows;
        for (double cycle_ns : cycleSweepNs()) {
            model::RingModelInput in;
            in.census = *c;
            in.ring =
                core::RingSystemConfig::forProcs(wl.procs, ring_period)
                    .ring;
            in.system.procCycle = nsToTicks(cycle_ns);
            in.protocol = protocol;
            model::ModelResult r = model::solveRing(in);
            rows.push_back(figureRow(wl, label, "model", cycle_ns,
                                     r.procUtilization,
                                     r.networkUtilization,
                                     r.missLatencyNs));
        }
        return rows;
    });
}

/** The model-swept series of one bus configuration. */
void
addBusSeries(FigureSweep &sweep, const trace::WorkloadConfig &wl,
             Tick bus_period, const std::string &label)
{
    sweep.addCensusBlock(wl, [=](const Census *c) {
        Rows rows;
        for (double cycle_ns : cycleSweepNs()) {
            model::BusModelInput in;
            in.census = *c;
            in.bus =
                core::BusSystemConfig::forProcs(wl.procs, bus_period).bus;
            in.system.procCycle = nsToTicks(cycle_ns);
            model::ModelResult r = model::solveBus(in);
            rows.push_back(figureRow(wl, label, "model", cycle_ns,
                                     r.procUtilization,
                                     r.networkUtilization,
                                     r.missLatencyNs));
        }
        return rows;
    });
}

/** The timed ring validation row (50 MIPS point). */
void
addRingSimPoint(FigureSweep &sweep, const trace::WorkloadConfig &wl,
                Tick ring_period, core::ProtocolKind kind,
                const std::string &label)
{
    const fault::FaultConfig faults = sweep.options().faults;
    sweep.addBlock(true, [=](const Census *) -> Rows {
        core::RingSystemConfig cfg =
            core::RingSystemConfig::forProcs(wl.procs, ring_period);
        cfg.common.faults = faults;
        core::RunResult r = core::runRingSystem(cfg, wl, kind);
        return {figureRow(wl, label, "sim", 20, r.procUtilization,
                          r.networkUtilization, r.missLatencyNs)};
    });
}

/** The timed bus validation row (50 MIPS point). */
void
addBusSimPoint(FigureSweep &sweep, const trace::WorkloadConfig &wl,
               Tick bus_period, const std::string &label)
{
    sweep.addBlock(true, [=](const Census *) -> Rows {
        core::BusSystemConfig cfg =
            core::BusSystemConfig::forProcs(wl.procs, bus_period);
        core::RunResult r = core::runBusSystem(cfg, wl);
        return {figureRow(wl, label, "sim", 20, r.procUtilization,
                          r.networkUtilization, r.missLatencyNs)};
    });
}

/** Snooping vs directory on one workload: two series, two sims. */
void
addSnoopVsDirectory(FigureSweep &sweep, const trace::WorkloadConfig &wl)
{
    addRingSeries(sweep, wl, 2000, model::RingProtocol::Snoop,
                  "snooping");
    addRingSeries(sweep, wl, 2000, model::RingProtocol::Directory,
                  "directory");
    addRingSimPoint(sweep, wl, 2000, core::ProtocolKind::RingSnoop,
                    "snooping");
    addRingSimPoint(sweep, wl, 2000, core::ProtocolKind::RingDirectory,
                    "directory");
}

// Figure 3: snooping vs full-map directory on 500 MHz 32-bit slotted
// rings — processor utilization, ring utilization and average miss
// latency vs processor cycle time, for MP3D, WATER and CHOLESKY at 8,
// 16 and 32 processors.
void
buildFig3(FigureSweep &sweep, bool)
{
    for (trace::Benchmark b : {trace::Benchmark::MP3D,
                               trace::Benchmark::WATER,
                               trace::Benchmark::CHOLESKY}) {
        for (unsigned procs : {8u, 16u, 32u})
            addSnoopVsDirectory(sweep, preset(sweep, b, procs));
    }
}

// Figure 4: snooping vs full-map directory on a 500 MHz 32-bit slotted
// ring for the 64-processor workloads FFT, WEATHER and SIMPLE. The
// block order is mirrored by perfbench's layer replay.
void
buildFig4(FigureSweep &sweep, bool)
{
    for (trace::Benchmark b : {trace::Benchmark::FFT,
                               trace::Benchmark::WEATHER,
                               trace::Benchmark::SIMPLE})
        addSnoopVsDirectory(sweep, preset(sweep, b, 64));
}

// Figure 6: 32-bit slotted rings (250 and 500 MHz, snooping) vs 64-bit
// split-transaction buses (50 and 100 MHz) on MP3D and WATER at 8, 16
// and 32 processors. Expected shapes (Section 4.3): the buses are
// competitive at 8 CPUs with slow processors, then saturate as
// processors speed up or the system grows; the rings' utilization
// stays below ~80% and their latencies stay stable. CHOLESKY behaves
// like MP3D (the paper omits it for space; --cholesky includes it).
// The block order is mirrored by perfbench's layer replay.
void
buildFig6(FigureSweep &sweep, bool cholesky)
{
    std::vector<trace::Benchmark> benchmarks = {trace::Benchmark::MP3D,
                                                trace::Benchmark::WATER};
    if (cholesky)
        benchmarks.push_back(trace::Benchmark::CHOLESKY);

    for (trace::Benchmark b : benchmarks) {
        for (unsigned procs : {8u, 16u, 32u}) {
            trace::WorkloadConfig wl = preset(sweep, b, procs);
            addRingSeries(sweep, wl, 2000, model::RingProtocol::Snoop,
                          "ring 500MHz");
            addRingSeries(sweep, wl, 4000, model::RingProtocol::Snoop,
                          "ring 250MHz");
            addBusSeries(sweep, wl, 10000, "bus 100MHz");
            addBusSeries(sweep, wl, 20000, "bus 50MHz");
            addRingSimPoint(sweep, wl, 2000,
                            core::ProtocolKind::RingSnoop,
                            "ring 500MHz");
            addBusSimPoint(sweep, wl, 20000, "bus 50MHz");
        }
    }
}

// --- Figure 5 ---------------------------------------------------------
//
// Breakdown of the remote-miss types in the full-map directory
// protocol — 1-cycle clean misses, 1-cycle dirty misses and 2-cycle
// misses — for all twelve workloads. Shape checks from the paper: the
// 1-cycle clean fraction grows with system size (random page placement
// sends a larger share of misses to remote homes); MP3D and FFT show
// substantial dirty/2-cycle fractions; WEATHER and SIMPLE are almost
// entirely 1-cycle clean.

void
buildFig5(FigureSweep &sweep, bool)
{
    for (trace::WorkloadConfig wl : trace::allWorkloadPresets()) {
        sweep.options().apply(wl);
        sweep.addCensusBlock(wl, [wl](const Census *c) {
            const coherence::ProtocolCensus &full = c->fullMap;
            Count remote = full.cleanMiss1 + full.dirtyMiss1 + full.miss2;
            return Rows{{wl.displayName(),
                         fmtDouble(pct(full.cleanMiss1, remote), 1),
                         fmtDouble(pct(full.dirtyMiss1, remote), 1),
                         fmtDouble(pct(full.miss2, remote), 1)}};
        });
    }
}

// --- Ring design ablations --------------------------------------------
//
// Design choices the paper discusses in prose but does not plot:
//
//  1. Anti-starvation rule (Section 5.0): "starvation of clusters in
//     the slotted ring architecture is easily avoided by preventing a
//     node from reusing a message slot immediately after removing a
//     message from that slot. Our simulations show that this has no
//     significant impact on system performance." — toggle the rule
//     and compare.
//  2. 64-bit parallel ring (Section 4.2): "With 64-bit parallel
//     rings, utilization levels never surpass 50% and snooping
//     performs significantly better than directory in all cases." —
//     rerun the snoop/directory comparison at 64-bit width.
//  3. Snooper cost context (Section 3.3): ring clock 250 vs 500 MHz
//     under snooping, the design-space axis of Figure 6's ring pair.

void
addRingVariant(FigureSweep &sweep, const trace::WorkloadConfig &wl,
               const char *label, Tick period, unsigned link_bits,
               bool anti_starvation, core::ProtocolKind kind)
{
    sweep.addBlock(true, [=](const Census *) -> Rows {
        core::RingSystemConfig cfg =
            core::RingSystemConfig::forProcs(wl.procs, period);
        cfg.ring.frame.linkBits = link_bits;
        cfg.ring.antiStarvation = anti_starvation;
        core::RunResult r = core::runRingSystem(cfg, wl, kind);
        return {{wl.displayName(), label,
                 fmtPercent(r.procUtilization, 1),
                 fmtPercent(r.networkUtilization, 1),
                 fmtDouble(r.missLatencyNs, 0),
                 fmtDouble(r.acquireWaitNs, 1)}};
    });
}

void
buildAblationRing(FigureSweep &sweep, bool)
{
    const core::ProtocolKind snoop = core::ProtocolKind::RingSnoop;

    // 1: anti-starvation rule on the busiest SPLASH configuration
    // (MP3D 32, fast ring).
    trace::WorkloadConfig wl =
        preset(sweep, trace::Benchmark::MP3D, 32);
    addRingVariant(sweep, wl, "snoop, anti-starvation ON", 2000, 32,
                   true, snoop);
    addRingVariant(sweep, wl, "snoop, anti-starvation OFF", 2000, 32,
                   false, snoop);

    // 2: 64-bit parallel ring, snoop vs directory.
    for (unsigned procs : {16u, 32u}) {
        wl = preset(sweep, trace::Benchmark::MP3D, procs);
        addRingVariant(sweep, wl, "snoop, 32-bit ring", 2000, 32, true,
                       snoop);
        addRingVariant(sweep, wl, "snoop, 64-bit ring", 2000, 64, true,
                       snoop);
        addRingVariant(sweep, wl, "directory, 64-bit ring", 2000, 64,
                       true, core::ProtocolKind::RingDirectory);
    }

    // 3: ring clock (the Figure 6 ring pair).
    wl = preset(sweep, trace::Benchmark::MP3D, 16);
    addRingVariant(sweep, wl, "snoop, 500 MHz", 2000, 32, true, snoop);
    addRingVariant(sweep, wl, "snoop, 250 MHz", 4000, 32, true, snoop);
}

// --- Latency-tolerance ablation (paper Section 6) ---------------------
//
// The paper argues the slotted ring's large-but-stable latencies are
// mostly pure delay, not contention, so latency-tolerance techniques
// (non-blocking writes / weak ordering, lockup-free caches) should pay
// off on the ring — while on a split-transaction bus running near
// saturation they are "self-defeating" because the overlapped traffic
// only deepens the queueing. The timed systems run with the
// store-buffer extension (SystemConfig::storeBufferDepth): write
// misses and invalidations retire into a K-entry buffer and overlap
// with execution; reads still block. Expected shape: processor
// utilization climbs markedly with K on the ring, and barely (or not
// at all) on the saturated bus, whose utilization is pinned at ~100%.
// MP3D at 16 CPUs with 200 MIPS processors: the 50 MHz bus is deep in
// saturation, the 500 MHz ring is comfortably below it.

void
buildAblationLatencyTolerance(FigureSweep &sweep, bool)
{
    trace::WorkloadConfig wl =
        preset(sweep, trace::Benchmark::MP3D, 16);
    const Tick cycle = nsToTicks(5.0);
    for (bool bus : {false, true}) {
        for (unsigned depth : {0u, 2u, 8u}) {
            sweep.addBlock(true, [=](const Census *) -> Rows {
                core::RunResult r;
                if (bus) {
                    core::BusSystemConfig cfg =
                        core::BusSystemConfig::forProcs(16);
                    cfg.common.procCycle = cycle;
                    cfg.common.storeBufferDepth = depth;
                    r = core::runBusSystem(cfg, wl);
                } else {
                    core::RingSystemConfig cfg =
                        core::RingSystemConfig::forProcs(16);
                    cfg.common.procCycle = cycle;
                    cfg.common.storeBufferDepth = depth;
                    r = core::runRingSystem(
                        cfg, wl, core::ProtocolKind::RingSnoop);
                }
                return {{bus ? "bus 50MHz / snoop"
                             : "ring 500MHz / snoop",
                         std::to_string(depth),
                         fmtPercent(r.procUtilization, 1),
                         fmtPercent(r.networkUtilization, 1),
                         fmtDouble(r.missLatencyNs, 0),
                         fmtDouble(r.upgradeLatencyNs, 0)}};
            });
        }
    }
}

// --- Slotted vs register-insertion ablation (paper Section 2) ---------
//
// The open question of Section 2: "Which one of slotted or register
// insertion rings offers the best performance is not clear.
// Intuitively, under light loads, the register insertion ring has a
// faster access time... Under medium to heavy loads, the simplicity of
// enforcing fairness on the slotted ring may yield better
// performance." Both disciplines run the full-map directory protocol
// (snooping is unsuitable for register insertion, Section 3.3) over
// the same message census and ring geometry; only the
// bandwidth-granting rule differs. The insertion model deliberately
// omits SCI's starvation-avoidance throughput tax, so it is an
// optimistic bound. The three MIPS points of a workload share its
// census.

void
buildAblationInsertionRing(FigureSweep &sweep, bool)
{
    for (trace::Benchmark b :
         {trace::Benchmark::MP3D, trace::Benchmark::WATER}) {
        for (unsigned procs : {16u, 32u}) {
            trace::WorkloadConfig wl = preset(sweep, b, procs);
            sweep.addCensusBlock(wl, [wl](const Census *c) {
                Rows rows;
                for (double mips : {50.0, 200.0, 1000.0}) {
                    model::RingModelInput in;
                    in.census = *c;
                    in.ring =
                        core::RingSystemConfig::forProcs(wl.procs)
                            .ring;
                    in.system.procCycle = nsToTicks(1e3 / mips);
                    in.protocol = model::RingProtocol::Directory;

                    model::ModelResult slotted = model::solveRing(in);
                    model::ModelResult inserted =
                        model::solveInsertionRing(in);

                    rows.push_back(
                        {wl.displayName(), fmtDouble(mips, 0),
                         fmtDouble(slotted.missLatencyNs, 0),
                         fmtDouble(inserted.missLatencyNs, 0),
                         fmtPercent(slotted.networkUtilization, 1),
                         fmtPercent(inserted.networkUtilization, 1)});
                }
                return rows;
            });
        }
    }
}

/** Every artifact, in FigureId order. */
const std::vector<Artifact> &
registry()
{
    static const std::vector<std::string> figure_columns = {
        "workload",    "series",     "source",       "cycle (ns)",
        "proc util %", "net util %", "miss lat (ns)"};
    static const std::vector<Artifact> artifacts = {
        {FigureId::Table1, "table1",
         "Table 1: ring traversals per transaction (%), full map vs "
         "linked list",
         {"benchmark", "txn", "protocol", "1 (paper)", "2 (paper)",
          "3+ (paper)", "1 (ours)", "2 (ours)", "3+ (ours)"},
         buildTable1},
        {FigureId::Table2, "table2",
         "Table 2: trace characteristics (128 KB DM cache, 16 B blocks)",
         {"benchmark", "procs", "shared refs %", "priv w% (paper)",
          "priv w% (ours)", "shared w% (paper)", "shared w% (ours)",
          "total mr% (paper)", "total mr% (ours)", "shared mr% (paper)",
          "shared mr% (ours)"},
         buildTable2},
        {FigureId::Table3, "table3",
         "Table 3: snooping rate (ns) — minimum probe inter-arrival per "
         "dual-directory bank at 500 MHz",
         {"block size", "16-bit (paper/ours)", "32-bit (paper/ours)",
          "64-bit (paper/ours)"},
         buildTable3},
        {FigureId::Table4, "table4",
         "Table 4: bus clock cycle (ns) matching slotted-ring processor "
         "utilization",
         {"benchmark", "ring MHz", "100 MIPS (paper/ours)",
          "200 MIPS (paper/ours)", "400 MIPS (paper/ours)"},
         buildTable4},
        {FigureId::Fig3, "fig3",
         "Figure 3: snooping vs directory, 500 MHz 32-bit rings "
         "(SPLASH, 8/16/32 CPUs)",
         figure_columns, buildFig3},
        {FigureId::Fig4, "fig4",
         "Figure 4: snooping vs directory, 500 MHz 32-bit ring "
         "(FFT/WEATHER/SIMPLE, 64 CPUs)",
         figure_columns, buildFig4},
        {FigureId::Fig5, "fig5",
         "Figure 5: breakdown of directory-protocol remote misses",
         {"workload", "1-cycle clean %", "1-cycle dirty %", "2-cycle %"},
         buildFig5},
        {FigureId::Fig6, "fig6",
         "Figure 6: 32-bit slotted ring vs 64-bit split transaction bus "
         "(snooping)",
         figure_columns, buildFig6},
        {FigureId::AblationRing, "ablation_ring",
         "Ring design ablations (anti-starvation, link width, clock)",
         {"workload", "variant", "proc util %", "net util %",
          "miss lat (ns)", "slot wait (ns)"},
         buildAblationRing},
        {FigureId::AblationLatencyTolerance, "ablation_latency_tolerance",
         "Latency tolerance (non-blocking stores) on ring vs saturated "
         "bus — MP3D 16, 200 MIPS",
         {"system", "store buffer", "proc util %", "net util %",
          "miss lat (ns)", "inv lat (ns)"},
         buildAblationLatencyTolerance},
        {FigureId::AblationInsertionRing, "ablation_insertion_ring",
         "Slotted vs register-insertion ring (directory protocol, "
         "analytic)",
         {"workload", "MIPS", "slotted lat (ns)", "insertion lat (ns)",
          "slotted util %", "insertion link util %"},
         buildAblationInsertionRing},
    };
    return artifacts;
}

} // namespace

const Artifact &
artifact(FigureId id)
{
    const Artifact &a = registry().at(static_cast<std::size_t>(id));
    if (a.id != id)
        panic("figure registry out of order at %s", a.name);
    return a;
}

const std::vector<FigureId> &
allFigures()
{
    static const std::vector<FigureId> ids = [] {
        std::vector<FigureId> out;
        for (const Artifact &a : registry())
            out.push_back(a.id);
        return out;
    }();
    return ids;
}

} // namespace ringsim::figures
