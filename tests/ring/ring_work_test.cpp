/**
 * @file
 * SlotRing::work() on a full system: with addressed dispatch, an
 * occupied slot reaches only the nodes its message names, so the
 * occupied-slot dispatches of a fault-free run are bounded by the
 * messages inserted. A snoop probe names two nodes (its tap and its
 * returning source) and a block message one (its destination); a
 * directory message names only its remover.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/processor.hpp"
#include "src/core/ring_directory.hpp"
#include "src/core/ring_snoop.hpp"
#include "src/trace/generator.hpp"

namespace ringsim::core {
namespace {

/** Messages a run inserted, and the ring's dispatch work. */
struct FftRun
{
    Count probes = 0;
    Count blocks = 0;
    ring::RingWork work;
};

/** The 64-node FFT workload run to completion under @p Protocol. */
template <typename Protocol>
FftRun
runFft64()
{
    constexpr unsigned procs = 64;
    auto wl = trace::workloadPreset(trace::Benchmark::FFT, procs);
    wl.dataRefsPerProc = 800;

    sim::Kernel kernel;
    trace::AddressMap map = trace::makeAddressMap(wl);
    trace::TraceSet streams = trace::makeTraceSet(wl, map);
    coherence::EngineOptions eopt;
    eopt.geometry.blockBytes = wl.blockBytes;
    coherence::FunctionalEngine engine(map, eopt);
    auto cfg = RingSystemConfig::forProcs(procs);
    ring::SlotRing ring_net(kernel, cfg.ring);
    Metrics metrics(procs);
    Protocol protocol(kernel, cfg.common, engine, ring_net, metrics);

    bool done = false;
    std::vector<std::unique_ptr<Processor>> cpus;
    for (NodeId p = 0; p < procs; ++p) {
        cpus.push_back(std::make_unique<Processor>(
            kernel, p, cfg.common.procCycle, *streams[p], protocol,
            metrics));
        cpus.back()->onDone([&kernel, &done]() {
            done = true;
            kernel.stop();
        });
    }
    ring_net.start(0);
    for (auto &cpu : cpus)
        cpu->start(0);
    // Bounded: a transaction lost to a broken dispatch leaves the ring
    // quiescent, and it fast-forwards to the bound instead of hanging.
    kernel.run(nsToTicks(1'000'000'000));
    ring_net.stop();
    EXPECT_TRUE(done) << "a processor stalled on a transaction";

    FftRun run;
    run.probes = ring_net.inserted(ring::SlotType::ProbeEven) +
                 ring_net.inserted(ring::SlotType::ProbeOdd);
    run.blocks = ring_net.inserted(ring::SlotType::Block);
    run.work = ring_net.work();
    EXPECT_GT(run.probes, 1000u)
        << "the run must put real traffic on the ring";
    EXPECT_LE(run.work.occupiedDispatches, run.work.dispatchedVisits);
    EXPECT_LE(run.work.dispatchedVisits, run.work.scheduledVisits);
    return run;
}

TEST(RingWork, SnoopOccupiedDispatchesBoundedByInserts)
{
    FftRun run = runFft64<RingSnoopProtocol>();
    EXPECT_LE(run.work.occupiedDispatches, 2 * run.probes + run.blocks);
}

TEST(RingWork, DirectoryOccupiedDispatchesBoundedByInserts)
{
    FftRun run = runFft64<RingDirectoryProtocol>();
    EXPECT_LE(run.work.occupiedDispatches, run.probes + run.blocks);
}

} // namespace
} // namespace ringsim::core
