/**
 * @file
 * SlotRing::work() on a full system: with addressed dispatch, an
 * occupied slot reaches only the nodes its message names, so the
 * occupied-slot dispatches of a fault-free snooping run are bounded by
 * the messages inserted — two per probe (its tap and its returning
 * source) and one per block message (its destination).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/processor.hpp"
#include "src/core/ring_snoop.hpp"
#include "src/trace/generator.hpp"

namespace ringsim::core {
namespace {

TEST(RingWork, SnoopOccupiedDispatchesBoundedByInserts)
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
    RingSnoopProtocol protocol(kernel, cfg.common, engine, ring_net,
                               metrics);

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
    ASSERT_TRUE(done) << "a processor stalled on a transaction";

    Count probes = ring_net.inserted(ring::SlotType::ProbeEven) +
                   ring_net.inserted(ring::SlotType::ProbeOdd);
    Count blocks = ring_net.inserted(ring::SlotType::Block);
    const ring::RingWork &work = ring_net.work();
    ASSERT_GT(probes, 1000u) << "the run must put real traffic on the ring";
    EXPECT_LE(work.occupiedDispatches, 2 * probes + blocks);
    EXPECT_LE(work.occupiedDispatches, work.dispatchedVisits);
    EXPECT_LE(work.dispatchedVisits, work.scheduledVisits);
}

} // namespace
} // namespace ringsim::core
