/**
 * @file
 * Ring-tick microbenchmarks: the schedule-driven hot path against the
 * reference scan, across the paper's node counts and three occupancy
 * regimes. Registered benchmarks only (no main): linked both into
 * micro_kernel (interactive runs) and into ring_bench_json (the
 * BENCH_ring.json writer the CI perf-smoke job uploads).
 *
 * items_per_second counts simulated node-visits (cycles × nodes) per
 * wall second — the unit of work the scan-driven tick performed — so
 * the two paths are directly comparable and the idle-ring fast
 * forward shows up as a rate gain rather than a mysteriously short
 * run.
 *
 * Two families:
 *  - BM_RingTick drives the ring shell with a synthetic client at a
 *    pinned occupancy (the controlled experiment);
 *  - BM_ProtocolTick drives the real snoop engine closed-loop, so the
 *    tracked numbers also cover production controllers; its occupancy
 *    emerges from the offered load and is reported as a counter, next
 *    to the visits the ring actually dispatched (SlotRing::work()).
 *    Node-visits per second is the scan's unit of work; a protocol
 *    tick costs what dispatched_visits says it dispatches.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/metrics.hpp"
#include "core/ring_snoop.hpp"
#include "ring/network.hpp"
#include "sim/kernel.hpp"
#include "trace/address_map.hpp"

using namespace ringsim;

namespace {

/**
 * One client object registered for every node — the same uniform
 * registration the protocol engines use. Node 0 first fills the ring
 * to the requested occupancy with circulating messages, addressed
 * round robin to every node and never removed; every visit thereafter
 * is a pure reaction. Each filler names its destination as its
 * remover, so the schedule-driven path dispatches every occupied slot
 * once per rotation, at that node: the ref:0 rows time the schedule
 * walk plus the addressed dispatch, as a protocol's directed messages
 * exercise it.
 */
class UniformTickClient : public ring::RingClient
{
  public:
    ring::SlotRing *ring = nullptr;
    unsigned target = 0;
    unsigned placed = 0;

    void onSlot(ring::SlotHandle &slot) override
    {
        if (slot.occupied()) {
            bool occupied = true;
            benchmark::DoNotOptimize(occupied);
            return;
        }
        if (slot.node() == 0 && placed < target) {
            ring::RingMessage msg;
            msg.src = slot.node();
            // Never removed: the destination only reacts to it.
            msg.dst = static_cast<NodeId>(placed % ring->config().nodes);
            // Match the probe-slot parity rule (block slots take any).
            msg.addr =
                slot.type() == ring::SlotType::ProbeOdd ? 0x10 : 0x0;
            slot.insert(msg);
            if (++placed >= target)
                ring->clearPending(0);
        }
    }
};

/**
 * Arguments: nodes / occupancy percent of all slots / 1 = reference
 * scan path, 0 = schedule-driven path.
 */
void
BM_RingTick(benchmark::State &state)
{
    const unsigned nodes = static_cast<unsigned>(state.range(0));
    const unsigned occ_pct = static_cast<unsigned>(state.range(1));
    const bool reference = state.range(2) != 0;

    sim::Kernel kernel;
    ring::RingConfig config;
    config.nodes = nodes;
    config.referenceTickPath = reference;
    ring::SlotRing ring_net(kernel, config);

    UniformTickClient client;
    client.ring = &ring_net;
    client.target = config.totalSlots() * occ_pct / 100;
    for (NodeId n = 0; n < nodes; ++n)
        ring_net.setClient(n, client);

    ring_net.start(0);
    if (client.target > 0) {
        ring_net.notifyPending(0);
        while (client.placed < client.target)
            kernel.run(kernel.now() + config.roundTripTime());
    }
    // Steady state from here on: every visit is a pure reaction, so
    // all nodes may opt into idle skipping (ignored by the reference
    // path).
    for (NodeId n = 0; n < nodes; ++n)
        ring_net.enableIdleSkip(n);

    // Advance simulated time in fixed chunks; each iteration covers
    // the same number of ring cycles on either path. Chunks are large
    // enough that run()'s entry/exit bookkeeping (two clock reads) is
    // noise against the cycles inside.
    constexpr Tick kCyclesPerIter = 4096;
    Tick until = kernel.now();
    for (auto _ : state) {
        until += kCyclesPerIter * config.clockPeriod;
        kernel.run(until);
    }
    ring_net.stop();

    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kCyclesPerIter * nodes);
    state.counters["kernel_events"] =
        static_cast<double>(kernel.stats().processed);
}

BENCHMARK(BM_RingTick)
    ->ArgsProduct({{8, 16, 32, 64}, {0, 50, 100}, {0, 1}})
    ->ArgNames({"nodes", "occ", "ref"});

/**
 * Closed-loop driver for the real protocol engine: each node keeps
 * @p load transactions outstanding, issuing the next one a processor
 * cycle after a completion. Addresses walk the shared footprint so
 * the engine sees a steady miss mix rather than a warmed-up cache.
 */
class ProtocolDriver
{
  public:
    sim::Kernel *kernel = nullptr;
    core::RingProtocolBase *protocol = nullptr;
    trace::AddressMap *map = nullptr;
    Tick issueGap = 0;
    std::uint64_t counter = 0;

    void pump(NodeId p)
    {
        std::uint64_t i = counter++;
        trace::TraceRecord rec{(i & 1) ? trace::Op::Write
                                       : trace::Op::Read,
                               map->sharedBlock(i % kFootprint)};
        protocol->startTransaction(p, rec, [this, p]() {
            kernel->postIn(issueGap, [this, p]() { pump(p); });
        });
    }

  private:
    /** Shared blocks cycled through; large enough to keep missing. */
    static constexpr std::uint64_t kFootprint = 1 << 14;
};

/**
 * Arguments: nodes / outstanding transactions per node / 1 =
 * reference scan path, 0 = schedule-driven path. Items are simulated
 * node-visits, the same unit as BM_RingTick; the emergent ring
 * utilization is reported as the ring_occupancy counter.
 */
void
BM_ProtocolTick(benchmark::State &state)
{
    const unsigned nodes = static_cast<unsigned>(state.range(0));
    const unsigned load = static_cast<unsigned>(state.range(1));
    const bool reference = state.range(2) != 0;

    sim::Kernel kernel;
    auto cfg = core::RingSystemConfig::forProcs(nodes);
    cfg.ring.referenceTickPath = reference;
    trace::AddressMap map(nodes, 16, 7);
    coherence::EngineOptions eopt;
    coherence::FunctionalEngine engine(map, eopt);
    ring::SlotRing ring_net(kernel, cfg.ring);
    core::Metrics metrics(nodes);
    core::SystemConfig sys;
    core::RingSnoopProtocol protocol(kernel, sys, engine, ring_net,
                                     metrics);

    ProtocolDriver driver;
    driver.kernel = &kernel;
    driver.protocol = &protocol;
    driver.map = &map;
    driver.issueGap = sys.procCycle;

    ring_net.start(0);
    for (NodeId p = 0; p < nodes; ++p)
        for (unsigned k = 0; k < load; ++k)
            driver.pump(p);
    // Warm up: let the in-flight population and queues reach steady
    // state before timing.
    kernel.run(kernel.now() + 8 * cfg.ring.roundTripTime());
    ring_net.resetStats();

    constexpr Tick kCyclesPerIter = 512;
    Count dispatched_before = ring_net.work().dispatchedVisits;
    Tick until = kernel.now();
    for (auto _ : state) {
        until += kCyclesPerIter * cfg.ring.clockPeriod;
        kernel.run(until);
    }
    double occupancy = ring_net.totalOccupancy();
    Count dispatched = ring_net.work().dispatchedVisits - dispatched_before;
    ring_net.stop();

    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kCyclesPerIter * nodes);
    state.counters["ring_occupancy"] = occupancy;
    // Visits handed to the protocol per timed iteration (kCyclesPerIter
    // ring cycles): deterministic, so comparable across machines.
    state.counters["dispatched_visits"] = benchmark::Counter(
        static_cast<double>(dispatched), benchmark::Counter::kAvgIterations);
    state.counters["kernel_events"] =
        static_cast<double>(kernel.stats().processed);
}

BENCHMARK(BM_ProtocolTick)
    ->ArgsProduct({{8, 64}, {1, 8}, {0, 1}})
    ->ArgNames({"nodes", "load", "ref"});

} // namespace
