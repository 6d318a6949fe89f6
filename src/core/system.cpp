#include "system.hpp"

#include <vector>

#include "bus/split_bus.hpp"
#include "core/bus_snoop.hpp"
#include "core/processor.hpp"
#include "core/ring_directory.hpp"
#include "core/ring_snoop.hpp"
#include "ring/network.hpp"
#include "trace/generator.hpp"
#include "util/logging.hpp"

namespace ringsim::core {

namespace {

/** Everything common to the ring and bus run drivers. */
struct Harness
{
    sim::Kernel kernel;
    trace::AddressMap map;
    trace::TraceSet streams;
    coherence::FunctionalEngine engine;
    Metrics metrics;
    std::vector<std::unique_ptr<Processor>> processors;
    unsigned coldProcs;
    Tick measureStart = 0;
    Tick measureEnd = 0;
    bool stopped = false;

    Harness(const SystemConfig &common,
            const trace::WorkloadConfig &workload)
        : map(trace::makeAddressMap(workload)),
          streams(trace::makeTraceSet(workload, map)),
          engine(map, makeEngineOptions(common, workload)),
          metrics(workload.procs), coldProcs(workload.procs)
    {}

    static coherence::EngineOptions
    makeEngineOptions(const SystemConfig &common,
                      const trace::WorkloadConfig &workload)
    {
        coherence::EngineOptions opt;
        opt.geometry = common.cacheGeometry;
        opt.geometry.blockBytes = workload.blockBytes;
        opt.check = common.check;
        opt.monitor = common.monitor;
        opt.hooks.dropOneInvalidation = common.testDropOneInvalidation;
        return opt;
    }

    /** Build processors and wire warmup/done callbacks. */
    void
    buildProcessors(const SystemConfig &common,
                    const trace::WorkloadConfig &workload,
                    Protocol &protocol,
                    const std::function<void()> &on_all_warm)
    {
        auto warmup_refs = static_cast<Count>(
            common.warmupFrac *
            static_cast<double>(workload.dataRefsPerProc));
        for (NodeId p = 0; p < workload.procs; ++p) {
            processors.push_back(std::make_unique<Processor>(
                kernel, p, common.procCycle, *streams[p], protocol,
                metrics));
            Processor &proc = *processors.back();
            proc.setWarmupRefs(warmup_refs);
            proc.setStoreBufferDepth(common.storeBufferDepth);
            proc.onWarm([this, on_all_warm]() {
                if (--coldProcs == 0) {
                    metrics.reset();
                    engine.resetCensus();
                    measureStart = kernel.now();
                    on_all_warm();
                }
            });
            proc.onDone([this]() {
                if (!stopped) {
                    stopped = true;
                    measureEnd = kernel.now();
                    kernel.stop();
                }
            });
        }
        if (warmup_refs == 0)
            coldProcs = 0;
    }

    void
    startProcessors()
    {
        for (auto &proc : processors)
            proc->start(0);
    }

    /** Fill the protocol-independent parts of the result. */
    void
    fillResult(RunResult &result)
    {
        result.procUtilization = metrics.meanProcUtilization();
        result.missLatencyNs = ticksToNs(
            static_cast<Tick>(metrics.meanMissLatency()));
        result.missLatencyAllNs = ticksToNs(
            static_cast<Tick>(metrics.meanMissLatencyAll()));
        result.upgradeLatencyNs = ticksToNs(
            static_cast<Tick>(metrics.meanUpgradeLatency()));
        result.acquireWaitNs = metrics.acquireWait().mean() / tickNs;
        result.window = measureEnd - measureStart;
        result.localMisses = metrics.classCount(LatClass::LocalMiss);
        result.cleanMiss1 = metrics.classCount(LatClass::CleanMiss1);
        result.dirtyMiss1 = metrics.classCount(LatClass::DirtyMiss1);
        result.miss2 = metrics.classCount(LatClass::Miss2);
        result.upgrades = metrics.classCount(LatClass::Upgrade);
        result.census = engine.census();
    }
};

} // namespace

RunResult
runRingSystem(const RingSystemConfig &config,
              const trace::WorkloadConfig &workload, ProtocolKind kind)
{
    if (kind != ProtocolKind::RingSnoop &&
        kind != ProtocolKind::RingDirectory)
        fatal("runRingSystem needs a ring protocol");
    if (config.ring.nodes != workload.procs) {
        fatal("ring has %u nodes but the workload has %u processors",
              config.ring.nodes, workload.procs);
    }
    config.common.validate();

    Harness h(config.common, workload);
    ring::SlotRing ring_net(h.kernel, config.ring);
    ring_net.setMonitor(config.common.monitor);

    std::unique_ptr<RingProtocolBase> protocol;
    if (kind == ProtocolKind::RingSnoop) {
        protocol = std::make_unique<RingSnoopProtocol>(
            h.kernel, config.common, h.engine, ring_net, h.metrics);
    } else {
        protocol = std::make_unique<RingDirectoryProtocol>(
            h.kernel, config.common, h.engine, ring_net, h.metrics);
    }

    // Fault injection: the injector hooks the ring (where faults land)
    // and the protocol (which owns recovery). Absent when disabled so
    // the fault-free fast path is untouched.
    std::unique_ptr<fault::FaultInjector> injector;
    if (config.common.faults.enabled()) {
        config.common.faults.validate();
        injector =
            std::make_unique<fault::FaultInjector>(config.common.faults);
        ring_net.setFaultInjector(injector.get());
        protocol->setFaultRecovery(injector.get());
    }

    h.buildProcessors(config.common, workload, *protocol,
                      [&ring_net]() { ring_net.resetStats(); });
    ring_net.start(0);
    h.startProcessors();
    h.kernel.run();
    ring_net.stop();
    if (!h.stopped)
        h.measureEnd = h.kernel.now();

    RunResult result;
    result.protocol = kind;
    h.fillResult(result);
    result.networkUtilization = ring_net.totalOccupancy();
    if (injector) {
        const fault::FaultStats &fs = injector->stats();
        result.faultsInjected = injector->faultsInjected();
        result.retries = fs.retries.value();
        result.recovered = fs.recovered.value();
        result.fatalTxns = fs.fatals.value();
        result.nacks = fs.nacks.value();
        result.timeouts = fs.timeouts.value();
    }
    return result;
}

RunResult
runBusSystem(const BusSystemConfig &config,
             const trace::WorkloadConfig &workload)
{
    if (config.bus.nodes != workload.procs) {
        fatal("bus has %u nodes but the workload has %u processors",
              config.bus.nodes, workload.procs);
    }
    config.common.validate();

    Harness h(config.common, workload);
    bus::SplitBus bus_res(h.kernel, config.bus);
    BusSnoopProtocol protocol(h.kernel, config.common, h.engine,
                              bus_res, h.metrics);

    h.buildProcessors(config.common, workload, protocol,
                      [&bus_res]() { bus_res.resetStats(); });
    h.startProcessors();
    h.kernel.run();
    if (!h.stopped)
        h.measureEnd = h.kernel.now();

    RunResult result;
    result.protocol = ProtocolKind::BusSnoop;
    h.fillResult(result);
    result.networkUtilization = bus_res.utilization();
    return result;
}

} // namespace ringsim::core
