#include "bus_snoop.hpp"

#include <algorithm>

#include "cache/coherent_cache.hpp"
#include "util/logging.hpp"

namespace ringsim::core {

using coherence::AccessOutcome;

BusSnoopProtocol::BusSnoopProtocol(sim::Kernel &kernel,
                                   const SystemConfig &config,
                                   coherence::FunctionalEngine &engine,
                                   bus::SplitBus &bus_res,
                                   Metrics &metrics)
    : kernel_(kernel), config_(config), engine_(engine), bus_(bus_res),
      metrics_(metrics), bankFreeAt_(bus_res.config().nodes, 0)
{
    config_.validate();
}

bool
BusSnoopProtocol::tryAccess(NodeId p, const trace::TraceRecord &ref)
{
    return engine_.accessIfHit(p, ref);
}

Tick
BusSnoopProtocol::bankDone(NodeId node, Tick when, Tick service)
{
    Tick start = std::max(when, bankFreeAt_[node]);
    bankFreeAt_[node] = start + service;
    return start + service;
}

void
BusSnoopProtocol::finish(LatClass cls, Tick issued,
                         const std::function<void()> &on_complete)
{
    metrics_.addLatency(cls, kernel_.now() - issued);
    on_complete();
}

void
BusSnoopProtocol::startTransaction(NodeId p,
                                   const trace::TraceRecord &ref,
                                   std::function<void()> on_complete)
{
    AccessOutcome o;
    engine_.access(p, ref, &o);
    Tick issued = kernel_.now();

    if (o.type == AccessOutcome::Type::Hit) {
        // Re-classified as a hit at issue time (an in-flight store
        // already filled the block): no bus transaction.
        kernel_.post(issued, std::move(on_complete));
        return;
    }

    // Victim write-back: bus tenure (response-sized) plus the home
    // bank; the directory state was already updated at issue.
    if (o.victimValid && o.victimDirty) {
        if (o.victimHome == p) {
            bankDone(p, issued, config_.memoryLatency);
        } else {
            NodeId victim_home = o.victimHome;
            bus_.request(p, bus_.config().responseCycles(),
                         [this, victim_home](Tick, Tick end) {
                             bankDone(victim_home, end,
                                      config_.memoryLatency);
                         });
        }
    }

    if (o.type == AccessOutcome::Type::Upgrade) {
        // The request tenure broadcasts the invalidation; done when it
        // completes.
        bus_.request(p, bus_.config().requestCycles,
                     [this, issued, on_complete](Tick, Tick) {
                         finish(LatClass::Upgrade, issued, on_complete);
                     });
        return;
    }

    if (o.type != AccessOutcome::Type::Miss)
        panic("bus transaction for a non-miss reference");

    NodeId supplier = o.wasDirty ? o.owner : o.home;
    LatClass cls =
        o.wasDirty ? LatClass::DirtyMiss1 : LatClass::CleanMiss1;

    if (supplier == p) {
        // Every miss arbitrates for the bus (snoop broadcast), but
        // locally-homed clean data never crosses it: the request
        // tenure and the local bank overlap.
        cls = LatClass::LocalMiss;
        Tick bank = bankDone(p, issued, config_.memoryLatency);
        bus_.request(p, bus_.config().requestCycles,
                     [this, bank, issued, cls,
                      on_complete](Tick, Tick end) {
                         Tick done = std::max(bank, end);
                         kernel_.post(done,
                                      [this, issued, cls,
                                       on_complete]() {
                                          finish(cls, issued,
                                                 on_complete);
                                      });
                     });
        return;
    }

    // Remote data: request tenure, service at the supplier, response
    // tenure carrying the block.
    bool dirty = o.wasDirty;
    bus_.request(
        p, bus_.config().requestCycles,
        [this, supplier, dirty, issued, cls, on_complete](Tick,
                                                          Tick end) {
            Tick ready = dirty ? end + config_.cacheSupply
                               : bankDone(supplier, end,
                                          config_.memoryLatency);
            kernel_.post(ready, [this, supplier, issued, cls,
                                 on_complete]() {
                bus_.request(supplier, bus_.config().responseCycles(),
                             [this, issued, cls,
                              on_complete](Tick, Tick) {
                                 finish(cls, issued, on_complete);
                             });
            });
        });
}

} // namespace ringsim::core
