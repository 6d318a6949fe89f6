#include "ring_snoop.hpp"

#include "util/logging.hpp"

namespace ringsim::core {

using coherence::AccessOutcome;

ptable::SnoopPlan
RingSnoopProtocol::planOf(const Txn &txn)
{
    return ptable::snoopPlan(ptable::viewOf(txn.outcome,
                                            txn.requester));
}

NodeId
RingSnoopProtocol::supplierOf(const Txn &txn) const
{
    return planOf(txn).supplier == ptable::SnoopSupplier::OwnerCache
               ? txn.outcome.owner
               : txn.outcome.home;
}

void
RingSnoopProtocol::launch(Txn &txn)
{
    const ptable::SnoopPlan plan = planOf(txn);
    std::uint64_t tag = tagOf(txn);

    txn.cls = plan.cls;
    txn.remainingLegs = plan.legs;
    txn.probeReturnLeg = plan.probeReturnLeg;

    if (plan.localBankLeg) {
        // The local bank answers, but the transaction commits when
        // the probe returns: both legs must finish.
        Tick done = bankDone(txn.requester, kernel_.now(),
                             config_.memoryLatency);
        kernel_.post(done, [this, tag]() { legDone(tag); });
    }

    // Every transaction broadcasts a probe — misses and invalidations
    // alike; the dirty bit only decides who responds (Section 3.1).
    // The probe is acted on at two nodes: the requester, which removes
    // it, and — for a data probe — the planned supplier, its tap. The
    // ring dispatches it nowhere else. A relaunch recomputes the same
    // row, so every attempt carries the same tap.
    ring::RingMessage probe;
    probe.kind = MsgSnoopProbe;
    probe.src = txn.requester;
    probe.dst = ring::broadcastNode;
    probe.addr = txn.outcome.block;
    if (plan.remoteData)
        probe.tap = supplierOf(txn);
    probe.payload = tag;
    enqueue(txn.requester, probe, /*is_block=*/false);
}

void
RingSnoopProtocol::supply(Txn &txn, NodeId supplier)
{
    // Home memory access goes through the FCFS bank; a dirty cache
    // supplies after a fixed cache-array access.
    Tick ready;
    if (planOf(txn).supplier == ptable::SnoopSupplier::OwnerCache) {
        ready = kernel_.now() + config_.cacheSupply;
    } else {
        ready = bankDone(supplier, kernel_.now(),
                         config_.memoryLatency);
    }
    std::uint64_t tag = tagOf(txn);
    NodeId requester = txn.requester;
    Addr block = txn.outcome.block;
    kernel_.post(ready, [this, tag, supplier, requester, block]() {
        if (!requireTxn(tag,
                        "snoop supplier fired for finished transaction"))
            return;
        ring::RingMessage data;
        data.kind = MsgBlockData;
        data.src = supplier;
        data.dst = requester;
        data.addr = block;
        data.payload = tag;
        enqueue(supplier, data, /*is_block=*/true);
    });
}

void
RingSnoopProtocol::handleMessage(NodeId n, ring::SlotHandle &slot)
{
    const ring::RingMessage &msg = slot.message();
    switch (msg.kind) {
      case MsgSnoopProbe: {
        if (msg.src == n) {
            // Our own probe came back: remove it; one traversal total.
            ring::RingMessage probe = slot.remove();
            Txn *txn = activeTxn(probe.payload);
            if (txn && txn->probeReturnLeg)
                legDone(probe.payload);
            return;
        }
        // Snoop: the planned supplier — the probe's tap, the only
        // other node the ring dispatches it to — answers a *data*
        // probe as it passes (invalidation probes need no reply beyond
        // their return). The activeTxn guard drops probes of a
        // superseded attempt.
        Txn *txn = activeTxn(msg.payload);
        if (txn && planOf(*txn).remoteData && supplierOf(*txn) == n)
            supply(*txn, n);
        return;
      }
      case MsgBlockData: {
        if (msg.dst != n)
            return;
        ring::RingMessage data = slot.remove();
        Tick tail = ring_.slotTailTime(ring::SlotType::Block);
        std::uint64_t tag = data.payload;
        kernel_.post(kernel_.now() + tail,
                     [this, tag]() { legDone(tag); });
        return;
      }
      default:
        panic("snooping ring saw unexpected message kind %u", msg.kind);
    }
}

} // namespace ringsim::core
