#include "ring_protocol.hpp"

#include <algorithm>

#include "cache/coherent_cache.hpp"
#include "util/logging.hpp"

namespace ringsim::core {

RingProtocolBase::RingProtocolBase(sim::Kernel &kernel,
                                   const SystemConfig &config,
                                   coherence::FunctionalEngine &engine,
                                   ring::SlotRing &ring_net,
                                   Metrics &metrics)
    : kernel_(kernel), config_(config), engine_(engine), ring_(ring_net),
      metrics_(metrics), nodes_(ring_net.config().nodes)
{
    config_.validate();
    queues_.resize(static_cast<size_t>(nodes_) * 3);
    queuedMsgs_.assign(nodes_, 0);
    bankFreeAt_.assign(nodes_, 0);
    for (NodeId n = 0; n < nodes_; ++n) {
        // One object for every node; onSlot reads the visited node
        // from the handle.
        ring_.setClient(n, *this);
        // A visit on an empty slot with empty queues does nothing, and
        // an occupied slot is acted on only at its message's remover
        // (dst, or the returning src of a broadcast) or tap (a snoop
        // probe's supplier) — every handleMessage branch returns early
        // elsewhere. So the ring may skip all other visits (and
        // fast-forward when every node is idle).
        ring_.enableIdleSkip(n);
    }
}

RingProtocolBase::~RingProtocolBase() = default;

void
RingProtocolBase::setFaultRecovery(fault::FaultInjector *injector)
{
    faultInjector_ = injector;
    recovery_ = injector != nullptr;
    if (!recovery_)
        return;
    const fault::FaultConfig &fc = injector->config();
    Tick rtt = ring_.config().roundTripTime();
    // Auto timeout: generous upper bound on a fault-free transaction
    // (a few traversals plus every service the legs can incur), so
    // spurious timeouts are rare even under queueing. A spurious
    // retry is safe regardless — the superseded attempt's events are
    // recognized as stale — it only wastes bandwidth.
    retryTimeout_ = fc.retryTimeout
                        ? fc.retryTimeout
                        : 4 * rtt + 4 * (config_.memoryLatency +
                                         config_.cacheSupply +
                                         config_.dirLookup);
    backoffBase_ = fc.backoffBase ? fc.backoffBase : rtt;
}

bool
RingProtocolBase::tryAccess(NodeId p, const trace::TraceRecord &ref)
{
    // Fast path: hits update state (touch + census) and cost nothing
    // beyond the processor cycle; anything else is left untouched for
    // startTransaction.
    return engine_.accessIfHit(p, ref);
}

void
RingProtocolBase::startTransaction(NodeId p,
                                   const trace::TraceRecord &ref,
                                   std::function<void()> on_complete)
{
    std::uint64_t id = nextTxnId_++;
    Txn &txn = txns_[id];
    txn.id = id;
    txn.requester = p;
    txn.issueTime = kernel_.now();
    txn.onComplete = std::move(on_complete);
    engine_.access(p, ref, &txn.outcome);
    if (txn.outcome.type == coherence::AccessOutcome::Type::Instr)
        panic("startTransaction called for an instruction fetch");
    if (txn.outcome.type == coherence::AccessOutcome::Type::Hit) {
        // With non-blocking stores a reference classified as a miss
        // at decode time can be a hit by issue time (an in-flight
        // store to the same block already applied its fill). Nothing
        // to do on the wire.
        auto cb = std::move(txn.onComplete);
        txns_.erase(id);
        kernel_.post(kernel_.now(), std::move(cb));
        return;
    }
    sendVictimWriteback(txn);
    launch(txn);
    armWatchdog(id);
}

void
RingProtocolBase::legDone(std::uint64_t tag)
{
    std::uint64_t id = tagTxn(tag);
    auto it = txns_.find(id);
    if (it == txns_.end() ||
        tagAttempt(tag) != tagAttempt(tagOf(it->second))) {
        if (recovery_) {
            faultInjector_->stats().staleEvents.inc();
            return;
        }
        panic("legDone for unknown transaction %llu",
              static_cast<unsigned long long>(id));
    }
    Txn &txn = it->second;
    if (txn.remainingLegs == 0)
        panic("legDone underflow");
    if (--txn.remainingLegs > 0)
        return;
    completeTxn(txn);
}

void
RingProtocolBase::completeTxn(Txn &txn, bool succeeded)
{
    if (recovery_ && succeeded && txn.attempt > 1)
        faultInjector_->stats().recovered.inc();
    metrics_.addLatency(txn.cls, kernel_.now() - txn.issueTime);
    auto cb = std::move(txn.onComplete);
    txns_.erase(txn.id);
    cb();
}

RingProtocolBase::Txn *
RingProtocolBase::findTxn(std::uint64_t id)
{
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &it->second;
}

RingProtocolBase::Txn *
RingProtocolBase::activeTxn(std::uint64_t tag)
{
    Txn *txn = findTxn(tagTxn(tag));
    if (!txn || tagAttempt(tag) != tagAttempt(tagOf(*txn)))
        return nullptr;
    return txn;
}

RingProtocolBase::Txn *
RingProtocolBase::requireTxn(std::uint64_t tag, const char *what)
{
    Txn *txn = findTxn(tagTxn(tag));
    if (txn && tagAttempt(tag) == tagAttempt(tagOf(*txn)))
        return txn;
    if (!recovery_)
        panic("%s", what);
    faultInjector_->stats().staleEvents.inc();
    return nullptr;
}

void
RingProtocolBase::armWatchdog(std::uint64_t id)
{
    if (!recovery_)
        return;
    Txn *txn = findTxn(id);
    if (!txn)
        return;
    unsigned attempt = txn->attempt;
    // Exponential: each attempt waits twice as long before giving up
    // on the wire (capped to keep the shift sane).
    Tick delay = retryTimeout_ << std::min(attempt - 1, 8u);
    kernel_.post(kernel_.now() + delay, [this, id, attempt]() {
        onWatchdog(id, attempt);
    });
}

void
RingProtocolBase::onWatchdog(std::uint64_t id, unsigned attempt)
{
    Txn *txn = findTxn(id);
    if (!txn || txn->attempt != attempt)
        return; // completed, or a NACK already triggered the retry
    faultInjector_->stats().timeouts.inc();
    retryTxn(*txn);
}

void
RingProtocolBase::onNack(std::uint64_t tag)
{
    Txn *txn = activeTxn(tag);
    if (!txn) {
        faultInjector_->stats().staleEvents.inc();
        return;
    }
    retryTxn(*txn);
}

void
RingProtocolBase::retryTxn(Txn &txn)
{
    const fault::FaultConfig &fc = faultInjector_->config();
    if (txn.attempt > fc.maxRetries) {
        // Retries exhausted: graceful degradation. The functional
        // state was applied at issue, so the access itself is not
        // lost — record the fault and let the processor continue
        // rather than hanging the system.
        faultInjector_->stats().fatals.inc();
        completeTxn(txn, /*succeeded=*/false);
        return;
    }
    faultInjector_->stats().retries.inc();
    unsigned next = txn.attempt + 1;
    // Bump the attempt immediately: everything the old attempt left
    // on the wire is stale from this point on.
    txn.attempt = next;
    Tick backoff = backoffBase_ << std::min(next - 2, 8u);
    std::uint64_t id = txn.id;
    kernel_.post(kernel_.now() + backoff, [this, id, next]() {
        relaunch(id, next);
    });
}

void
RingProtocolBase::relaunch(std::uint64_t id, unsigned attempt)
{
    Txn *txn = findTxn(id);
    if (!txn || txn->attempt != attempt)
        return; // superseded again, or declared fatal meanwhile
    txn->remainingLegs = 1;
    txn->probeReturnLeg = false;
    txn->dataReadyAt = 0;
    launch(*txn);
    armWatchdog(id);
}

FlatQueue<RingProtocolBase::QueuedMsg> &
RingProtocolBase::queueFor(NodeId n, ring::SlotType t)
{
    return queues_[static_cast<size_t>(n) * 3 +
                   static_cast<unsigned>(t)];
}

void
RingProtocolBase::enqueue(NodeId n, const ring::RingMessage &msg,
                          bool is_block)
{
    ring::SlotType t = is_block ? ring::SlotType::Block
                                : ring_.probeTypeFor(msg.addr);
    queueFor(n, t).push_back(QueuedMsg{msg, kernel_.now()});
    if (++queuedMsgs_[n] == 1)
        ring_.notifyPending(n);
}

Tick
RingProtocolBase::bankDone(NodeId node, Tick when, Tick service)
{
    Tick start = std::max(when, bankFreeAt_[node]);
    bankFreeAt_[node] = start + service;
    return start + service;
}

void
RingProtocolBase::sendVictimWriteback(const Txn &txn)
{
    const coherence::AccessOutcome &o = txn.outcome;
    if (!o.victimValid || !o.victimDirty)
        return;
    // The directory state was already updated by the functional
    // engine (write-back buffer with immediate home update); the
    // block message itself is traffic that occupies a block slot and
    // the home's memory bank.
    if (o.victimHome == txn.requester) {
        bankDone(txn.requester, kernel_.now(), config_.memoryLatency);
        return;
    }
    ring::RingMessage msg;
    msg.kind = MsgBlockTraffic;
    msg.src = txn.requester;
    msg.dst = o.victimHome;
    msg.addr = o.victimBlock;
    msg.payload = 0;
    enqueue(txn.requester, msg, /*is_block=*/true);
}

void
RingProtocolBase::discardCorrupt(NodeId n, ring::SlotHandle &slot)
{
    // The payload CRC failed at this interface; the ECC-protected
    // header still identifies the sender, so anything that belongs to
    // a waiting transaction is NACKed back for a fast retry. Traffic
    // messages (write-backs) and NACKs themselves have nobody
    // waiting; their loss is absorbed (memory refresh is lost, the
    // NACKed sender falls back to its timeout).
    ring::RingMessage bad = slot.remove();
    if (!recovery_)
        return;
    if (bad.kind == MsgBlockTraffic) {
        faultInjector_->stats().lostWritebacks.inc();
        return;
    }
    if (bad.kind == MsgNack)
        return;
    faultInjector_->stats().nacks.inc();
    ring::RingMessage nack;
    nack.kind = MsgNack;
    nack.src = n;
    nack.dst = bad.src;
    nack.addr = bad.addr;
    nack.payload = bad.payload;
    enqueue(n, nack, /*is_block=*/false);
}

void
RingProtocolBase::onSlot(ring::SlotHandle &slot)
{
    NodeId n = slot.node();
    if (slot.occupied() && slot.corrupted()) {
        discardCorrupt(n, slot);
    } else if (slot.occupied()) {
        const ring::RingMessage &msg = slot.message();
        if (msg.kind == MsgBlockTraffic) {
            if (msg.dst == n) {
                ring::RingMessage taken = slot.remove();
                // Arriving write-back / refresh data occupies the
                // destination's memory bank.
                bankDone(n, kernel_.now() + ring_.slotTailTime(
                                 ring::SlotType::Block),
                         config_.memoryLatency);
                (void)taken;
            }
        } else if (msg.kind == MsgNack) {
            if (msg.dst == n) {
                ring::RingMessage nack = slot.remove();
                onNack(nack.payload);
            }
        } else {
            handleMessage(n, slot);
        }
    }
    if (!slot.occupied())
        tryInsert(n, slot);
}

void
RingProtocolBase::tryInsert(NodeId n, ring::SlotHandle &slot)
{
    auto &q = queueFor(n, slot.type());
    if (q.empty())
        return;
    if (!slot.canInsert(q.front().msg.addr))
        return;
    metrics_.addAcquireWait(kernel_.now() - q.front().enqueued);
    slot.insert(q.front().msg);
    q.pop_front();
    if (--queuedMsgs_[n] == 0)
        ring_.clearPending(n);
}

} // namespace ringsim::core
