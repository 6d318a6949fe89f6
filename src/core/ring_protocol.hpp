/**
 * @file
 * Shared machinery of the timed ring protocols.
 *
 * Both ring protocols (snooping and full-map directory) need the same
 * plumbing: per-node outbound message queues in front of each slot
 * type, a per-node memory-bank FCFS queue, a transaction table, and
 * the glue that turns SlotRing callbacks into protocol steps. The
 * concrete protocols implement message handling and transaction
 * scripts on top.
 */

#ifndef RINGSIM_CORE_RING_PROTOCOL_HPP
#define RINGSIM_CORE_RING_PROTOCOL_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coherence/engine.hpp"
#include "core/config.hpp"
#include "core/flat_queue.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "fault/fault.hpp"
#include "ring/network.hpp"
#include "sim/kernel.hpp"

namespace ringsim::core {

/** Message opcodes used on the ring by the timed protocols. */
enum RingMsgKind : std::uint32_t {
    MsgSnoopProbe = 1, //!< broadcast miss/invalidation probe (snoop)
    MsgDirRequest,     //!< point-to-point request to the home
    MsgDirForward,     //!< home-to-owner forward
    MsgDirMulticast,   //!< home-launched full-ring invalidation
    MsgDirAck,         //!< home-to-requester acknowledgment
    MsgBlockData,      //!< block message completing a transaction
    MsgBlockTraffic,   //!< block message with no waiting transaction
                       //!< (write-backs, memory refresh copies)
    MsgNack,           //!< negative ack: a node discarded a corrupt
                       //!< message and asks its sender to retry
};

/**
 * Base class of the timed ring protocols.
 *
 * The protocol itself is the ring client for every node: the ring
 * calls onSlot() once per live visit, and the handle names the node
 * being visited (no per-node trampoline). A visit on an empty slot
 * with nothing queued is a pure no-op (no state change, no
 * statistics), and so is a visit on an uncorrupted occupied slot at a
 * node its message does not name (neither remover nor tap, see
 * ring::RingMessage). The constructor therefore opts every node into
 * the ring's idle skipping; enqueue()/tryInsert() keep the pending
 * flags honest.
 */
class RingProtocolBase : public Protocol, public ring::RingClient
{
  public:
    /**
     * All references are borrowed and must outlive the protocol.
     */
    RingProtocolBase(sim::Kernel &kernel, const SystemConfig &config,
                     coherence::FunctionalEngine &engine,
                     ring::SlotRing &ring_net, Metrics &metrics);

    ~RingProtocolBase() override;

    [[nodiscard]] bool
    tryAccess(NodeId p, const trace::TraceRecord &ref) override;

    void startTransaction(NodeId p, const trace::TraceRecord &ref,
                          std::function<void()> on_complete) override;

    /**
     * A slot header reached the interface of slot.node(). Honors the
     * RingClient::onSlot contract: a visit only touches the visited
     * node's slot, queues and pending flags synchronously; cross-node
     * protocol steps are posted as kernel events.
     */
    void onSlot(ring::SlotHandle &slot) override;

    /**
     * Enable fault recovery: NACK handling, per-transaction retry
     * watchdogs with exponential backoff, and graceful degradation
     * when retries are exhausted. @p injector is borrowed (it supplies
     * the recovery knobs and receives the recovery statistics); null
     * disables recovery. Resolves auto (zero) timeout/backoff values
     * from the ring geometry and service times.
     */
    void setFaultRecovery(fault::FaultInjector *injector);

  protected:
    /** One outstanding transaction. */
    struct Txn
    {
        std::uint64_t id = 0;
        NodeId requester = invalidNode;
        coherence::AccessOutcome outcome;
        LatClass cls = LatClass::LocalMiss;
        Tick issueTime = 0;
        unsigned remainingLegs = 1;
        /** The requester's own probe returning counts as a leg. */
        bool probeReturnLeg = false;
        /** Directory: memory data ready time (overlapped fetch). */
        Tick dataReadyAt = 0;
        /** Launch attempt, starting at 1; bumped by every retry. */
        unsigned attempt = 1;
        std::function<void()> onComplete;
    };

    /**
     * On-wire transaction identity. Message payloads carry a *tag* —
     * the transaction id combined with its launch attempt — so that
     * events raised by a superseded attempt (a probe still circulating
     * when the watchdog already relaunched the transaction) are
     * recognizably stale and ignored rather than double-completing.
     */
    static constexpr unsigned tagAttemptBits = 8;

    static std::uint64_t makeTag(std::uint64_t id, unsigned attempt) {
        return (id << tagAttemptBits) |
               (attempt & ((1u << tagAttemptBits) - 1));
    }
    static std::uint64_t tagTxn(std::uint64_t tag) {
        return tag >> tagAttemptBits;
    }
    static unsigned tagAttempt(std::uint64_t tag) {
        return static_cast<unsigned>(tag &
                                     ((1u << tagAttemptBits) - 1));
    }

    /** The current on-wire tag of @p txn. */
    static std::uint64_t tagOf(const Txn &txn) {
        return makeTag(txn.id, txn.attempt);
    }

    /**
     * Protocol script: called once per transaction, after the state
     * has been applied. Must set txn.cls and txn.remainingLegs and
     * kick off the transaction's first timing step(s).
     */
    virtual void launch(Txn &txn) = 0;

    /**
     * A slot carrying a message reached node @p n. Must do nothing
     * unless @p n is the message's remover or tap: the ring dispatches
     * the slot to no other node (RingClient::onSlot).
     */
    virtual void handleMessage(NodeId n, ring::SlotHandle &slot) = 0;

    /** One leg of the transaction tagged @p tag finished; completes
     *  at zero. Stale tags (superseded attempts) are ignored when
     *  recovery is enabled. */
    void legDone(std::uint64_t tag);

    /** Queue @p msg for insertion at node @p n (type by message). */
    void enqueue(NodeId n, const ring::RingMessage &msg,
                 bool is_block);

    /** FCFS memory bank at @p node: returns service completion time
     *  for a request arriving at @p when. */
    Tick bankDone(NodeId node, Tick when, Tick service);

    /** Queue the victim write-back traffic of @p txn, if any. */
    void sendVictimWriteback(const Txn &txn);

    /** Look up an outstanding transaction; null if finished. */
    Txn *findTxn(std::uint64_t id);

    /**
     * Resolve a tag to its live transaction: null when the
     * transaction finished or the tag belongs to a superseded
     * attempt. Never panics and keeps no statistics — for passive
     * observers (snoop suppliers, probe returns).
     */
    Txn *activeTxn(std::uint64_t tag);

    /**
     * Like activeTxn(), but for events that *must* find their
     * transaction on an ideal ring: with recovery disabled a missing
     * transaction panics with @p what; with recovery enabled the
     * event counts as stale and null is returned.
     */
    Txn *requireTxn(std::uint64_t tag, const char *what);

    sim::Kernel &kernel_;
    SystemConfig config_;
    coherence::FunctionalEngine &engine_;
    ring::SlotRing &ring_;
    Metrics &metrics_;
    unsigned nodes_;

  private:
    struct QueuedMsg
    {
        ring::RingMessage msg;
        Tick enqueued;
    };

    void tryInsert(NodeId n, ring::SlotHandle &slot);

    /** Discard a corrupt message at node @p n; NACK its sender. */
    void discardCorrupt(NodeId n, ring::SlotHandle &slot);

    /** Arm the retry watchdog for @p id's current attempt. */
    void armWatchdog(std::uint64_t id);
    /** Watchdog expiry for (@p id, @p attempt). */
    void onWatchdog(std::uint64_t id, unsigned attempt);
    /** A NACK for @p tag reached its sender. */
    void onNack(std::uint64_t tag);
    /** Begin a retry (or declare a fatal fault) for @p txn. */
    void retryTxn(Txn &txn);
    /** Re-run the launch script for (@p id, @p attempt). */
    void relaunch(std::uint64_t id, unsigned attempt);
    /**
     * Complete @p txn now (shared by legDone and fatal faults).
     * @p succeeded distinguishes a real completion — which counts as
     * recovered when it took more than one attempt — from a fatal
     * give-up, which must not.
     */
    void completeTxn(Txn &txn, bool succeeded = true);

    FlatQueue<QueuedMsg> &queueFor(NodeId n, ring::SlotType t);

    /** queues_[node * 3 + slot type]; flat ring buffers, each on its
     *  own cache line (FlatQueue is alignas(64)). */
    std::vector<FlatQueue<QueuedMsg>> queues_;
    /** Messages queued across all three of node n's queues; drives
     *  SlotRing::notifyPending / clearPending on 0↔1 transitions. */
    std::vector<unsigned> queuedMsgs_;
    std::vector<Tick> bankFreeAt_;
    std::unordered_map<std::uint64_t, Txn> txns_;
    std::uint64_t nextTxnId_ = 1;

    /** Fault recovery state (inactive unless setFaultRecovery ran). */
    fault::FaultInjector *faultInjector_ = nullptr;
    bool recovery_ = false;
    Tick retryTimeout_ = 0;
    Tick backoffBase_ = 0;
};

} // namespace ringsim::core

#endif // RINGSIM_CORE_RING_PROTOCOL_HPP
