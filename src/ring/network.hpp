/**
 * @file
 * Cycle-level model of the unidirectional slotted ring.
 *
 * The ring is a circular pipeline of totalStages() latch stages whose
 * contents advance one stage per ring clock. The slot pattern (frames
 * of even-probe / odd-probe / block slots) is fixed; rather than
 * copying latch contents we rotate a read index, and we invoke a
 * node's RingClient exactly when a slot *header* stage reaches that
 * node's position. Protocol controllers implement RingClient and use
 * the SlotHandle to snoop, remove, or insert messages.
 *
 * Access-control rules enforced here (Sections 2.0 and 5.0):
 *  - a message may only be inserted into an empty slot whose type
 *    matches (probe parity must match the block address);
 *  - anti-starvation: a node may not reuse a slot in the same visit in
 *    which it removed a message from it.
 *
 * The steady-state tick is schedule-driven and data-oriented
 * (DESIGN.md section 11). Slot state lives in structure-of-arrays
 * form: occupancy and corruption bitmaps, per-type occupied counts and
 * a dense message array on the hot side, traversal-audit fields on a
 * cold side touched only by insert/remove/monitor paths. A visitation
 * table precomputed per rotation offset replaces the per-node modulo
 * scan, and one loop walks the rotation's entries, calling onSlot for
 * each visit that can act. Nodes that opted in via enableIdleSkip()
 * are only visited when the arriving slot carries a message that
 * names them (or is corrupt), or when the node flagged pending work
 * via notifyPending() and the slot is empty, and a fully quiescent
 * ring fast-forwards across idle cycles in O(1). The original scan
 * loop is retained behind RingConfig::referenceTickPath and the two
 * are held byte-identical by tests/ring/golden_equivalence_test.cpp.
 */

#ifndef RINGSIM_RING_NETWORK_HPP
#define RINGSIM_RING_NETWORK_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "ring/config.hpp"
#include "sim/kernel.hpp"
#include "stats/stats.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace ringsim::fault {
class FaultInjector;
} // namespace ringsim::fault

namespace ringsim::cache {
class InvariantMonitor;
} // namespace ringsim::cache

namespace ringsim::ring {

/** Destination value meaning "snooped by everyone" (broadcast probes). */
inline constexpr NodeId broadcastNode = invalidNode - 1;

/**
 * A message occupying one slot.
 *
 * The message names the nodes that act on it, and a node that opted
 * into idle skipping (SlotRing::enableIdleSkip) is dispatched an
 * occupied slot only when it is one of them: the *remover* — dst, or
 * src when dst is broadcastNode (a probe returning to its sender) —
 * or the *tap*. A message with dst == invalidNode names no remover
 * and passes every opted-in node untouched.
 */
struct RingMessage
{
    NodeId src = invalidNode;  //!< inserting node
    NodeId dst = invalidNode;  //!< destination, or broadcastNode
    Addr addr = 0;             //!< block base address
    std::uint32_t kind = 0;    //!< protocol-defined opcode
    /** One more node that must see this message as it passes (a
     *  snoop probe's supplier), or invalidNode. Fills the alignment
     *  gap before payload. */
    NodeId tap = invalidNode;
    std::uint64_t payload = 0; //!< protocol-defined extra field
};

static_assert(sizeof(RingMessage) == 32,
              "RingMessage::tap must fit in the struct's padding");

class SlotRing;

/**
 * Deterministic counts of the schedule-driven tick's dispatch work (the
 * reference scan counts nothing). Kept out of every RunResult (and so
 * out of cache keys): they describe how the simulator computed the
 * answer, not the answer.
 */
struct RingWork
{
    /** Schedule entries the tick walked (quiescent ticks walk none). */
    Count scheduledVisits = 0;
    /** Visits handed to a client's onSlot. */
    Count dispatchedVisits = 0;
    /** Dispatched visits whose slot was occupied. */
    Count occupiedDispatches = 0;
};

/**
 * A node's view of the slot whose header just reached it. Valid only
 * for the duration of the RingClient::onSlot call.
 */
class SlotHandle
{
  public:
    /** Type of the visiting slot. */
    SlotType type() const;

    /** True if the slot carries a message. */
    bool occupied() const;

    /**
     * True if the carried message's payload was corrupted by fault
     * injection (detected via its CRC; the header survives).
     */
    bool corrupted() const;

    /** The carried message; panics when empty. */
    const RingMessage &message() const;

    /**
     * Take the message out of the slot, freeing it. Only meaningful
     * for the destination (or the source, for self-removed probes);
     * the protocol is responsible for honoring that.
     */
    RingMessage remove();

    /**
     * True if insert() would succeed: the slot is empty, was not freed
     * by this node in this visit, and @p addr has the parity this slot
     * serves (always true for block slots).
     */
    bool canInsert(Addr addr) const;

    /** Place @p msg into the slot; panics unless canInsert(msg.addr). */
    void insert(const RingMessage &msg);

    /** The node being visited. */
    NodeId node() const { return node_; }

  private:
    friend class SlotRing;

    SlotHandle(SlotRing &ring_owner, unsigned slot_idx, NodeId node_id)
        : ring_(ring_owner), slot_(slot_idx), node_(node_id)
    {}

    SlotRing &ring_;
    unsigned slot_;
    NodeId node_;
    bool freedHere_ = false;
};

/** Interface implemented by each node's protocol controller. */
class RingClient
{
  public:
    virtual ~RingClient() = default;

    /**
     * A slot header reached this node's interface. Within one cycle
     * the ring visits nodes in ascending order, each at most once.
     *
     * Contract (DESIGN.md section 11): a handler mutates only state
     * attributed to the node being visited — its own slot via the
     * SlotHandle, and its own node's pending flags via
     * notifyPending()/clearPending(). It must not call setClient() or
     * touch another node's pending flags synchronously; cross-node
     * effects go through kernel events.
     */
    virtual void onSlot(SlotHandle &slot) = 0;
};

/**
 * The slotted ring proper: owns the slots, advances them every clock,
 * and dispatches slot headers to the registered clients.
 */
class SlotRing
{
  public:
    /**
     * @param kernel event kernel driving the simulation.
     * @param config ring geometry and clocking (validated here).
     */
    SlotRing(sim::Kernel &kernel, const RingConfig &config);

    /** Attach the protocol controller for node @p n (required). */
    void setClient(NodeId n, RingClient &client);

    /**
     * Declare that node @p n's client is a pure reactor. It promises
     * that its onSlot() has no effect (it neither mutates state nor
     * gathers statistics) when
     *  - the slot is empty and the node has no pending work, or
     *  - the slot is occupied, uncorrupted, and the node is neither
     *    the message's remover (dst, or src for a broadcast) nor its
     *    tap (see RingMessage).
     * The ring then skips those calls, and once every node has opted
     * in it may fast-forward across fully idle stretches. A corrupt
     * slot is dispatched to the first opted-in node it reaches, which
     * is expected to discard it.
     *
     * A client that opts in MUST call notifyPending()/clearPending()
     * as work to insert appears and drains; otherwise it would never
     * be offered an empty slot. It too keeps the RingClient::onSlot
     * contract: a handler flags only its own node, and reaches other
     * nodes through kernel events. setClient() revokes the opt-in for
     * that node (the new client has not promised anything).
     */
    void enableIdleSkip(NodeId n);

    /**
     * Node @p n has work it wants to put on the ring: visit it on
     * every slot (so it can be offered empty ones) until
     * clearPending(). Idempotent; meaningful only after
     * enableIdleSkip(n).
     */
    void notifyPending(NodeId n);

    /** Node @p n no longer has anything to insert. Idempotent. */
    void clearPending(NodeId n);

    /**
     * Attach a fault injector (null detaches). Borrowed; must outlive
     * the ring. With no injector the ring is the paper's ideal ring.
     */
    void setFaultInjector(fault::FaultInjector *injector) {
        injector_ = injector;
    }

    /**
     * Attach an invariant monitor (null detaches). Borrowed. When set,
     * the ring reports messages that overrun one full traversal
     * without being removed by their destination.
     */
    void setMonitor(cache::InvariantMonitor *monitor) {
        monitor_ = monitor;
    }

    /** Begin rotating at time @p start_at. */
    void start(Tick start_at = 0);

    /** Stop rotating (removes the pending tick). */
    void stop();

    /** The ring's configuration. */
    const RingConfig &config() const { return config_; }

    /** Time for the non-header stages of a slot to drain at a node. */
    Tick slotTailTime(SlotType t) const {
        return static_cast<Tick>(config_.frame.slotStages(t) - 1) *
               config_.clockPeriod;
    }

    /** Ring cycles elapsed. */
    Count cycles() const { return cycles_; }

    /** Messages inserted so far, by slot type (0=even,1=odd,2=block). */
    Count inserted(SlotType t) const;

    /** Messages removed so far, by slot type. */
    Count removed(SlotType t) const;

    /** Average occupancy (0..1) of slots of type @p t so far. */
    double occupancy(SlotType t) const;

    /** Average occupancy of all slots (the paper's ring utilization). */
    double totalOccupancy() const;

    /** Slots currently occupied (for tests). */
    unsigned occupiedNow() const;

    /** Dispatch work since construction (not reset by resetStats). */
    const RingWork &work() const { return work_; }

    /** Which parity probe slot serves @p addr. */
    SlotType probeTypeFor(Addr addr) const;

    /**
     * Zero the occupancy/throughput statistics. Used at the end of the
     * warmup window so reported figures cover only the measured phase.
     *
     * Warm-up-reset semantics — what is and is not cleared:
     *  - cleared: cycles_ (the denominator of every occupancy figure),
     *    the per-type occupancy integrals, and the inserted/removed
     *    message counts. After a mid-run reset, occupancy(t) is the
     *    average over post-reset cycles only.
     *  - untouched: slots in flight (messages keep circulating and the
     *    occupancy integral immediately re-accrues from the live
     *    occupied counts), rot_ (physical pipeline position — resetting
     *    it would teleport the slot pattern), and rotations_ (feeds the
     *    one-traversal audit of messages inserted before the reset).
     *
     * Pinned by RingNetwork.ResetStatsMidRunOccupancy.
     */
    void resetStats();

  private:
    friend class SlotHandle;

    /** One ring cycle: the ticker's handler. */
    void tick(Count cycle);
    void referenceTick();
    /** Schedule-driven cycle: walk the rotation's visits. */
    void scheduledTick();

    /** One (node, slot) dispatch in a rotation's visitation schedule. */
    struct SlotVisit
    {
        NodeId node;
        std::uint32_t slot;
    };

    /**
     * The schedule-driven visit predicate: must node v.node see slot
     * v.slot now? Untracked nodes see every slot; a tracked node sees
     * an empty slot while pending, and an occupied one when it is the
     * message's remover or tap or the slot is corrupt.
     */
    bool wantsVisit(const SlotVisit &v, bool occupied) const {
        if (!tracked_[v.node])
            return true;
        if (!occupied)
            return pending_[v.node] != 0;
        const SlotNames &names = names_[v.slot];
        return names.remover == v.node || names.tap == v.node ||
               bitTest(corrupt_, v.slot);
    }

    void injectFaults(Count cycle);

    /**
     * From a fully quiescent tick (no occupied slot, no pending node,
     * every node tracked, no injector), jump the ticker, rot_, cycles_
     * and rotations_ across the idle gap up to — but never onto — the
     * next foreign kernel event, in O(1). The occupancy integrals need
     * no adjustment: every maintained count is zero across the gap.
     */
    void maybeFastForward();

    static unsigned typeIndex(SlotType t) {
        return static_cast<unsigned>(t);
    }

    // --- Hot slot state: structure-of-arrays bitmaps -----------------
    //
    // occAny_[w] is the occupancy bitmap (the bit the visit predicate
    // tests); corrupt_ ⊆ occAny_ marks payload corruption. Slot types
    // are fixed at construction (types_); occCnt_ counts the occupied
    // slots of each type.

    bool bitTest(const std::vector<std::uint64_t> &bm, unsigned s) const {
        return (bm[s >> 6] >> (s & 63)) & 1;
    }
    void bitSet(std::vector<std::uint64_t> &bm, unsigned s) {
        bm[s >> 6] |= std::uint64_t(1) << (s & 63);
    }
    /**
     * Fold the cycles since the last occupancy change into the
     * integrals. Must run before any occCnt_ mutation; between
     * mutations the integral is a closed form (count × elapsed), so
     * the tick path carries no per-cycle accumulation at all.
     */
    void accrueOccupancy() {
        Count elapsed = cycles_ - occAccruedAt_;
        if (elapsed) {
            for (unsigned t = 0; t < 3; ++t)
                occupancyIntegral_[t] +=
                    static_cast<std::uint64_t>(occCnt_[t]) * elapsed;
            occAccruedAt_ = cycles_;
        }
    }

    /** The integral including the not-yet-folded tail (for readers). */
    std::uint64_t accruedIntegral(unsigned t) const {
        return occupancyIntegral_[t] +
               static_cast<std::uint64_t>(occCnt_[t]) *
                   (cycles_ - occAccruedAt_);
    }

    sim::Kernel &kernel_;
    RingConfig config_;
    sim::Ticker ticker_;

    /** Pipeline stages (== config_.totalStages(), cached: the ctor
     *  call chain behind it — two divisions — is off the tick path). */
    unsigned stages_ = 0;
    /** Bitmap words per mask (ceil(config_.totalSlots() / 64)). */
    unsigned words_ = 0;

    /** Per-slot type, fixed at construction. */
    std::vector<SlotType> types_;
    /** Occupied slots of each type index (the occupancy integrals'
     *  rates), maintained at insert/remove/drop. */
    unsigned occCnt_[3] = {0, 0, 0};
    /** Total occupied slots (sum of occCnt_; one load on the tick
     *  path). */
    unsigned occTotal_ = 0;
    /** Occupancy bitmap over all slots. */
    std::vector<std::uint64_t> occAny_;
    /** Payload-corruption bitmap (always a subset of occAny_). */
    std::vector<std::uint64_t> corrupt_;
    /** Dense message payloads, indexed by slot. */
    std::vector<RingMessage> msgs_;

    /** The nodes an occupied slot's message names (RingMessage). */
    struct SlotNames
    {
        NodeId remover;
        NodeId tap;
    };
    /** names_[slot], written at insert; what wantsVisit reads instead
     *  of the 32-byte msgs_ entry. Stale while the slot is empty. */
    std::vector<SlotNames> names_;

    // Cold traversal-audit state, touched only on insert/remove and by
    // the invariant monitor — kept out of the per-visit cache
    // footprint on purpose.
    std::vector<Count> insertedAtRot_;
    std::vector<NodeId> insertedBy_;

    /** headerSlot_[stage offset] = slot index whose header sits there,
     *  or -1 for a non-header stage. */
    std::vector<int> headerSlot_;
    /** nodeAtPos_[stage] = node anchored at that stage, or invalid. */
    std::vector<NodeId> nodePos_;
    std::vector<RingClient *> clients_;

    /**
     * Visitation schedule: visits_[visitHead_[r] .. visitHead_[r+1])
     * are the (node, slot) pairs whose header reaches the node at
     * rotation offset r, in ascending node order — the same dispatch
     * order the reference scan produces.
     */
    std::vector<SlotVisit> visits_;
    std::vector<std::uint32_t> visitHead_;

    /** tracked_[n]: node n opted into idle skipping (enableIdleSkip). */
    std::vector<std::uint8_t> tracked_;
    /** pending_[n]: tracked node n wants to insert (notifyPending). */
    std::vector<std::uint8_t> pending_;
    unsigned trackedCount_ = 0;
    unsigned pendingCount_ = 0;

    fault::FaultInjector *injector_ = nullptr;
    cache::InvariantMonitor *monitor_ = nullptr;

    Count cycles_ = 0;
    /** Current pattern rotation (== cycle % stages with no stalls). */
    unsigned rot_ = 0;
    /** Absolute rotations performed (monotone; stalls pause it). */
    Count rotations_ = 0;
    /** Remaining cycles of an injected stall. */
    unsigned stallRemaining_ = 0;
    /** log2(blockBytes) when it is a power of two, else -1. */
    int blockShift_ = -1;
    std::uint64_t occupancyIntegral_[3] = {0, 0, 0};
    /** Cycle count already folded into occupancyIntegral_. */
    Count occAccruedAt_ = 0;
    Count inserted_[3] = {0, 0, 0};
    Count removed_[3] = {0, 0, 0};
    RingWork work_;
};

// SlotHandle accessors are on the per-slot hot path of every protocol
// engine; defining them here (after SlotRing is complete) lets the
// compiler fold them into the onSlot bodies instead of paying a call
// per query.

inline SlotType
SlotHandle::type() const
{
    return ring_.types_[slot_];
}

inline bool
SlotHandle::occupied() const
{
    return ring_.bitTest(ring_.occAny_, slot_);
}

inline bool
SlotHandle::corrupted() const
{
    // corrupt_ is maintained as a subset of occAny_, so one bit test
    // answers "occupied and corrupted".
    return ring_.bitTest(ring_.corrupt_, slot_);
}

inline const RingMessage &
SlotHandle::message() const
{
    if (!occupied())
        panic("message() on an empty slot");
    return ring_.msgs_[slot_];
}

inline SlotType
SlotRing::probeTypeFor(Addr addr) const
{
    // blockBytes is a power of two in every paper configuration; the
    // shift is cached at construction and the divide kept as the
    // fallback (FrameLayout.ProbeParityShiftMatchesDivide pins the
    // two agree).
    Addr block = blockShift_ >= 0
                     ? addr >> static_cast<unsigned>(blockShift_)
                     : addr / config_.frame.blockBytes;
    return (block % 2 == 0) ? SlotType::ProbeEven : SlotType::ProbeOdd;
}

inline bool
SlotHandle::canInsert(Addr addr) const
{
    if (occupied())
        return false;
    if (freedHere_ && ring_.config_.antiStarvation)
        return false;
    SlotType t = ring_.types_[slot_];
    if (t == SlotType::Block)
        return true;
    return ring_.probeTypeFor(addr) == t;
}

} // namespace ringsim::ring

#endif // RINGSIM_RING_NETWORK_HPP
