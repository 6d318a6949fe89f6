#include "network.hpp"

#include <bit>

#include "cache/invariant_monitor.hpp"
#include "fault/fault.hpp"
#include "util/logging.hpp"

namespace ringsim::ring {

RingMessage
SlotHandle::remove()
{
    if (!occupied())
        panic("remove() on an empty slot");
    unsigned s = slot_;
    if (ring_.monitor_) {
        // One-traversal completion: a message inserted at absolute
        // rotation R moves one stage per rotation, so by removal it
        // has traveled rotations - R stages. Self-removal (a probe
        // returning to its source) is exactly one full loop; anything
        // longer means a destination let its message pass.
        Count traveled = ring_.rotations_ - ring_.insertedAtRot_[s];
        if (traveled > ring_.config_.totalStages()) {
            cache::Violation v;
            v.kind = cache::Violation::Kind::TraversalOverrun;
            v.block = ring_.msgs_[s].addr;
            v.node = node_;
            v.other = ring_.insertedBy_[s];
            v.txn = ring_.msgs_[s].payload;
            v.slot = static_cast<int>(s);
            v.detail = strprintf(
                "slot %u: message from node %u removed at node %u "
                "after %llu stages (one traversal is %u)",
                s, ring_.insertedBy_[s], node_,
                static_cast<unsigned long long>(traveled),
                ring_.config_.totalStages());
            ring_.monitor_->report(std::move(v));
        } else {
            ring_.monitor_->noteCheck();
        }
    }
    unsigned t = SlotRing::typeIndex(ring_.types_[s]);
    std::uint64_t bit = std::uint64_t(1) << (s & 63);
    ring_.occAny_[s >> 6] &= ~bit;
    ring_.corrupt_[s >> 6] &= ~bit;
    ring_.accrueOccupancy();
    --ring_.occCnt_[t];
    --ring_.occTotal_;
    freedHere_ = true;
    ++ring_.removed_[t];
    return ring_.msgs_[s];
}

void
SlotHandle::insert(const RingMessage &msg)
{
    if (!canInsert(msg.addr))
        panic("insert() into an unavailable slot (node %u)", node_);
    unsigned s = slot_;
    unsigned t = SlotRing::typeIndex(ring_.types_[s]);
    std::uint64_t bit = std::uint64_t(1) << (s & 63);
    ring_.occAny_[s >> 6] |= bit;
    ring_.corrupt_[s >> 6] &= ~bit;
    ring_.accrueOccupancy();
    ++ring_.occCnt_[t];
    ++ring_.occTotal_;
    ring_.msgs_[s] = msg;
    ring_.names_[s] = SlotRing::SlotNames{
        msg.dst == broadcastNode ? msg.src : msg.dst, msg.tap};
    ring_.insertedAtRot_[s] = ring_.rotations_;
    ring_.insertedBy_[s] = node_;
    ++ring_.inserted_[t];
}

SlotRing::SlotRing(sim::Kernel &kernel, const RingConfig &config)
    : kernel_(kernel), config_(config),
      ticker_(kernel, config.clockPeriod, [this](Count c) { tick(c); })
{
    config_.validate();

    unsigned stages = config_.totalStages();
    unsigned frames = config_.framesOnRing();
    const FrameLayout &frame = config_.frame;

    headerSlot_.assign(stages, -1);
    types_.clear();
    for (unsigned f = 0; f < frames; ++f) {
        unsigned frame_base = f * frame.frameStages();
        for (unsigned s = 0; s < slotsPerFrame; ++s) {
            unsigned idx = static_cast<unsigned>(types_.size());
            types_.push_back(FrameLayout::slotTypeAt(s));
            headerSlot_[frame_base + frame.slotOffset(s)] =
                static_cast<int>(idx);
        }
    }
    unsigned nslots = static_cast<unsigned>(types_.size());
    stages_ = stages;
    words_ = (nslots + 63) / 64;
    occAny_.assign(words_, 0);
    corrupt_.assign(words_, 0);
    msgs_.assign(nslots, RingMessage{});
    names_.assign(nslots, SlotNames{invalidNode, invalidNode});
    insertedAtRot_.assign(nslots, 0);
    insertedBy_.assign(nslots, invalidNode);
    blockShift_ = frame.blockShift();

    nodePos_.assign(config_.nodes, 0);
    for (NodeId n = 0; n < config_.nodes; ++n)
        nodePos_[n] = config_.nodePosition(n);

    clients_.assign(config_.nodes, nullptr);

    // Precompute the visitation schedule: for each rotation offset r,
    // the (node, slot) pairs whose header lands on a node, in the same
    // ascending-node order the reference scan dispatches. Each node
    // anchors one stage, so the table holds at most nodes entries per
    // rotation and exactly nodes * slots entries overall.
    visitHead_.assign(stages + 1, 0);
    visits_.clear();
    for (unsigned r = 0; r < stages; ++r) {
        visitHead_[r] = static_cast<std::uint32_t>(visits_.size());
        for (NodeId n = 0; n < config_.nodes; ++n) {
            unsigned off = (nodePos_[n] + stages - r) % stages;
            int slot_idx = headerSlot_[off];
            if (slot_idx < 0)
                continue;
            visits_.push_back(
                SlotVisit{n, static_cast<std::uint32_t>(slot_idx)});
        }
    }
    visitHead_[stages] = static_cast<std::uint32_t>(visits_.size());

    tracked_.assign(config_.nodes, 0);
    pending_.assign(config_.nodes, 0);
}

void
SlotRing::setClient(NodeId n, RingClient &client)
{
    if (n >= clients_.size())
        panic("setClient: node %u out of range", n);
    clients_[n] = &client;
    // The new client has not promised no-op empty visits; revoke any
    // opt-in the previous one made.
    if (tracked_[n]) {
        tracked_[n] = 0;
        --trackedCount_;
    }
    if (pending_[n]) {
        pending_[n] = 0;
        --pendingCount_;
    }
}

void
SlotRing::enableIdleSkip(NodeId n)
{
    if (n >= tracked_.size())
        panic("enableIdleSkip: node %u out of range", n);
    if (!tracked_[n]) {
        tracked_[n] = 1;
        ++trackedCount_;
    }
}

void
SlotRing::notifyPending(NodeId n)
{
    if (n >= pending_.size())
        panic("notifyPending: node %u out of range", n);
    if (!pending_[n]) {
        pending_[n] = 1;
        ++pendingCount_;
    }
}

void
SlotRing::clearPending(NodeId n)
{
    if (n >= pending_.size())
        panic("clearPending: node %u out of range", n);
    if (pending_[n]) {
        pending_[n] = 0;
        --pendingCount_;
    }
}

void
SlotRing::start(Tick start_at)
{
    for (NodeId n = 0; n < config_.nodes; ++n)
        if (!clients_[n])
            panic("SlotRing started with no client at node %u", n);
    ticker_.start(start_at);
}

void
SlotRing::stop()
{
    ticker_.stop();
}

void
SlotRing::injectFaults(Count cycle)
{
    // Ascending slot order over occupied slots, exactly as the AoS
    // scan did — the injector's seeded schedule is a function of
    // (cycle, slot), so enumeration order is part of the contract.
    for (unsigned w = 0; w < words_; ++w) {
        std::uint64_t m = occAny_[w];
        while (m) {
            unsigned s =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            if (injector_->dropAt(cycle, s)) {
                // Latch upset: the message vanishes; only the sender's
                // retry timeout can recover it. Not counted as removed.
                unsigned t = typeIndex(types_[s]);
                std::uint64_t bit = std::uint64_t(1) << (s & 63);
                occAny_[w] &= ~bit;
                corrupt_[w] &= ~bit;
                accrueOccupancy();
                --occCnt_[t];
                --occTotal_;
            } else if (!bitTest(corrupt_, s) &&
                       injector_->corruptAt(cycle, s)) {
                bitSet(corrupt_, s);
            }
        }
    }
}

void
SlotRing::tick(Count cycle)
{
    // Slot occupancy accrues into the utilization integral lazily —
    // a closed form between occupancy changes (see accrueOccupancy) —
    // so advancing time is all this cycle pays. Time passes during a
    // stall, so the integral accrues there too.
    ++cycles_;

    if (injector_) {
        if (stallRemaining_ == 0)
            stallRemaining_ = injector_->stallFor(cycle);
        if (stallRemaining_ > 0) {
            // The pipeline holds: nothing moves, nobody is visited.
            --stallRemaining_;
            return;
        }
        injectFaults(cycle);
    }

    if (config_.referenceTickPath)
        referenceTick();
    else
        scheduledTick();
}

void
SlotRing::referenceTick()
{
    unsigned stages = stages_;

    // The pattern has advanced rot_ stages, so the pattern offset now
    // at physical position p is (p - rot_) mod stages. A node sees a
    // slot when that offset is the slot's header stage. Without
    // stalls, rot_ == cycle % stages.
    for (NodeId n = 0; n < config_.nodes; ++n) {
        unsigned pos = nodePos_[n];
        unsigned off = (pos + stages - rot_) % stages;
        int slot_idx = headerSlot_[off];
        if (slot_idx < 0)
            continue;
        SlotHandle handle(*this, static_cast<unsigned>(slot_idx), n);
        clients_[n]->onSlot(handle);
    }

    if (++rot_ == stages)
        rot_ = 0;
    ++rotations_;
}

void
SlotRing::scheduledTick()
{
    if (occTotal_ == 0 && pendingCount_ == 0 &&
        trackedCount_ == config_.nodes) {
        // Fully quiescent: no message on the ring and every node both
        // opted into idle skipping and reports nothing to insert. No
        // onSlot call this cycle could do anything.
        if (++rot_ == stages_)
            rot_ = 0;
        ++rotations_;
        // With a fault injector attached the seeded schedule is a
        // function of (cycle, slot), so every cycle must still be
        // presented to it — no jumping.
        if (!injector_)
            maybeFastForward();
        return;
    }

    const SlotVisit *v = visits_.data() + visitHead_[rot_];
    const SlotVisit *end = visits_.data() + visitHead_[rot_ + 1];
    work_.scheduledVisits += static_cast<Count>(end - v);
    for (; v != end; ++v) {
        bool occupied = bitTest(occAny_, v->slot);
        if (!wantsVisit(*v, occupied))
            continue;
        ++work_.dispatchedVisits;
        work_.occupiedDispatches += occupied;
        SlotHandle handle(*this, v->slot, v->node);
        clients_[v->node]->onSlot(handle);
    }

    if (++rot_ == stages_)
        rot_ = 0;
    ++rotations_;
}

void
SlotRing::maybeFastForward()
{
    // Land the next real tick on the last grid point strictly before
    // the earliest foreign event (or on the last one not beyond the
    // run bound when the queue is otherwise empty). Ticker::process
    // assigned the pending firing's sequence number before this
    // handler ran and the quiescent path schedules nothing, so sliding
    // that firing forward keeps every (when, seq) ordering against the
    // rest of the system exactly as the cycle-by-cycle path would —
    // the event streams, and therefore the statistics, are identical.
    Tick horizon = kernel_.nextEventTimeExcluding(ticker_);
    Tick bound;
    if (horizon != sim::Kernel::kNoEvent) {
        bound = horizon;
    } else {
        Tick limit = kernel_.runLimit();
        if (limit == sim::Kernel::kNoEvent)
            return;
        // Events scheduled exactly at the bound still fire.
        bound = limit + 1;
    }
    Tick pend = ticker_.when();
    if (bound <= pend)
        return;
    Count skip =
        static_cast<Count>((bound - 1 - pend) / config_.clockPeriod);
    if (skip == 0)
        return;
    ticker_.fastForward(skip);
    // Account for the skipped cycles as the idle ticks they replace.
    // The occupancy integrals gain nothing: every count is zero.
    cycles_ += skip;
    rotations_ += skip;
    rot_ = static_cast<unsigned>((rot_ + skip) % config_.totalStages());
}

Count
SlotRing::inserted(SlotType t) const
{
    return inserted_[typeIndex(t)];
}

Count
SlotRing::removed(SlotType t) const
{
    return removed_[typeIndex(t)];
}

double
SlotRing::occupancy(SlotType t) const
{
    if (cycles_ == 0)
        return 0.0;
    unsigned slots_of_type = config_.slotsOfType(t);
    return static_cast<double>(accruedIntegral(typeIndex(t))) /
           (static_cast<double>(cycles_) * slots_of_type);
}

double
SlotRing::totalOccupancy() const
{
    if (cycles_ == 0)
        return 0.0;
    std::uint64_t integral = accruedIntegral(0) + accruedIntegral(1) +
                             accruedIntegral(2);
    return static_cast<double>(integral) /
           (static_cast<double>(cycles_) * config_.totalSlots());
}

unsigned
SlotRing::occupiedNow() const
{
    unsigned c = 0;
    for (unsigned w = 0; w < words_; ++w)
        c += static_cast<unsigned>(std::popcount(occAny_[w]));
    return c;
}

void
SlotRing::resetStats()
{
    cycles_ = 0;
    occAccruedAt_ = 0;
    for (unsigned t = 0; t < 3; ++t) {
        occupancyIntegral_[t] = 0;
        inserted_[t] = 0;
        removed_[t] = 0;
    }
}

} // namespace ringsim::ring
