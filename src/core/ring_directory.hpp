/**
 * @file
 * Timed full-map directory protocol for the slotted ring (Section 3.2).
 *
 * All requests go point-to-point to the home node, which owns the
 * full-map directory entry (presence bits + dirty bit). Clean blocks
 * are served from the home's memory; dirty blocks are forwarded to
 * the owning cache, which supplies the requester directly. Write
 * misses and invalidations to blocks with presence bits set launch a
 * full-ring multicast invalidation whose return the home awaits
 * before responding — the source of the protocol's 2-traversal
 * transactions and its non-uniform latencies.
 */

#ifndef RINGSIM_CORE_RING_DIRECTORY_HPP
#define RINGSIM_CORE_RING_DIRECTORY_HPP

#include "core/protocol_table.hpp"
#include "core/ring_protocol.hpp"

namespace ringsim::core {

/** The directory controller set. */
class RingDirectoryProtocol : public RingProtocolBase
{
  public:
    using RingProtocolBase::RingProtocolBase;

  protected:
    void launch(Txn &txn) override;

    /**
     * Only reached for occupied slots at each message's remover (see
     * RingProtocolBase: the ring skips empty-slot visits to nodes with
     * nothing queued, and directory messages carry no tap).
     */
    void handleMessage(NodeId n, ring::SlotHandle &slot) override;

  private:
    /** This transaction's row of the shared directory table. */
    ptable::DirPlan planOf(const Txn &txn) const;

    /** Directory actions at the home node (after the lookup delay). */
    void homeActions(std::uint64_t tag);

    /** Send the block (or ack) that completes the transaction. */
    void respond(std::uint64_t tag, NodeId from, Tick when);
};

} // namespace ringsim::core

#endif // RINGSIM_CORE_RING_DIRECTORY_HPP
