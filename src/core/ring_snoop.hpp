/**
 * @file
 * Timed snooping protocol for the slotted ring (paper Section 3.1).
 *
 * Misses and invalidations broadcast a probe that circulates the whole
 * ring and is removed by its requester — no transaction ever traverses
 * the ring more than once, so the interconnect behaves as a UMA
 * device. The owner (home node when the memory dirty bit is clear,
 * else the dirty cache) services the request as the probe passes it
 * and returns the block in a block slot. Misses whose home is the
 * requester and whose dirty bit is clear never touch the ring.
 */

#ifndef RINGSIM_CORE_RING_SNOOP_HPP
#define RINGSIM_CORE_RING_SNOOP_HPP

#include "core/protocol_table.hpp"
#include "core/ring_protocol.hpp"

namespace ringsim::core {

/** The snooping controller set (one logical controller per node). */
class RingSnoopProtocol : public RingProtocolBase
{
  public:
    using RingProtocolBase::RingProtocolBase;

  protected:
    void launch(Txn &txn) override;

    /**
     * Only reached for occupied slots at the nodes a message names:
     * the base class opted every node into the ring's idle skipping,
     * so empty slots are offered solely to nodes whose queues are
     * non-empty (via tryInsert), and a probe reaches only its
     * requester and its tap (the planned supplier).
     */
    void handleMessage(NodeId n, ring::SlotHandle &slot) override;

  private:
    /** This transaction's row of the shared snoop transition table. */
    static ptable::SnoopPlan planOf(const Txn &txn);

    /** The node that must answer this transaction's probe. */
    NodeId supplierOf(const Txn &txn) const;

    /** Schedule the supplier's service and data reply. */
    void supply(Txn &txn, NodeId supplier);
};

} // namespace ringsim::core

#endif // RINGSIM_CORE_RING_SNOOP_HPP
