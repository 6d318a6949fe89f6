/**
 * @file
 * Whole-ring configuration: node count, clocking and stage placement.
 *
 * Section 4.2: each ring interface contributes a minimum of 3 pipeline
 * stages; the ring length is then rounded up to a whole number of
 * frames by adding extra stages. Check value: 8 nodes, 32-bit links,
 * 16-byte blocks => 24 stages rounded to 30 (3 frames), 60 ns round
 * trip at 500 MHz.
 */

#ifndef RINGSIM_RING_CONFIG_HPP
#define RINGSIM_RING_CONFIG_HPP

#include <string>
#include <vector>

#include "ring/frame_layout.hpp"
#include "util/units.hpp"

namespace ringsim::ring {

/** Static description of one slotted ring. */
struct RingConfig
{
    /** Number of nodes (ring interfaces). */
    unsigned nodes = 8;

    /** Ring clock period in ticks; 2000 ps = 500 MHz. */
    Tick clockPeriod = 2000;

    /** Minimum pipeline stages contributed by each node. */
    unsigned minStagesPerNode = 3;

    /**
     * Anti-starvation rule (Section 5.0): a node may not reuse a slot
     * in the same visit in which it removed a message from it. The
     * paper reports the rule costs nothing; bench/ablation_ring
     * verifies that claim by toggling this.
     */
    bool antiStarvation = true;

    /**
     * Permit node counts outside the paper's 8–64 evaluation range
     * (tests exploring degenerate geometries set this).
     */
    bool allowNonPaperScale = false;

    /**
     * Use the original scan-driven tick (walk every node, modulo per
     * node, visit even empty slots) instead of the schedule-driven
     * fast path. The two must produce byte-identical statistics; the
     * golden-equivalence test runs both and compares. Keep this off
     * outside that test — it exists as the executable specification
     * the fast path is checked against.
     */
    bool referenceTickPath = false;

    /** Slot/frame geometry. */
    FrameLayout frame;

    /** Total pipeline stages (rounded up to whole frames). */
    unsigned totalStages() const;

    /** Number of frames circulating on the ring. */
    unsigned framesOnRing() const;

    /** Number of slots circulating on the ring. */
    unsigned totalSlots() const { return framesOnRing() * slotsPerFrame; }

    /** Slots of a given type circulating on the ring. */
    unsigned slotsOfType(SlotType t) const;

    /** Pure (uncontended) time for one full traversal. */
    Tick roundTripTime() const {
        return static_cast<Tick>(totalStages()) * clockPeriod;
    }

    /** Time between consecutive same-type slot headers at one node. */
    Tick frameTime() const {
        return static_cast<Tick>(frame.frameStages()) * clockPeriod;
    }

    /** Pipeline-stage position of node @p n (evenly spread). */
    unsigned nodePosition(NodeId n) const;

    /**
     * Downstream stage distance from node @p from to node @p to
     * (0 when equal; always < totalStages()).
     */
    unsigned stageDistance(NodeId from, NodeId to) const;

    /**
     * All misconfigurations, as human-readable messages (empty when
     * the config is sound). Callers that can recover use this;
     * validate() is the fail-fast wrapper.
     */
    [[nodiscard]] std::vector<std::string> check() const;

    /** Validate all parameters; fatal() on misconfiguration. */
    void validate() const;
};

} // namespace ringsim::ring

#endif // RINGSIM_RING_CONFIG_HPP
