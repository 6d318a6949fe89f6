/**
 * @file
 * Iterative analytic model of the slotted-ring systems.
 *
 * The hybrid methodology (Section 4.0, after Menasce & Barroso): a
 * simulation census fixes the per-processor coherence-event counts;
 * the model iterates
 *
 *   latencies -> execution time -> message rates -> slot occupancy
 *   -> slot waits -> latencies
 *
 * to a fixed point. Slot waiting combines the residual until the next
 * same-type slot header (frame time / 2) with geometric retries on
 * occupied slots (frame * rho / (1 - rho)). Pure path latencies come
 * from the ring geometry exactly as the timed simulator computes them.
 *
 * Both ring access disciplines live here. Each protocol's latency
 * script (which waits and traversals a transaction class pays) is
 * written once, as a function of the probe and block access waits;
 * the slotted solver feeds it slot waits and the register-insertion
 * solver its bypass-FIFO wait.
 */

#ifndef RINGSIM_MODEL_RING_MODEL_HPP
#define RINGSIM_MODEL_RING_MODEL_HPP

#include "coherence/census.hpp"
#include "core/config.hpp"
#include "model/result.hpp"
#include "ring/config.hpp"

namespace ringsim::model {

/** Which ring protocol to model. */
enum class RingProtocol { Snoop, Directory };

/** Inputs of one ring-model evaluation. */
struct RingModelInput
{
    /** Calibration census (counts are for the whole census window). */
    coherence::Census census;

    /** Ring geometry and clocking. */
    ring::RingConfig ring;

    /** Service times and the processor cycle to evaluate at. */
    core::SystemConfig system;

    RingProtocol protocol = RingProtocol::Snoop;
};

/** Solve the slotted-ring fixed point for one operating point. */
ModelResult solveRing(const RingModelInput &input);

/**
 * Solve the register-insertion fixed point for one operating point,
 * for the slotted-vs-insertion comparison the paper poses but does not
 * quantify (Section 2: "Which one of slotted or register insertion
 * rings offers the best performance is not clear").
 *
 * Modeled in the style of Scott, Goodman & Vernon's SCI-ring analysis
 * (the paper's reference [16]): each node's output link is an M/G/1
 * server whose service time is a message's transmission time.
 * Messages insert immediately when the link is idle (no slot-residual
 * wait — the insertion ring's advantage at light load) and queue in
 * the bypass FIFO behind through-traffic as load grows (its
 * disadvantage: the 1/(1-rho) blow-up, on top of which the real SCI
 * starvation-avoidance mechanism costs extra throughput that we do
 * not charge — this model flatters register insertion).
 *
 * The comparison runs both access-control disciplines over the same
 * directory-protocol latency script, message census and ring
 * geometry, so the only difference is how bandwidth is granted. Input
 * fields are interpreted exactly as for solveRing() (the frame
 * structure only contributes message lengths, not slot timing); the
 * protocol must be Directory, since register insertion cannot support
 * snooping (Section 3.3).
 */
ModelResult solveInsertionRing(const RingModelInput &input);

} // namespace ringsim::model

#endif // RINGSIM_MODEL_RING_MODEL_HPP
