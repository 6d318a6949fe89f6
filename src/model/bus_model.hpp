/**
 * @file
 * Iterative analytic model of the split-transaction bus system.
 *
 * The bus is a single FCFS server; request and response tenures are
 * the two service classes. Waiting comes from mean-value analysis
 * (MVA) of a closed network: the processors are the customers, each
 * alternating between off-bus think time and bus tenures of the mean
 * tenure mix. Blocking processors close the loop, so the wait stays
 * finite even at saturation.
 */

#ifndef RINGSIM_MODEL_BUS_MODEL_HPP
#define RINGSIM_MODEL_BUS_MODEL_HPP

#include "bus/split_bus.hpp"
#include "coherence/census.hpp"
#include "core/config.hpp"
#include "model/result.hpp"

namespace ringsim::model {

/** Inputs of one bus-model evaluation. */
struct BusModelInput
{
    /** Calibration census; the bus mirrors the snooping protocol. */
    coherence::Census census;

    /** Bus geometry and clocking. */
    bus::BusConfig bus;

    /** Service times and processor cycle. */
    core::SystemConfig system;
};

/** Solve the fixed point for one operating point. */
ModelResult solveBus(const BusModelInput &input);

} // namespace ringsim::model

#endif // RINGSIM_MODEL_BUS_MODEL_HPP
