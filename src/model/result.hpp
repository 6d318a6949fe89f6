/**
 * @file
 * Output record of the analytic models.
 */

#ifndef RINGSIM_MODEL_RESULT_HPP
#define RINGSIM_MODEL_RESULT_HPP

#include "util/units.hpp"

namespace ringsim::model {

/**
 * Documented accuracy envelope of the hybrid analytic model against
 * the exact simulator (the paper's own calibration: within ~15% on
 * utilization and latency across the studied configurations). The
 * experiment service attaches this bound to every model-tier
 * degraded answer so a client can judge whether an estimate is
 * adequate or the exact simulation must be awaited.
 */
inline constexpr double kModelErrorBound = 0.15;

/** One solved operating point. */
struct ModelResult
{
    /** Per-processor execution time of the census window, ns. */
    double execTimeNs = 0;

    /** Processor utilization (cpu work / execution time). */
    double procUtilization = 0;

    /** Ring slot or bus utilization. */
    double networkUtilization = 0;

    /** Mean remote-miss latency, ns. */
    double missLatencyNs = 0;

    /** Mean invalidation latency, ns. */
    double upgradeLatencyNs = 0;

    /** Fixed-point iterations used. */
    unsigned iterations = 0;

    /** True if the network saturated: a ring occupancy was clamped at
     *  0.98 during the iteration, or the bus ran above 95% busy. */
    bool saturated = false;
};

} // namespace ringsim::model

#endif // RINGSIM_MODEL_RESULT_HPP
