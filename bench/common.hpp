/**
 * @file
 * Flag parsing and the local-or-service run of the bench binaries.
 *
 * Every bench reproduces one artifact of the paper, a registered sweep
 * of src/figures: bench/artifact_main.cpp is built once per artifact
 * name and prints the paper's reference values next to ringsim's
 * measured values, as an aligned text table (default) or CSV (--csv).
 * Common flags:
 *
 *   --refs N    data references per processor (default 120000)
 *   --seed S    master workload seed
 *   --csv       emit CSV instead of the text table
 *   --fast      quarter-length traces (quick shape check)
 *   --jobs N    worker threads for the experiment sweep (default:
 *               $RINGSIM_JOBS, else all hardware threads; 1 = serial)
 *   --service E submit the sweep to a ringsim_serve daemon (or a
 *               ringsim_fleetd coordinator) instead of computing it
 *
 * Results are independent of --jobs: every job is self-contained and
 * result slots are ordered by submission, so parallel and serial runs
 * emit byte-identical tables. They are independent of --service too:
 * the daemon runs the identical registered sweep.
 */

#ifndef RINGSIM_BENCH_COMMON_HPP
#define RINGSIM_BENCH_COMMON_HPP

#include <string>

#include "figures/figures.hpp"

namespace ringsim::bench {

/** Parsed bench flags. */
struct Options
{
    /**
     * --refs/--seed/--fast/--jobs, plus fault injection
     * (--fault-rate R --fault-seed S --fault-stalls R; rate R applies
     * to both corruption and drops). All-zero faults (the default)
     * leave every bench byte-identical to builds without the fault
     * subsystem.
     */
    figures::FigureOptions figure;

    bool csv = false;      //!< --csv
    bool cholesky = false; //!< --cholesky (Figure 6 only)

    /**
     * Experiment-service endpoint (--service tcp:PORT|unix:PATH|PATH).
     * When set, the sweep is submitted to the daemon instead of being
     * computed locally; the printed bytes match a local run (and a
     * warm daemon answers from its cache).
     */
    std::string service;
};

/**
 * Parse the bench flags; fatal()s on unknown arguments. --cholesky is
 * accepted only when @p cholesky_flag.
 */
Options parseOptions(int argc, char **argv, bool cholesky_flag = false);

/**
 * Run artifact @p id under @p opt and print the output — locally, or
 * through the daemon named by --service. Returns the process exit
 * code (a service failure is fatal(); there is no silent fallback,
 * so a benchmark run never mixes the two paths).
 */
int runFigure(figures::FigureId id, const Options &opt);

} // namespace ringsim::bench

#endif // RINGSIM_BENCH_COMMON_HPP
