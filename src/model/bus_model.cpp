#include "bus_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace ringsim::model {

ModelResult
solveBus(const BusModelInput &input)
{
    const coherence::Census &census = input.census;
    const bus::BusConfig &bc = input.bus;
    const core::SystemConfig &sys = input.system;
    if (census.procs == 0)
        fatal("bus model needs a census with processors");
    if (bc.nodes != census.procs)
        fatal("bus model: census has %u procs, bus has %u nodes",
              census.procs, bc.nodes);

    const coherence::ProtocolCensus &pc = census.snoop;
    const double procs = census.procs;
    const double cyc = static_cast<double>(bc.clockPeriod);
    const double req = bc.requestCycles * cyc;
    const double resp = bc.responseCycles() * cyc;
    const double arb = bc.arbitrationCycles * cyc;

    const double mem = static_cast<double>(sys.memoryLatency);
    const double supply = static_cast<double>(sys.cacheSupply);
    const double cycle = static_cast<double>(sys.procCycle);

    const double n_local =
        static_cast<double>(pc.localMisses) / procs;
    const double n_clean = static_cast<double>(pc.cleanMiss1) / procs;
    const double n_dirty = static_cast<double>(pc.dirtyMiss1) / procs;

    // Tenure census over the window: every probe becomes a request
    // tenure; every block message becomes a response tenure (misses
    // and write-backs alike).
    const double req_count = static_cast<double>(pc.probes);
    const double resp_count = static_cast<double>(pc.blocks);

    const double cpu_work =
        (static_cast<double>(census.dataRefs()) +
         static_cast<double>(census.instrRefs)) /
        procs * cycle;

    // Closed single-queue network solved with mean-value analysis
    // (MVA): the N processors are the customers, each alternating
    // between "think" time (compute plus memory/cache service, which
    // does not occupy the bus) and bus visits (tenures). MVA is
    // exact in both limits — M/G/1-like at light load and
    // work-conserving saturation at overload — which the open-queue
    // formula is not (the processors' blocking closes the loop).
    const double procs_d = procs;
    const double visits = (req_count + resp_count) / procs_d;
    const double mean_tenure =
        req_count + resp_count > 0.0
            ? (req_count * req + resp_count * resp) /
                  (req_count + resp_count)
            : 0.0;
    // Non-bus time per processor per window.
    const double think = cpu_work + n_local * std::max(mem, arb + req) +
                         n_clean * mem + n_dirty * supply;

    ModelResult out;
    double wait = 0.0;
    double t_exec = cpu_work;
    double rho = 0.0;

    if (visits > 0.0 && mean_tenure > 0.0) {
        // Exact MVA recursion over the processor population: each
        // customer alternates between Z_v of think time (compute +
        // memory service) and one bus visit.
        double z_visit = think / visits;
        double q = 0.0;
        double x = 0.0;
        double r = mean_tenure;
        for (unsigned n = 1; n <= procs; ++n) {
            // Arbitration overlaps with waiting: it only shows when
            // the bus would otherwise be granted immediately.
            r = std::max(arb + mean_tenure,
                         mean_tenure * (1.0 + q));
            x = static_cast<double>(n) / (z_visit + r);
            q = x * r;
            out.iterations = n;
        }
        wait = std::max(0.0, r - arb - mean_tenure);
        rho = x * mean_tenure;
        t_exec = think + visits * r;
    } else {
        t_exec = think;
        out.iterations = 1;
    }
    out.saturated = rho > 0.95;

    double l_clean = (wait + arb + req) + mem + (wait + arb + resp);
    double l_dirty = (wait + arb + req) + supply + (wait + arb + resp);
    double n_remote = n_clean + n_dirty;

    out.execTimeNs = t_exec / tickNs;
    out.procUtilization = cpu_work / t_exec;
    out.networkUtilization = rho;
    out.missLatencyNs =
        n_remote > 0.0
            ? (n_clean * l_clean + n_dirty * l_dirty) / n_remote /
                  tickNs
            : 0.0;
    out.upgradeLatencyNs = (wait + arb + req) / tickNs;
    return out;
}

} // namespace ringsim::model
