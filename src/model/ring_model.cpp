#include "ring_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace ringsim::model {

namespace {

/** Clamp an occupancy so the wait formula stays finite. */
double
clampRho(double rho, bool &saturated)
{
    if (rho > 0.98) {
        saturated = true;
        return 0.98;
    }
    return std::max(rho, 0.0);
}

/**
 * Expected wait for an empty slot of one type: residual time until
 * the next same-type header (frame/2) plus geometric retries over
 * occupied slots.
 */
double
slotWait(double frame, double rho)
{
    return frame / 2.0 + frame * rho / (1.0 - rho);
}

/**
 * One value per transaction class: a per-processor event count, or a
 * latency in ticks. inv0, inv1 and inv2 are invalidations needing 0,
 * 1 and 2-or-more traversals.
 */
struct Classes
{
    double local, clean1, dirty1, two;
    double inv0, inv1, inv2;
};

/** Per-processor event counts of one protocol's census window. */
Classes
perProcRates(const coherence::Census &census,
             const coherence::ProtocolCensus &pc)
{
    const double procs = census.procs;
    Classes n;
    n.local = static_cast<double>(pc.localMisses) / procs;
    n.clean1 = static_cast<double>(pc.cleanMiss1) / procs;
    n.dirty1 = static_cast<double>(pc.dirtyMiss1) / procs;
    n.two = static_cast<double>(pc.miss2) / procs;
    n.inv0 = static_cast<double>(pc.invTraversals[0]) / procs;
    n.inv1 = static_cast<double>(pc.invTraversals[1]) / procs;
    n.inv2 = static_cast<double>(pc.invTraversals[2] +
                                 pc.invTraversals[3]) / procs;
    return n;
}

/** Processor busy time over the census window, ticks. */
double
cpuWork(const coherence::Census &census, Tick proc_cycle)
{
    return (static_cast<double>(census.dataRefs()) +
            static_cast<double>(census.instrRefs)) /
           census.procs * static_cast<double>(proc_cycle);
}

/** The fixed times a latency script adds to its waits, ticks. */
struct PathTimes
{
    double rtt;    //!< one full ring traversal
    double tailP;  //!< a probe's stages behind its header
    double tailB;  //!< a block message's stages behind its header
    double mem, lookup, supply;
};

PathTimes
pathTimes(const ring::RingConfig &rc, const core::SystemConfig &sys)
{
    const double t_ring = static_cast<double>(rc.clockPeriod);
    PathTimes p;
    p.rtt = rc.totalStages() * t_ring;
    p.tailP = static_cast<double>(rc.frame.probeStages() - 1) * t_ring;
    p.tailB = static_cast<double>(rc.frame.blockSlotStages() - 1) * t_ring;
    p.mem = static_cast<double>(sys.memoryLatency);
    p.lookup = static_cast<double>(sys.dirLookup);
    p.supply = static_cast<double>(sys.cacheSupply);
    return p;
}

/**
 * Snoop script: every transaction takes exactly one traversal; @p w_p
 * and @p w_b are the probe and block access waits.
 */
Classes
snoopLatencies(const PathTimes &p, double w_p, double w_b)
{
    Classes l;
    l.local = std::max(w_p + p.rtt, p.mem);
    l.clean1 = w_p + p.rtt + p.mem + w_b + p.tailB;
    l.dirty1 = w_p + p.rtt + p.supply + w_b + p.tailB;
    l.two = 0.0;
    l.inv0 = l.inv1 = l.inv2 = w_p + p.rtt;
    return l;
}

/** Full-map directory script, at access waits @p w_p and @p w_b. */
Classes
directoryLatencies(const PathTimes &p, double w_p, double w_b)
{
    Classes l;
    l.local = p.lookup + p.mem;
    l.clean1 = w_p + p.rtt + p.tailP + p.lookup + p.mem + w_b + p.tailB;
    l.dirty1 = 2.0 * w_p + p.rtt + 2.0 * p.tailP + p.lookup + p.supply +
               w_b + p.tailB;
    l.two = 2.0 * w_p + 2.0 * p.rtt + 2.0 * p.tailP + p.lookup +
            0.5 * (p.mem + p.supply) + w_b + p.tailB;
    l.inv0 = p.lookup;
    l.inv1 = 2.0 * w_p + p.rtt + p.tailP + p.lookup;
    l.inv2 = 3.0 * w_p + 2.0 * p.rtt + 2.0 * p.tailP + p.lookup;
    return l;
}

/** Processor stall time over the window, ticks. */
double
stallTime(const Classes &n, const Classes &l)
{
    return n.local * l.local + n.clean1 * l.clean1 +
           n.dirty1 * l.dirty1 + n.two * l.two + n.inv0 * l.inv0 +
           n.inv1 * l.inv1 + n.inv2 * l.inv2;
}

/** Mean remote-miss latency, ticks (0 with no remote misses). */
double
meanMiss(const Classes &n, const Classes &l)
{
    double remote = n.clean1 + n.dirty1 + n.two;
    return remote > 0.0 ? (n.clean1 * l.clean1 + n.dirty1 * l.dirty1 +
                           n.two * l.two) / remote
                        : 0.0;
}

/** Mean invalidation latency over the traversal buckets, ticks (0
 *  with no invalidations). */
double
meanInvalidation(const Classes &n, const Classes &l)
{
    double all = n.inv0 + n.inv1 + n.inv2;
    return all > 0.0 ? (n.inv0 * l.inv0 + n.inv1 * l.inv1 +
                        n.inv2 * l.inv2) / all
                     : 0.0;
}

/**
 * Iterate to the fixed point of the execution window: @p step maps
 * the current waits to a new window (cpu work plus stalls) and updates
 * the waits from it. Returns the converged window.
 */
template <typename Step>
double
fixedPoint(double cpu_work, ModelResult &out, Step step)
{
    double t_exec = cpu_work;
    for (unsigned iter = 0; iter < 2000; ++iter) {
        double t_new = step();
        out.iterations = iter + 1;
        bool converged = std::abs(t_new - t_exec) <= 1e-9 * t_new;
        t_exec = t_new;
        if (converged)
            break;
    }
    return t_exec;
}

/** The census and geometry checks both ring solvers make. */
void
checkSizes(const char *model, const RingModelInput &input)
{
    if (input.census.procs == 0)
        fatal("%s model needs a census with processors", model);
    if (input.ring.nodes != input.census.procs)
        fatal("%s model: census has %u procs, ring has %u nodes", model,
              input.census.procs, input.ring.nodes);
}

/** Fill the latency and time fields of @p out at the fixed point. */
void
report(ModelResult &out, const Classes &n, const Classes &l,
       double cpu_work, double t_exec, double upgrade)
{
    out.execTimeNs = t_exec / tickNs;
    out.procUtilization = cpu_work / t_exec;
    out.missLatencyNs = meanMiss(n, l) / tickNs;
    out.upgradeLatencyNs = upgrade / tickNs;
}

} // namespace

ModelResult
solveRing(const RingModelInput &input)
{
    checkSizes("ring", input);
    const coherence::Census &census = input.census;
    const ring::RingConfig &rc = input.ring;
    const bool snoop = input.protocol == RingProtocol::Snoop;
    const coherence::ProtocolCensus &pc =
        snoop ? census.snoop : census.fullMap;
    auto script = snoop ? snoopLatencies : directoryLatencies;

    const double procs = census.procs;
    const double stages = rc.totalStages();
    const double t_ring = static_cast<double>(rc.clockPeriod);
    const double frame =
        static_cast<double>(rc.frame.frameStages()) * t_ring;
    const double frames = rc.framesOnRing();
    const PathTimes path = pathTimes(rc, input.system);
    const Classes n = perProcRates(census, pc);
    const double cpu_work = cpuWork(census, input.system.procCycle);

    // Message-slot occupancy time: a message holds its slot for the
    // stage-distance it travels.
    const double probe_occ =
        pc.probes ? (pc.probeHops / static_cast<double>(pc.probes)) *
                        (stages / procs) * t_ring
                  : 0.0;
    const double block_occ =
        pc.blocks ? (pc.blockHops / static_cast<double>(pc.blocks)) *
                        (stages / procs) * t_ring
                  : 0.0;
    // Closed-system bound per slot class: the window cannot be shorter
    // than the slot-time demand divided by the number of slots serving
    // it.
    const double probe_demand =
        static_cast<double>(pc.probes) * probe_occ / (2.0 * frames);
    const double block_demand =
        static_cast<double>(pc.blocks) * block_occ / frames;

    ModelResult out;
    double w_p = frame / 2.0;
    double w_b = frame / 2.0;
    double rho_p = 0.0;
    double rho_b = 0.0;
    double t_exec = fixedPoint(cpu_work, out, [&] {
        double t_new = std::max({cpu_work +
                                     stallTime(n, script(path, w_p, w_b)),
                                 probe_demand, block_demand});

        // Message rates over the window -> occupancy per slot type.
        double lam_p = static_cast<double>(pc.probes) / t_new;
        double lam_b = static_cast<double>(pc.blocks) / t_new;
        bool clamped = false;
        rho_p = clampRho(lam_p * probe_occ / (2.0 * frames), clamped);
        rho_b = clampRho(lam_b * block_occ / frames, clamped);
        out.saturated = out.saturated || clamped;

        // Damped update for stable convergence near saturation.
        w_p = 0.5 * w_p + 0.5 * slotWait(frame, rho_p);
        w_b = 0.5 * w_b + 0.5 * slotWait(frame, rho_b);
        return t_new;
    });

    Classes l = script(path, w_p, w_b);
    // Every snoop invalidation is one traversal: its path is the mean.
    report(out, n, l, cpu_work, t_exec,
           snoop ? l.inv1 : meanInvalidation(n, l));
    // Slot-count-weighted average occupancy (2 probe slots + 1 block
    // slot per frame).
    out.networkUtilization = (2.0 * rho_p + rho_b) / 3.0;
    return out;
}

ModelResult
solveInsertionRing(const RingModelInput &input)
{
    if (input.protocol != RingProtocol::Directory) {
        fatal("register insertion cannot support snooping (paper "
              "Section 3.3); model only the directory protocol");
    }
    checkSizes("insertion-ring", input);
    const coherence::Census &census = input.census;
    const ring::RingConfig &rc = input.ring;
    const coherence::ProtocolCensus &pc = census.fullMap;
    const PathTimes path = pathTimes(rc, input.system);
    const Classes n = perProcRates(census, pc);
    const double cpu_work = cpuWork(census, input.system.procCycle);

    // Message transmission times (no slot framing: a message is just
    // its own length on the wire).
    const double t_ring = static_cast<double>(rc.clockPeriod);
    const double probe_len = rc.frame.probeStages() * t_ring;
    const double block_len = rc.frame.blockSlotStages() * t_ring;

    // Per-link load: a message of length L crossing k node-to-node
    // links occupies each of them for L; there are `procs` links. The
    // service-time moments follow from the same mileage.
    const double probe_cross = pc.probeHops;
    const double block_cross = pc.blockHops;
    const double total_cross = probe_cross + block_cross;
    const double es = total_cross > 0.0
        ? (probe_cross * probe_len + block_cross * block_len) /
              total_cross
        : 0.0;
    const double es2 = total_cross > 0.0
        ? (probe_cross * probe_len * probe_len +
           block_cross * block_len * block_len) / total_cross
        : 0.0;

    ModelResult out;
    double wait = 0.0; // bypass-FIFO insertion wait
    double rho = 0.0;
    double t_exec = fixedPoint(cpu_work, out, [&] {
        // The directory script, with both slot waits replaced by the
        // insertion wait.
        double t_new =
            cpu_work + stallTime(n, directoryLatencies(path, wait, wait));

        // M/G/1 per output link.
        double lam_link = total_cross / (census.procs * t_new);
        rho = lam_link * es;
        bool clamped = rho > 0.98;
        if (clamped)
            rho = 0.98;
        out.saturated = out.saturated || clamped;
        double wait_new =
            es > 0.0 ? rho * es2 / (2.0 * es * (1.0 - rho)) : 0.0;
        wait = 0.5 * wait + 0.5 * wait_new;
        return t_new;
    });

    Classes l = directoryLatencies(path, wait, wait);
    report(out, n, l, cpu_work, t_exec, meanInvalidation(n, l));
    out.networkUtilization = rho;
    return out;
}

} // namespace ringsim::model
