/**
 * @file
 * Fault-tolerance ablation: graceful degradation of the slotted ring
 * under injected faults.
 *
 * The paper's ring is ideal — no slot is ever lost. This sweep
 * measures how much headroom the protocols have when that assumption
 * is relaxed: corruption/drop rates from 0 (the paper's baseline)
 * through 1e-4 per occupied slot per ring cycle, on the busiest SPLASH
 * configuration (MP3D). Reported per point: the usual utilization and
 * latency columns plus the recovery counters (retries, recovered
 * transactions, fatal transactions, NACKs, watchdog timeouts).
 *
 * The rate-0 row is byte-identical to the same run without the fault
 * subsystem; the fault schedule is a pure function of --fault-seed, so
 * the whole table is independent of --jobs.
 *
 * Uses the hardened runner: a sweep point that fails or hangs marks
 * its own row instead of killing the sweep, the failures are
 * summarized on stderr and the exit code is 1. That is why this is the
 * one bench that is not a registered sweep of src/figures: a
 * registered sweep's result is its rendered text, which carries no
 * per-row job status or exit code through the service, its cache or
 * the fleet's block split. --service is therefore rejected here.
 */

#include <functional>
#include <iostream>

#include "bench/common.hpp"
#include "core/system.hpp"
#include "runner/experiment_runner.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

struct Variant
{
    trace::WorkloadConfig wl;
    std::string label;
    double faultRate;
    double stallRate;
    core::ProtocolKind kind;
};

core::RunResult
runRing(const Variant &v, const fault::FaultConfig &faults)
{
    core::RingSystemConfig cfg =
        core::RingSystemConfig::forProcs(v.wl.procs, 2000);
    cfg.common.faults = faults;
    cfg.common.faults.corruptRate = v.faultRate;
    cfg.common.faults.dropRate = v.faultRate;
    cfg.common.faults.stallRate = v.stallRate;
    return core::runRingSystem(cfg, v.wl, v.kind);
}

void
addRow(TextTable &table, const Variant &v, const core::RunResult &r,
       const runner::JobReport &rep)
{
    if (rep.status != runner::JobReport::Status::Ok) {
        table.addRow({v.wl.displayName(), v.label,
                      runner::jobStatusName(rep.status), "-", "-", "-",
                      "-", "-", "-", "-"});
        return;
    }
    table.addRow({v.wl.displayName(), v.label,
                  fmtPercent(r.procUtilization, 1),
                  fmtPercent(r.networkUtilization, 1),
                  fmtDouble(r.missLatencyNs, 0),
                  std::to_string(r.faultsInjected),
                  std::to_string(r.retries),
                  std::to_string(r.recovered),
                  std::to_string(r.fatalTxns),
                  std::to_string(r.timeouts)});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);
    if (!opt.service.empty())
        fatal("--service: ablation_fault_tolerance is not a registered "
              "sweep; run it locally");
    const figures::FigureOptions &fo = opt.figure;

    TextTable table({"workload", "variant", "proc util %", "net util %",
                     "miss lat (ns)", "faults", "retries", "recovered",
                     "fatal", "timeouts"});

    std::vector<Variant> variants;
    for (core::ProtocolKind kind : {core::ProtocolKind::RingSnoop,
                                    core::ProtocolKind::RingDirectory}) {
        trace::WorkloadConfig wl =
            trace::workloadPreset(trace::Benchmark::MP3D, 16);
        fo.apply(wl);
        const char *proto =
            kind == core::ProtocolKind::RingSnoop ? "snoop" : "directory";
        variants.push_back(
            {wl, std::string(proto) + ", fault rate 0", 0.0, 0.0, kind});
        for (double rate : {1e-6, 1e-5, 1e-4}) {
            variants.push_back({wl,
                                strprintf("%s, fault rate %.0e", proto,
                                          rate),
                                rate, 0.0, kind});
        }
        variants.push_back({wl, std::string(proto) + ", stalls 1e-4",
                            0.0, 1e-4, kind});
    }

    std::vector<std::function<core::RunResult()>> tasks;
    for (const Variant &v : variants)
        tasks.push_back([&v, &fo]() { return runRing(v, fo.faults); });

    runner::RunPolicy policy;
    policy.jobTimeout =
        runner::watchdogBudget(std::chrono::minutes(10));
    policy.maxAttempts = 2;
    runner::SweepResult<core::RunResult> sweep =
        runner::runSweep(std::move(tasks), fo.jobs, policy);

    for (std::size_t i = 0; i < variants.size(); ++i)
        addRow(table, variants[i], sweep.results[i], sweep.reports[i]);

    std::cout << figures::renderTable("Fault-tolerance ablation (injected "
                                      "corruption, drops, stalls)",
                                      table, opt.csv);
    if (!sweep.allOk())
        std::cerr << sweep.failureSummaryJson() << "\n";
    return sweep.allOk() ? 0 : 1;
}
