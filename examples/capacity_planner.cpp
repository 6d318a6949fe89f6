/**
 * @file
 * Capacity planner: use the analytic models the way an architect
 * would — pick a workload and a processor speed, then compare
 * interconnect options (ring clocks, bus clocks) on processor
 * utilization, and report the bus clock that would be needed to match
 * each ring (the Table 4 question for arbitrary operating points).
 *
 *   $ ./build/examples/capacity_planner [benchmark] [procs] [mips]
 *   $ ./build/examples/capacity_planner mp3d 32 200
 */

#include <cstdlib>
#include <iostream>

#include "coherence/driver.hpp"
#include "model/matcher.hpp"
#include "util/table.hpp"

using namespace ringsim;

int
main(int argc, char **argv)
{
    trace::Benchmark bench = trace::Benchmark::MP3D;
    unsigned procs = 16;
    double mips = 200;
    if (argc > 1)
        bench = trace::benchmarkFromName(argv[1]);
    if (argc > 2)
        procs = static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
    if (argc > 3)
        mips = std::strtod(argv[3], nullptr);

    trace::WorkloadConfig workload =
        trace::workloadPreset(bench, procs);
    workload.dataRefsPerProc = 60'000;
    coherence::Census census = coherence::runFunctional(workload);
    Tick cycle = nsToTicks(1e3 / mips);

    std::cout << "Workload " << workload.displayName() << " at " << mips
              << " MIPS per processor\n\n";

    TextTable table({"interconnect", "proc util %", "net util %",
                     "miss latency (ns)", "matching bus clock (ns)"});

    for (auto [label, period] :
         {std::pair<const char *, Tick>{"ring 500 MHz", 2000},
          {"ring 250 MHz", 4000}}) {
        model::RingModelInput in;
        in.census = census;
        in.ring = core::RingSystemConfig::forProcs(procs, period).ring;
        in.system.procCycle = cycle;
        in.protocol = model::RingProtocol::Snoop;
        model::ModelResult r = model::solveRing(in);

        model::BusModelInput bin;
        bin.census = census;
        bin.bus = core::BusSystemConfig::forProcs(procs).bus;
        bin.system.procCycle = cycle;
        double match_ns =
            model::matchBusClock(bin, r.procUtilization);

        table.addRow({label, fmtPercent(r.procUtilization, 1),
                      fmtPercent(r.networkUtilization, 1),
                      fmtDouble(r.missLatencyNs, 0),
                      fmtDouble(match_ns, 1)});
    }

    for (auto [label, period] :
         {std::pair<const char *, Tick>{"bus 100 MHz", 10000},
          {"bus 50 MHz", 20000}}) {
        model::BusModelInput in;
        in.census = census;
        in.bus = core::BusSystemConfig::forProcs(procs, period).bus;
        in.system.procCycle = cycle;
        model::ModelResult r = model::solveBus(in);
        table.addRow({label, fmtPercent(r.procUtilization, 1),
                      fmtPercent(r.networkUtilization, 1),
                      fmtDouble(r.missLatencyNs, 0), "-"});
    }

    table.print(std::cout);
    std::cout << "\n'matching bus clock' = bus cycle time at which a "
                 "64-bit split-transaction bus\nreaches the same "
                 "processor utilization (Table 4 methodology).\n";
    return 0;
}
