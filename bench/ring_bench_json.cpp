/**
 * @file
 * Machine-readable perf trajectory for the ring tick path.
 *
 * Runs the ring-tick microbenchmarks (this binary links only
 * ring_ticks.cpp, so no filter is needed) and writes a flat JSON map
 * of benchmark name → items_per_second to BENCH_ring.json (or the
 * path given as the first argument). With --benchmark_repetitions=N
 * each name records the median of its N repetitions, so one noisy
 * sample does not move the trajectory. The CI perf-smoke job
 * regenerates the file that way and runs scripts/perf_smoke.py against
 * the committed copy; the JSON artifact is uploaded either way.
 *
 *   ring_bench_json --benchmark_repetitions=5 BENCH_ring.json
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "util/json.hpp"

namespace {

/**
 * Console output for humans, plus a name → rate capture for JSON. A
 * benchmark's median aggregate is reported after its repetitions and
 * overwrites them under the unsuffixed name.
 */
class RateCapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::map<std::string, double> rates;

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
            if ((run.run_type != Run::RT_Iteration && !median) ||
                run.error_occurred)
                continue;
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                rates[run.run_name.str()] = it->second.value;
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    const char *out_path = argc > 1 ? argv[1] : "BENCH_ring.json";

    RateCapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    std::FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    size_t i = 0;
    for (const auto &[name, rate] : reporter.rates) {
        bool last = ++i == reporter.rates.size();
        std::fprintf(out, "  \"%s\": %.6g%s\n",
                     ringsim::util::jsonEscape(name).c_str(), rate,
                     last ? "" : ",");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::fprintf(stderr, "wrote %zu rates to %s\n", reporter.rates.size(),
                 out_path);
    return 0;
}
