/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrates:
 * event-kernel throughput, synthetic trace generation rate, functional
 * coherence-engine rate, plus the ring-tick benchmarks linked in from
 * ring_ticks.cpp. These are performance regression guards, not paper
 * artifacts.
 *
 * Every kernel benchmark warms up explicitly before the timed loop
 * (pre-faulting the wheel buckets and one-shot pool so the steady
 * state is measured, not first-touch costs), reports throughput as
 * items_per_second (events/sec), and attaches queue-depth counters
 * (pending events and the kernel's high-water mark) so regressions in
 * either tier of the event queue are visible.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "coherence/engine.hpp"
#include "sim/kernel.hpp"
#include "trace/generator.hpp"

using namespace ringsim;

namespace {

/** Events fired outside the timed loop to reach steady state. */
constexpr int kWarmupEvents = 10'000;

void
warmup(sim::Kernel &kernel)
{
    for (int i = 0; i < kWarmupEvents; ++i)
        kernel.runOne();
}

void
attachQueueStats(benchmark::State &state, const sim::Kernel &kernel)
{
    const sim::KernelStats &s = kernel.stats();
    state.counters["pending"] =
        static_cast<double>(kernel.pending());
    state.counters["max_pending"] =
        static_cast<double>(s.maxPending);
    state.counters["near_frac"] =
        s.nearScheduled + s.farScheduled
            ? static_cast<double>(s.nearScheduled) /
                  static_cast<double>(s.nearScheduled + s.farScheduled)
            : 0.0;
}

void
BM_KernelPostOneShot(benchmark::State &state)
{
    sim::Kernel kernel;
    Count fired = 0;
    for (int i = 0; i < kWarmupEvents; ++i) {
        kernel.post(kernel.now() + 1, [&fired]() { ++fired; });
        kernel.runOne();
    }
    for (auto _ : state) {
        kernel.post(kernel.now() + 1, [&fired]() { ++fired; });
        kernel.runOne();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    attachQueueStats(state, kernel);
}
BENCHMARK(BM_KernelPostOneShot);

void
BM_KernelTicker(benchmark::State &state)
{
    sim::Kernel kernel;
    Count ticks = 0;
    sim::Ticker ticker(kernel, 1000, [&ticks](Count) { ++ticks; });
    ticker.start(0);
    warmup(kernel);
    for (auto _ : state)
        kernel.runOne();
    ticker.stop();
    benchmark::DoNotOptimize(ticks);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    attachQueueStats(state, kernel);
}
BENCHMARK(BM_KernelTicker);

/**
 * A timed system's steady-state event population: N periodic events
 * with slightly detuned periods (so they do not fire in lockstep),
 * the pattern the near-horizon wheel is built for.
 */
void
BM_KernelChurn(benchmark::State &state)
{
    sim::Kernel kernel;
    const unsigned depth = static_cast<unsigned>(state.range(0));
    Count fired = 0;
    std::vector<std::unique_ptr<sim::Ticker>> tickers;
    for (unsigned i = 0; i < depth; ++i) {
        tickers.push_back(std::make_unique<sim::Ticker>(
            kernel, 2000 + 37 * i, [&fired](Count) { ++fired; }));
        tickers.back()->start(i);
    }
    warmup(kernel);
    for (auto _ : state)
        kernel.runOne();
    for (auto &t : tickers)
        t->stop();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    attachQueueStats(state, kernel);
}
BENCHMARK(BM_KernelChurn)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/** Self-reposting one-shot chain (protocol-leg callback pattern). */
struct Chain
{
    sim::Kernel &kernel;
    Tick period;
    Count &fired;

    void arm(Tick at) {
        kernel.post(at, [this]() {
            ++fired;
            arm(kernel.now() + period);
        });
    }
};

void
BM_KernelOneShotChurn(benchmark::State &state)
{
    sim::Kernel kernel;
    const unsigned depth = static_cast<unsigned>(state.range(0));
    Count fired = 0;
    std::vector<std::unique_ptr<Chain>> chains;
    for (unsigned i = 0; i < depth; ++i) {
        chains.push_back(std::make_unique<Chain>(
            Chain{kernel, 2000 + 37 * i, fired}));
        chains.back()->arm(i);
    }
    warmup(kernel);
    for (auto _ : state)
        kernel.runOne();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    attachQueueStats(state, kernel);
}
BENCHMARK(BM_KernelOneShotChurn)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/**
 * Far-future scheduling: every post lands beyond the near horizon and
 * takes the heap fallback, the worst case for the two-tier queue.
 */
void
BM_KernelFarFuture(benchmark::State &state)
{
    sim::Kernel kernel;
    const Tick far_delta = 8 * tickUs; // past the ~1 µs wheel horizon
    Count fired = 0;
    std::vector<std::unique_ptr<Chain>> chains;
    for (unsigned i = 0; i < 16; ++i) {
        chains.push_back(std::make_unique<Chain>(
            Chain{kernel, far_delta + 37 * i, fired}));
        chains.back()->arm(far_delta + i);
    }
    warmup(kernel);
    for (auto _ : state)
        kernel.runOne();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    attachQueueStats(state, kernel);
}
BENCHMARK(BM_KernelFarFuture);

void
BM_TraceGeneration(benchmark::State &state)
{
    trace::WorkloadConfig cfg =
        trace::workloadPreset(trace::Benchmark::MP3D, 8);
    cfg.dataRefsPerProc = ~Count(0) / 2; // never exhausts
    trace::AddressMap map = trace::makeAddressMap(cfg);
    trace::SyntheticStream stream(cfg, map, 0);
    trace::TraceRecord rec;
    for (auto _ : state) {
        stream.next(rec);
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceGeneration);

void
BM_FunctionalEngine(benchmark::State &state)
{
    trace::WorkloadConfig cfg =
        trace::workloadPreset(trace::Benchmark::MP3D, 16);
    cfg.dataRefsPerProc = ~Count(0) / 2;
    trace::AddressMap map = trace::makeAddressMap(cfg);
    coherence::EngineOptions options;
    coherence::FunctionalEngine engine(map, options);
    std::vector<std::unique_ptr<trace::SyntheticStream>> streams;
    for (NodeId p = 0; p < cfg.procs; ++p)
        streams.push_back(
            std::make_unique<trace::SyntheticStream>(cfg, map, p));
    trace::TraceRecord rec;
    NodeId p = 0;
    for (auto _ : state) {
        streams[p]->next(rec);
        engine.access(p, rec);
        p = (p + 1) % cfg.procs;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FunctionalEngine);

} // namespace

BENCHMARK_MAIN();
