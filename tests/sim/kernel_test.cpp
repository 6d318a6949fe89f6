/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/kernel.hpp"

namespace ringsim::sim {
namespace {

class RecordingEvent : public Event
{
  public:
    explicit RecordingEvent(std::vector<int> &log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

TEST(Kernel, StartsAtTimeZero)
{
    Kernel k;
    EXPECT_EQ(k.now(), 0u);
    EXPECT_TRUE(k.empty());
}

TEST(Kernel, PostsRunInTimeOrder)
{
    Kernel k;
    std::vector<int> log;
    k.post(30, [&]() { log.push_back(3); });
    k.post(10, [&]() { log.push_back(1); });
    k.post(20, [&]() { log.push_back(2); });
    k.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(k.now(), 30u);
}

TEST(Kernel, SameTickFifoOrder)
{
    Kernel k;
    std::vector<int> log;
    for (int i = 0; i < 5; ++i)
        k.post(100, [&, i]() { log.push_back(i); });
    k.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, RunUntilStopsEarly)
{
    Kernel k;
    int fired = 0;
    k.post(10, [&]() { ++fired; });
    k.post(20, [&]() { ++fired; });
    k.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.pending(), 1u);
    k.run();
    EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunUntilInclusive)
{
    Kernel k;
    int fired = 0;
    k.post(10, [&]() { ++fired; });
    k.run(10);
    EXPECT_EQ(fired, 1);
}

TEST(Kernel, StopFromInsideEvent)
{
    Kernel k;
    int fired = 0;
    k.post(1, [&]() {
        ++fired;
        k.stop();
    });
    k.post(2, [&]() { ++fired; });
    k.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.pending(), 1u);
}

TEST(Kernel, ScheduleEventObject)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 7);
    k.schedule(e, 5);
    EXPECT_TRUE(e.scheduled());
    EXPECT_EQ(e.when(), 5u);
    k.run();
    EXPECT_FALSE(e.scheduled());
    EXPECT_EQ(log, std::vector<int>{7});
}

TEST(Kernel, RescheduleAfterFiring)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 1);
    k.schedule(e, 1);
    k.run();
    k.schedule(e, 2);
    k.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST(Kernel, DescheduleCancels)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 1);
    k.schedule(e, 5);
    k.deschedule(e);
    EXPECT_FALSE(e.scheduled());
    k.post(6, []() {});
    k.run();
    EXPECT_TRUE(log.empty());
}

TEST(Kernel, DescheduleThenRescheduleFiresOnce)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 1);
    k.schedule(e, 5);
    k.deschedule(e);
    k.schedule(e, 9);
    k.run();
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(k.now(), 9u);
}

TEST(Kernel, ProcessedCounter)
{
    Kernel k;
    for (int i = 0; i < 10; ++i)
        k.post(i, []() {});
    k.run();
    EXPECT_EQ(k.processed(), 10u);
}

TEST(Kernel, RunOneSteps)
{
    Kernel k;
    int fired = 0;
    k.post(1, [&]() { ++fired; });
    k.post(2, [&]() { ++fired; });
    EXPECT_TRUE(k.runOne());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(k.runOne());
    EXPECT_FALSE(k.runOne());
}

TEST(KernelDeathTest, PastSchedulingPanics)
{
    Kernel k;
    k.post(100, []() {});
    k.run();
    EXPECT_DEATH(k.post(50, []() {}), "past");
}

TEST(KernelDeathTest, DoubleSchedulePanics)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 1);
    k.schedule(e, 5);
    EXPECT_DEATH(k.schedule(e, 6), "twice");
    k.deschedule(e);
}

// The wheel covers roughly 1 µs of near-future time; anything past it
// lands in the far-future heap. Distances chosen comfortably past it.
constexpr Tick kPastHorizon = 8u * 1024u * 1024u;

TEST(TwoTierQueue, FarFutureEventsFire)
{
    Kernel k;
    std::vector<int> log;
    k.post(kPastHorizon + 30, [&]() { log.push_back(3); });
    k.post(kPastHorizon + 10, [&]() { log.push_back(1); });
    k.post(5, [&]() { log.push_back(0); });
    k.post(kPastHorizon + 20, [&]() { log.push_back(2); });
    k.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(k.now(), kPastHorizon + 30);
}

TEST(TwoTierQueue, SameTickFifoAcrossTiers)
{
    // An event posted far in advance must still fire before a
    // same-tick event posted later from close range: FIFO order is
    // defined by posting order, not by which tier held the event.
    Kernel k;
    const Tick target = kPastHorizon + 100;
    std::vector<int> log;
    k.post(target, [&]() { log.push_back(1); }); // far tier
    k.post(target - 50, [&, target]() {
        k.post(target, [&]() { log.push_back(2); }); // near tier
    });
    k.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(TwoTierQueue, CancelFarTierEvent)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent cancelled(log, 1);
    RecordingEvent kept(log, 2);
    k.schedule(cancelled, kPastHorizon + 10);
    k.schedule(kept, kPastHorizon + 20);
    k.deschedule(cancelled);
    EXPECT_FALSE(cancelled.scheduled());
    k.run();
    EXPECT_EQ(log, std::vector<int>{2});
    EXPECT_TRUE(k.empty());
}

TEST(TwoTierQueue, RescheduleFarToNear)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 9);
    k.schedule(e, kPastHorizon + 10);
    k.deschedule(e);
    k.schedule(e, 40); // near tier this time
    k.run();
    EXPECT_EQ(log, std::vector<int>{9});
    EXPECT_EQ(k.now(), 40u);
    EXPECT_TRUE(k.empty());
}

TEST(TwoTierQueue, RandomizedMixMatchesReferenceOrder)
{
    // Fire 500 one-shots at random offsets straddling the wheel
    // horizon and check the observed order against a stable sort by
    // (when, posting order) — the kernel's documented total order.
    std::mt19937_64 rng(12345);
    std::uniform_int_distribution<Tick> dist(0, 4 * kPastHorizon);

    Kernel k;
    std::vector<std::pair<Tick, int>> expected;
    std::vector<int> fired;
    for (int i = 0; i < 500; ++i) {
        Tick when = dist(rng);
        expected.emplace_back(when, i);
        k.post(when, [&fired, i]() { fired.push_back(i); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    k.run();
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "position " << i;
}

TEST(TwoTierQueue, WheelWrapsAcrossRevolutions)
{
    // A self-rearming chain whose period forces many full wheel
    // revolutions; ordering must survive bucket-slot reuse.
    Kernel k;
    const Tick step = kPastHorizon / 3 + 17;
    Count fired = 0;
    std::function<void()> rearm = [&]() {
        if (++fired < 50)
            k.post(k.now() + step, rearm);
    };
    k.post(step, rearm);
    k.run();
    EXPECT_EQ(fired, 50u);
    EXPECT_EQ(k.now(), 50 * step);
}

TEST(KernelStatsTest, CountersTrackActivity)
{
    Kernel k;
    for (int i = 0; i < 10; ++i)
        k.post(10 + i, []() {});
    k.post(kPastHorizon + 5, []() {});
    EXPECT_EQ(k.stats().maxPending, 11u);
    EXPECT_EQ(k.stats().nearScheduled, 10u);
    EXPECT_EQ(k.stats().farScheduled, 1u);
    k.run();
    EXPECT_EQ(k.stats().processed, 11u);
    EXPECT_EQ(k.stats().oneShots, 11u);
    EXPECT_GE(k.stats().runSeconds, 0.0);
}

TEST(KernelStatsTest, EventObjectsAreNotOneShots)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent e(log, 1);
    k.schedule(e, 5);
    k.run();
    EXPECT_EQ(k.stats().processed, 1u);
    EXPECT_EQ(k.stats().oneShots, 0u);
}

TEST(OneShotStorage, OversizedCaptureFallsBackToHeap)
{
    // Payload larger than the inline small-buffer: must still fire
    // and destroy correctly through the heap path.
    Kernel k;
    std::array<std::uint64_t, 16> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    k.post(10, [big, &sum]() {
        for (std::uint64_t v : big)
            sum += v;
    });
    k.run();
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < big.size(); ++i)
        want += i * 3 + 1;
    EXPECT_EQ(sum, want);
}

TEST(OneShotStorage, PendingPayloadsDestroyedWithKernel)
{
    // A shared_ptr captured by never-fired one-shots (near and far)
    // must be released when the kernel is destroyed.
    auto token = std::make_shared<int>(42);
    {
        Kernel k;
        k.post(100, [token]() {});
        k.post(kPastHorizon + 100, [token]() {});
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Ticker, FiresPeriodically)
{
    Kernel k;
    std::vector<Count> cycles;
    Ticker t(k, 10, [&](Count c) { cycles.push_back(c); });
    t.start(0);
    k.run(35);
    t.stop();
    EXPECT_EQ(cycles, (std::vector<Count>{0, 1, 2, 3}));
    EXPECT_EQ(k.now(), 30u);
}

TEST(Ticker, StopInsideHandler)
{
    Kernel k;
    Count fired = 0;
    Ticker t(k, 5, [&](Count) {
        if (++fired == 3)
            k.stop();
    });
    t.start(0);
    k.run();
    t.stop();
    EXPECT_EQ(fired, 3u);
}

TEST(Ticker, StartOffset)
{
    Kernel k;
    Tick first = 0;
    Ticker t(k, 10, [&](Count) {
        if (first == 0)
            first = k.now();
        k.stop();
    });
    t.start(42);
    k.run();
    t.stop();
    EXPECT_EQ(first, 42u);
}

TEST(Ticker, FastForwardSkipsCyclesInOneJump)
{
    Kernel k;
    std::vector<std::pair<Count, Tick>> fired;
    Ticker t(k, 10, [&](Count cycle) {
        fired.emplace_back(cycle, k.now());
        if (cycle == 0)
            t.fastForward(3); // skip cycles 1, 2, 3
    });
    t.start(0);
    k.run(60);
    t.stop();
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired[0], (std::pair<Count, Tick>{0, 0}));
    EXPECT_EQ(fired[1], (std::pair<Count, Tick>{4, 40}));
    EXPECT_EQ(fired[2], (std::pair<Count, Tick>{5, 50}));
    EXPECT_EQ(fired[3], (std::pair<Count, Tick>{6, 60}));
}

TEST(Ticker, FastForwardZeroIsANoop)
{
    Kernel k;
    Count fires = 0;
    Ticker t(k, 10, [&](Count) {
        ++fires;
        t.fastForward(0);
    });
    t.start(0);
    k.run(30);
    t.stop();
    EXPECT_EQ(fires, 4u);
}

TEST(Ticker, NextFiringIsSequencedBeforeItsHandlerRuns)
{
    // The ticker reschedules itself before calling the handler, so its
    // next firing takes its tie-break sequence number first: whatever
    // the handler schedules for that tick fires after it, whatever was
    // scheduled there earlier fires before it. The idle-ring
    // fast-forward (DESIGN.md section 11.5) rests on this order.
    Kernel k;
    std::vector<std::pair<std::string, Tick>> log;
    auto note = [&](std::string what) { log.emplace_back(what, k.now()); };
    k.post(10, [&]() { note("early"); });
    k.post(40, [&]() { note("early"); });
    Ticker t(k, 10, [&](Count cycle) {
        note("tick" + std::to_string(cycle));
        if (cycle == 0)
            k.post(k.now() + t.period(), [&]() { note("late"); });
        if (cycle == 1)
            t.fastForward(2); // next firing: cycle 4 at tick 40
    });
    t.start(0);
    k.run(50);
    t.stop();
    using Fired = std::vector<std::pair<std::string, Tick>>;
    EXPECT_EQ(log, (Fired{{"tick0", 0},
                          {"early", 10},
                          {"tick1", 10},
                          {"late", 10},
                          {"early", 40},
                          {"tick4", 40},
                          {"tick5", 50}}));
    // Every firing counted exactly once: four ticker firings and three
    // one-shots; the fast-forward's deschedule/reschedule counts none.
    EXPECT_EQ(k.stats().processed, 7u);
    EXPECT_EQ(k.stats().oneShots, 3u);
}

TEST(Kernel, NextEventTime)
{
    Kernel k;
    EXPECT_EQ(k.nextEventTime(), Kernel::kNoEvent);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    k.schedule(a, 50);
    k.schedule(b, 20);
    EXPECT_EQ(k.nextEventTime(), 20u);
    k.deschedule(b);
    EXPECT_EQ(k.nextEventTime(), 50u);
    k.deschedule(a);
    EXPECT_EQ(k.nextEventTime(), Kernel::kNoEvent);
}

TEST(Kernel, NextEventTimeExcluding)
{
    Kernel k;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    k.schedule(a, 20);
    // Only `a` pending: excluding it, the queue is empty.
    EXPECT_EQ(k.nextEventTimeExcluding(a), Kernel::kNoEvent);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 20u);
    k.schedule(b, 70);
    EXPECT_EQ(k.nextEventTimeExcluding(a), 70u);
    // Excluding an event that is not scheduled sees everything.
    k.deschedule(a);
    EXPECT_EQ(k.nextEventTimeExcluding(a), 70u);
    k.deschedule(b);
}

TEST(Kernel, RunLimitVisibleInsideRun)
{
    Kernel k;
    EXPECT_EQ(k.runLimit(), Kernel::kNoEvent);
    Tick seen_bounded = 0;
    Tick seen_unbounded = 0;
    k.post(10, [&]() { seen_bounded = k.runLimit(); });
    k.run(100);
    EXPECT_EQ(seen_bounded, 100u);
    EXPECT_EQ(k.runLimit(), Kernel::kNoEvent);
    k.post(20, [&]() { seen_unbounded = k.runLimit(); });
    k.run();
    EXPECT_EQ(seen_unbounded, Kernel::kNoEvent);
}

} // namespace
} // namespace ringsim::sim
