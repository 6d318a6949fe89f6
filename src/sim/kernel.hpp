/**
 * @file
 * Discrete-event simulation kernel.
 *
 * This is ringsim's substitute for the CSIM library the paper used: a
 * deterministic event-driven kernel with integer-picosecond time.
 * Components either derive from Event and reschedule themselves (cheap,
 * no allocation per firing — used by the per-cycle ring and bus models)
 * or post one-shot lambdas for occasional actions.
 *
 * Determinism: events that fire at the same tick are processed in the
 * order they were scheduled (a monotone sequence number breaks ties),
 * so a given configuration and seed always reproduces the same run.
 *
 * The pending set is a two-tier structure tuned for the dominant
 * schedule pattern (per-cycle reschedules a few ring/bus/processor
 * periods ahead):
 *
 *  - a timing wheel of power-of-two tick buckets covering a near
 *    horizon past now(); insertion is an O(1) append, and a bucket is
 *    sorted once when the clock reaches it;
 *  - a binary heap for the rare far-future events beyond the horizon.
 *
 * One-shot callables are stored in pooled nodes with inline storage
 * (falling back to one heap allocation only for oversized captures),
 * so the steady-state hot path performs no allocation at all.
 */

#ifndef RINGSIM_SIM_KERNEL_HPP
#define RINGSIM_SIM_KERNEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace ringsim::sim {

class Kernel;

/**
 * A reusable schedulable event. Derive and implement process().
 * An Event may be scheduled on at most one kernel at a time.
 */
class Event
{
  public:
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the kernel when the event fires. */
    virtual void process() = 0;

    /** True while the event sits in a kernel's queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire (valid while scheduled). */
    Tick when() const { return when_; }

  protected:
    Event() = default;

  private:
    friend class Kernel;

    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t generation_ = 0;
};

/** Counters the kernel keeps about its own operation. */
struct KernelStats
{
    /** Events processed since construction. */
    Count processed = 0;

    /** One-shot callbacks among @ref processed. */
    Count oneShots = 0;

    /** Entries that took the near-horizon wheel path. */
    Count nearScheduled = 0;

    /** Entries that took the far-future heap path. */
    Count farScheduled = 0;

    /** High-water mark of simultaneously pending events. */
    Count maxPending = 0;

    /** Wall-clock seconds spent inside run(). */
    double runSeconds = 0;
};

/**
 * The event queue and simulated clock.
 */
class Kernel
{
  public:
    /** Sentinel returned when no event (or no run limit) exists. */
    static constexpr Tick kNoEvent = ~Tick(0);

    Kernel();
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Fire time of the earliest pending event, or kNoEvent. */
    Tick nextEventTime();

    /**
     * Fire time of the earliest pending event other than @p event, or
     * kNoEvent. Used by self-rescheduling components (the ring ticker)
     * to see how far away the rest of the system is. If @p event is
     * scheduled it is briefly removed and re-added at its original
     * tick; this refreshes its tie-break order among same-tick events,
     * so callers must invoke this only from contexts where no other
     * event was scheduled since @p event was (e.g. from within the
     * event's own process()).
     */
    Tick nextEventTimeExcluding(Event &event);

    /**
     * The @c until bound of the run() currently executing, or kNoEvent
     * outside run() / when run() was called without a bound.
     */
    Tick runLimit() const { return runUntil_; }

    /**
     * Schedule a reusable event at absolute time @p when (>= now).
     * The event must not already be scheduled.
     */
    void schedule(Event &event, Tick when);

    /** Post a one-shot callable at absolute time @p when (>= now). */
    template <typename F>
    void post(Tick when, F fn) {
        static_assert(std::is_invocable_v<F &>,
                      "one-shot callables take no arguments");
        OneShot &shot = acquireShot();
        if constexpr (sizeof(F) <= kShotInlineBytes &&
                      alignof(F) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(shot.storage)) F(std::move(fn));
            shot.invoke = [](OneShot &s, Kernel &k) {
                F *f = std::launder(
                    reinterpret_cast<F *>(s.storage));
                (*f)();
                f->~F();
                k.releaseShot(s);
            };
            shot.destroy = [](OneShot &s) {
                std::launder(reinterpret_cast<F *>(s.storage))->~F();
            };
        } else {
            // Oversized capture: one heap allocation, pointer inline.
            F *heap = new F(std::move(fn));
            ::new (static_cast<void *>(shot.storage)) (F *)(heap);
            shot.invoke = [](OneShot &s, Kernel &k) {
                F *f = *std::launder(
                    reinterpret_cast<F **>(s.storage));
                (*f)();
                delete f;
                k.releaseShot(s);
            };
            shot.destroy = [](OneShot &s) {
                delete *std::launder(
                    reinterpret_cast<F **>(s.storage));
            };
        }
        postShot(when, shot);
    }

    /** Post a one-shot callable @p delta ticks from now. */
    template <typename F>
    void postIn(Tick delta, F fn) {
        post(now_ + delta, std::move(fn));
    }

    /** Remove a scheduled event from the queue. */
    void deschedule(Event &event);

    /**
     * Run until the queue drains, @p until is reached, or stop() is
     * called. Events scheduled exactly at @p until still fire.
     *
     * @return the number of events processed.
     */
    Count run(Tick until = ~Tick(0));

    /** Process exactly one event. @return false if the queue is empty. */
    bool runOne();

    /** Ask run() to return after the current event completes. */
    void stop() { stopping_ = true; }

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Events currently pending. */
    Count pending() const { return live_; }

    /** Total events processed since construction. */
    Count processed() const { return stats_.processed; }

    /** Operation counters (throughput, queue depth, tier usage). */
    const KernelStats &stats() const { return stats_; }

  private:
    /** Near-horizon wheel geometry: 512 buckets of 2048 ticks each
     *  (~1 µs horizon) — several ring, bus and processor periods. */
    static constexpr unsigned kBucketBits = 11;
    static constexpr std::size_t kWheelBuckets = 512;
    static constexpr std::size_t kWheelMask = kWheelBuckets - 1;

    /** Inline payload bytes of a pooled one-shot node. */
    static constexpr std::size_t kShotInlineBytes = 48;

    struct OneShot
    {
        OneShot *next = nullptr;
        /** Move the payload out, destroy it, recycle the node, run. */
        void (*invoke)(OneShot &, Kernel &) = nullptr;
        /** Destroy the payload without running it (kernel teardown). */
        void (*destroy)(OneShot &) = nullptr;
        alignas(std::max_align_t) unsigned char storage[kShotInlineBytes];
    };

    /** A pending firing: either a reusable Event or a one-shot. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;          // null for one-shots
        std::uint64_t generation;
        OneShot *shot;         // null for reusable events

        bool operator>(const Entry &other) const {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;   // consumed prefix while active
        bool sorted = false;
    };

    /** Where peekNext() found the next firing. */
    struct NextRef
    {
        const Entry *entry = nullptr;
        Bucket *bucket = nullptr;   // null → far heap top
    };

    static std::uint64_t bucketIndex(Tick when) {
        return when >> kBucketBits;
    }

    /** True if the entry was invalidated by deschedule()/reschedule. */
    static bool stale(const Entry &e) {
        return e.event &&
               (!e.event->scheduled_ ||
                e.event->generation_ != e.generation);
    }

    void enqueue(Entry entry);
    void postShot(Tick when, OneShot &shot);

    /** Next live near-tier entry (purging stale ones), or null. */
    NextRef peekNear();

    /** Next live entry across both tiers, or {null,null}. */
    NextRef peekNext();

    /** Remove @p next from its tier, advance now() and fire it. */
    void fire(const NextRef &next);

    OneShot &acquireShot();
    void releaseShot(OneShot &shot);

    std::array<Bucket, kWheelBuckets> wheel_;
    std::size_t nearSize_ = 0;      // physical wheel entries (incl. stale)
    std::uint64_t hintBucket_ = 0;  // no wheel entry below this index
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> far_;

    Tick now_ = 0;
    Tick runUntil_ = kNoEvent;
    std::uint64_t nextSeq_ = 0;
    Count live_ = 0;
    bool stopping_ = false;
    KernelStats stats_;

    OneShot *freeShots_ = nullptr;
    std::vector<std::unique_ptr<OneShot[]>> shotBlocks_;
};

/**
 * Calls a handler every @p period ticks, starting at @p start.
 * The cycle-level ring and bus models are built on this.
 */
class Ticker : public Event
{
  public:
    /**
     * @param kernel kernel to run on.
     * @param period distance between firings, in ticks (> 0).
     * @param handler called once per firing with the current cycle
     *        index (0, 1, 2, ...).
     */
    Ticker(Kernel &kernel, Tick period,
           std::function<void(Count cycle)> handler);

    /** Begin ticking; first firing at absolute time @p start. */
    void start(Tick start_at);

    /** Stop ticking (idempotent). */
    void stop();

    /**
     * Skip the next @p skip firings in O(1): the pending firing moves
     * @p skip periods later and the cycle index advances past the
     * skipped cycles, without the handler running for any of them.
     * The ticker must be running. A no-op when @p skip is zero.
     *
     * This is the quiescence primitive: a cycle-level model whose
     * skipped cycles are provably free of side effects (an empty ring
     * with no pending work) jumps over them instead of paying one
     * kernel dispatch per cycle.
     */
    void fastForward(Count skip);

    /** Ticks between firings. */
    Tick period() const { return period_; }

    /** Index of the next cycle to fire. */
    Count cycle() const { return cycle_; }

    void process() override;

  private:
    Kernel &kernel_;
    Tick period_;
    Count cycle_ = 0;
    std::function<void(Count)> handler_;
};

} // namespace ringsim::sim

#endif // RINGSIM_SIM_KERNEL_HPP
