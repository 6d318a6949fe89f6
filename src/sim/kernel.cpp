#include "kernel.hpp"

#include <algorithm>
#include <chrono>

#include "util/logging.hpp"

namespace ringsim::sim {

namespace {

/** Pooled one-shot nodes are allocated in blocks of this many. */
constexpr std::size_t kShotBlockSize = 64;

} // namespace

Event::~Event()
{
    // An event must not be destroyed while a kernel still references
    // it; the owner is responsible for descheduling first. We cannot
    // reach the kernel from here, so flag the misuse.
    if (scheduled_)
        panic("Event destroyed while still scheduled");
}

Kernel::Kernel() = default;

Kernel::~Kernel()
{
    // Destroy the payloads of any one-shots still pending; the pool
    // blocks themselves are owned by shotBlocks_.
    for (Bucket &bucket : wheel_) {
        for (std::size_t i = bucket.head; i < bucket.entries.size(); ++i) {
            Entry &e = bucket.entries[i];
            if (e.shot)
                e.shot->destroy(*e.shot);
        }
    }
    while (!far_.empty()) {
        const Entry &e = far_.top();
        if (e.shot)
            e.shot->destroy(*e.shot);
        far_.pop();
    }
}

void
Kernel::enqueue(Entry entry)
{
    std::uint64_t idx = bucketIndex(entry.when);
    if (idx < bucketIndex(now_) + kWheelBuckets) {
        Bucket &bucket = wheel_[idx & kWheelMask];
        // Appends arrive in (when, seq) order almost always (periodic
        // reschedules with monotone seq), so the bucket usually stays
        // sorted without ever calling sort.
        if (bucket.entries.empty()) {
            bucket.head = 0;
            bucket.sorted = true;
        } else if (bucket.sorted) {
            const Entry &back = bucket.entries.back();
            if (back > entry)
                bucket.sorted = false;
        }
        bucket.entries.push_back(entry);
        ++nearSize_;
        if (idx < hintBucket_)
            hintBucket_ = idx;
        ++stats_.nearScheduled;
    } else {
        far_.push(entry);
        ++stats_.farScheduled;
    }
    ++live_;
    stats_.maxPending = std::max(stats_.maxPending, live_);
}

void
Kernel::schedule(Event &event, Tick when)
{
    if (event.scheduled_)
        panic("Event scheduled twice (when=%llu)",
              static_cast<unsigned long long>(when));
    if (when < now_)
        panic("Event scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    event.scheduled_ = true;
    event.when_ = when;
    ++event.generation_;
    enqueue(Entry{when, nextSeq_++, &event, event.generation_, nullptr});
}

void
Kernel::deschedule(Event &event)
{
    if (!event.scheduled_)
        panic("deschedule of an unscheduled event");
    // Lazy removal: bump the generation so the stale queue entry is
    // skipped when reached.
    event.scheduled_ = false;
    ++event.generation_;
    --live_;
}

void
Kernel::postShot(Tick when, OneShot &shot)
{
    if (when < now_) {
        shot.destroy(shot);
        releaseShot(shot);
        panic("Callback posted in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    }
    enqueue(Entry{when, nextSeq_++, nullptr, 0, &shot});
}

Kernel::OneShot &
Kernel::acquireShot()
{
    if (!freeShots_) {
        auto block = std::make_unique<OneShot[]>(kShotBlockSize);
        for (std::size_t i = 0; i < kShotBlockSize; ++i) {
            block[i].next = freeShots_;
            freeShots_ = &block[i];
        }
        shotBlocks_.push_back(std::move(block));
    }
    OneShot &shot = *freeShots_;
    freeShots_ = shot.next;
    return shot;
}

void
Kernel::releaseShot(OneShot &shot)
{
    shot.next = freeShots_;
    freeShots_ = &shot;
}

Kernel::NextRef
Kernel::peekNear()
{
    if (nearSize_ == 0)
        return {};
    // Scan forward from the lowest possibly-populated bucket. The loop
    // is bounded: nearSize_ > 0 guarantees an entry within the window
    // [hintBucket_, bucketIndex(now_) + kWheelBuckets).
    std::uint64_t b = hintBucket_;
    std::uint64_t limit = bucketIndex(now_) + kWheelBuckets;
    for (; b < limit; ++b) {
        Bucket &bucket = wheel_[b & kWheelMask];
        for (;;) {
            if (bucket.head >= bucket.entries.size()) {
                // Fully drained; recycle the storage for the next lap.
                bucket.entries.clear();
                bucket.head = 0;
                bucket.sorted = false;
                break;
            }
            if (!bucket.sorted) {
                bucket.entries.erase(
                    bucket.entries.begin(),
                    bucket.entries.begin() +
                        static_cast<std::ptrdiff_t>(bucket.head));
                bucket.head = 0;
                std::sort(bucket.entries.begin(), bucket.entries.end(),
                          [](const Entry &a, const Entry &b2) {
                              return b2 > a;
                          });
                bucket.sorted = true;
            }
            const Entry &e = bucket.entries[bucket.head];
            // Purge stale entries (descheduled, or superseded by a
            // reschedule) regardless of lap: dropping one early is
            // always safe.
            if (stale(e)) {
                ++bucket.head;
                --nearSize_;
                continue;
            }
            // A slot can also hold entries one wheel revolution ahead;
            // they sort to the tail, so the whole remainder belongs to
            // a later lap and this bucket is empty for now (a live
            // entry is never in the past, so an off-lap head entry
            // can only be a later lap).
            if (bucketIndex(e.when) != b)
                break;
            hintBucket_ = b;
            return {&e, &bucket};
        }
        if (nearSize_ == 0) {
            hintBucket_ = b + 1;
            return {};
        }
    }
    panic("event wheel scan found no entry (nearSize=%llu)",
          static_cast<unsigned long long>(nearSize_));
}

Kernel::NextRef
Kernel::peekNext()
{
    NextRef near = peekNear();
    // Purge stale far-heap tops so the comparison sees a live entry.
    while (!far_.empty() && stale(far_.top()))
        far_.pop();
    if (far_.empty())
        return near;
    const Entry &far_top = far_.top();
    if (!near.entry || far_top.when < near.entry->when ||
        (far_top.when == near.entry->when &&
         far_top.seq < near.entry->seq)) {
        return {&far_top, nullptr};
    }
    return near;
}

void
Kernel::fire(const NextRef &next)
{
    Entry entry = *next.entry;
    if (next.bucket) {
        Bucket &bucket = *next.bucket;
        if (++bucket.head == bucket.entries.size()) {
            // Drained: recycle the storage (capacity is retained).
            bucket.entries.clear();
            bucket.head = 0;
            bucket.sorted = true;
        }
        --nearSize_;
    } else {
        far_.pop();
    }
    now_ = entry.when;
    --live_;
    ++stats_.processed;
    if (entry.event) {
        entry.event->scheduled_ = false;
        entry.event->process();
    } else {
        ++stats_.oneShots;
        entry.shot->invoke(*entry.shot, *this);
    }
}

Tick
Kernel::nextEventTime()
{
    NextRef next = peekNext();
    return next.entry ? next.entry->when : kNoEvent;
}

Tick
Kernel::nextEventTimeExcluding(Event &event)
{
    if (!event.scheduled_)
        return nextEventTime();
    Tick saved = event.when_;
    deschedule(event);
    Tick next = nextEventTime();
    schedule(event, saved);
    return next;
}

Count
Kernel::run(Tick until)
{
    stopping_ = false;
    Count fired = 0;
    Tick saved_limit = runUntil_;
    runUntil_ = until == ~Tick(0) ? kNoEvent : until;
    auto start = std::chrono::steady_clock::now();
    while (live_ > 0 && !stopping_) {
        NextRef next = peekNext();
        if (!next.entry || next.entry->when > until)
            break;
        fire(next);
        ++fired;
    }
    runUntil_ = saved_limit;
    stats_.runSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return fired;
}

bool
Kernel::runOne()
{
    if (live_ == 0)
        return false;
    NextRef next = peekNext();
    if (!next.entry)
        return false;
    fire(next);
    return true;
}

Ticker::Ticker(Kernel &kernel, Tick period,
               std::function<void(Count)> handler)
    : kernel_(kernel), period_(period), handler_(std::move(handler))
{
    if (period_ == 0)
        panic("Ticker period must be nonzero");
}

void
Ticker::start(Tick start_at)
{
    if (scheduled())
        panic("Ticker started twice");
    kernel_.schedule(*this, start_at);
}

void
Ticker::stop()
{
    if (scheduled())
        kernel_.deschedule(*this);
}

void
Ticker::fastForward(Count skip)
{
    if (!scheduled())
        panic("fastForward on a stopped ticker");
    if (skip == 0)
        return;
    Tick at = when() + static_cast<Tick>(skip) * period_;
    kernel_.deschedule(*this);
    cycle_ += skip;
    kernel_.schedule(*this, at);
}

void
Ticker::process()
{
    Count this_cycle = cycle_++;
    // Reschedule before the handler so the handler may stop() us, and
    // so the next firing's tie-break sequence number precedes anything
    // the handler schedules for the same tick.
    kernel_.schedule(*this, kernel_.now() + period_);
    handler_(this_cycle);
}

} // namespace ringsim::sim
