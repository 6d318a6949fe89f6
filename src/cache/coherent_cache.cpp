#include "coherent_cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.hpp"

namespace ringsim::cache {

const char *
stateName(State s)
{
    switch (s) {
      case State::Invalid:
        return "INV";
      case State::ReadShared:
        return "RS";
      case State::WriteExcl:
        return "WE";
    }
    return "?";
}

CoherentCache::CoherentCache(const Geometry &geometry)
    : geom_(geometry)
{
    geom_.validate();
    // validate() makes the block and set counts powers of two, so the
    // Geometry divisions reduce to shifts and a mask.
    blockShift_ = static_cast<unsigned>(std::countr_zero(geom_.blockBytes));
    tagShift_ = blockShift_ +
                static_cast<unsigned>(std::countr_zero(geom_.sets()));
    setMask_ = geom_.sets() - 1;
    lines_.resize(geom_.blocks());
    if (geom_.assoc > 1)
        lastUse_.resize(geom_.blocks());
}

size_t
CoherentCache::lookup(Addr addr) const
{
    size_t base = setBase(addr);
    Addr tag = tagOf(addr);
    for (size_t i = base; i < base + geom_.assoc; ++i) {
        if (lines_[i].state != State::Invalid && lines_[i].tag == tag)
            return i;
    }
    return lines_.size();
}

AccessResult
CoherentCache::classify(Addr addr, bool is_write) const
{
    size_t i = lookup(addr);
    if (i == lines_.size())
        return AccessResult::Miss;
    if (!is_write || lines_[i].state == State::WriteExcl)
        return AccessResult::Hit;
    return AccessResult::UpgradeMiss;
}

State
CoherentCache::state(Addr addr) const
{
    size_t i = lookup(addr);
    return i == lines_.size() ? State::Invalid : lines_[i].state;
}

AccessResult
CoherentCache::touchIfHit(Addr addr, bool is_write)
{
    size_t i = lookup(addr);
    if (i == lines_.size())
        return AccessResult::Miss;
    Line &l = lines_[i];
    if (is_write && l.state != State::WriteExcl)
        return AccessResult::UpgradeMiss;
    stamp(i);
    hits_.inc();
    return AccessResult::Hit;
}

Victim
CoherentCache::fill(Addr addr, State new_state)
{
    if (new_state == State::Invalid)
        panic("fill with Invalid state");

    // Re-filling a present block (e.g. upgrade implemented as a fill)
    // must not allocate a second way.
    if (size_t i = lookup(addr); i != lines_.size()) {
        lines_[i].state = new_state;
        stamp(i);
        fills_.inc();
        return {};
    }

    // Choose an invalid way, else the LRU way.
    size_t base = setBase(addr);
    size_t pick = base;
    for (size_t i = base; i < base + geom_.assoc; ++i) {
        if (lines_[i].state == State::Invalid) {
            pick = i;
            break;
        }
        // lastUse_ exists only when assoc > 1, the only case where
        // i > base happens.
        if (i > base && lastUse_[i] < lastUse_[pick])
            pick = i;
    }

    Victim victim;
    Line &l = lines_[pick];
    if (l.state != State::Invalid) {
        victim.valid = true;
        victim.blockAddr = geom_.blockFromTag(l.tag, base / geom_.assoc);
        victim.state = l.state;
        evictions_.inc();
        if (l.state == State::WriteExcl)
            writebacks_.inc();
    }

    l.tag = tagOf(addr);
    l.state = new_state;
    stamp(pick);
    fills_.inc();
    return victim;
}

void
CoherentCache::upgrade(Addr addr)
{
    size_t i = lookup(addr);
    if (i == lines_.size())
        panic("upgrade of uncached address %llx",
              static_cast<unsigned long long>(addr));
    Line &l = lines_[i];
    if (l.state != State::ReadShared)
        panic("upgrade of a block in state %s", stateName(l.state));
    l.state = State::WriteExcl;
    stamp(i);
}

State
CoherentCache::invalidate(Addr addr)
{
    size_t i = lookup(addr);
    if (i == lines_.size())
        return State::Invalid;
    return std::exchange(lines_[i].state, State::Invalid);
}

void
CoherentCache::downgrade(Addr addr)
{
    size_t i = lookup(addr);
    if (i == lines_.size())
        panic("downgrade of uncached address %llx",
              static_cast<unsigned long long>(addr));
    Line &l = lines_[i];
    if (l.state != State::WriteExcl)
        panic("downgrade of a block in state %s", stateName(l.state));
    l.state = State::ReadShared;
}

size_t
CoherentCache::validBlocks() const
{
    size_t n = 0;
    for (const Line &l : lines_)
        if (l.state != State::Invalid)
            ++n;
    return n;
}

void
CoherentCache::clear()
{
    for (Line &l : lines_)
        l = Line{};
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    useClock_ = 0;
}

} // namespace ringsim::cache
