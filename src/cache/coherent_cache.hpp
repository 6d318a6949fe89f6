/**
 * @file
 * A 3-state (INV / RS / WE) coherent cache model.
 *
 * The protocol of the paper (Section 3.1) uses three block states:
 * Invalid, Read-Shared (read-only) and Write-Exclusive (read-write,
 * i.e. dirty and owned). This class models the tag/state array only —
 * traces carry no data, so correctness is checked with version numbers
 * by cache::CoherenceChecker instead of byte values.
 */

#ifndef RINGSIM_CACHE_COHERENT_CACHE_HPP
#define RINGSIM_CACHE_COHERENT_CACHE_HPP

#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"
#include "stats/stats.hpp"
#include "util/units.hpp"

namespace ringsim::cache {

/** Coherence state of a cached block. */
enum class State : std::uint8_t {
    Invalid,      //!< not present
    ReadShared,   //!< present read-only (RS)
    WriteExcl,    //!< present read-write, dirty, owned (WE)
};

/** Printable name of a state. */
const char *stateName(State s);

/** Outcome of a cache access attempt. */
enum class AccessResult : std::uint8_t {
    Hit,          //!< usable copy present (RS for reads, WE for writes)
    Miss,         //!< block absent: a read or write miss
    UpgradeMiss,  //!< write to an RS copy: needs an invalidation only
};

/** A block displaced by a fill. */
struct Victim
{
    bool valid = false;    //!< a block was displaced
    Addr blockAddr = 0;    //!< base address of the displaced block
    State state = State::Invalid; //!< its state (WE => write back)
};

/**
 * Tag/state array of one processor's data cache. Set-associative with
 * true-LRU replacement; the paper's configuration is direct mapped.
 */
class CoherentCache
{
  public:
    /** Build a cache with the given geometry (validated here). */
    explicit CoherentCache(const Geometry &geometry);

    /** The cache's geometry. */
    const Geometry &geometry() const { return geom_; }

    /**
     * Classify an access without changing any state.
     *
     * @param addr byte address accessed.
     * @param is_write true for stores.
     */
    [[nodiscard]] AccessResult classify(Addr addr, bool is_write) const;

    /** Current state of the block containing @p addr. */
    State state(Addr addr) const;

    /**
     * Classify an access and, when it hits, record the hit (refreshes
     * LRU) — one tag lookup. Upgrade and plain misses change nothing.
     */
    AccessResult touchIfHit(Addr addr, bool is_write);

    /**
     * Install the block containing @p addr in @p new_state, evicting
     * the LRU way of the set if needed.
     *
     * @return the displaced block, if any.
     */
    Victim fill(Addr addr, State new_state);

    /** Upgrade an RS copy to WE (after invalidations complete). */
    void upgrade(Addr addr);

    /**
     * Invalidate the copy of @p addr if present.
     * @return the state it had (Invalid when absent).
     */
    State invalidate(Addr addr);

    /**
     * Downgrade a WE copy to RS (remote read observed). The block must
     * be present in WE state.
     */
    void downgrade(Addr addr);

    /** Number of valid (non-Invalid) blocks currently cached. */
    size_t validBlocks() const;

    /** Hits recorded via touchIfHit(). */
    const stats::Counter &hits() const { return hits_; }

    /** Fills recorded via fill(). */
    const stats::Counter &fills() const { return fills_; }

    /** Evictions of valid blocks. */
    const stats::Counter &evictions() const { return evictions_; }

    /** Evictions of WE (dirty) blocks, i.e. write-backs. */
    const stats::Counter &writebacks() const { return writebacks_; }

    /** Drop all blocks and reset LRU (stats retained). */
    void clear();

  private:
    struct Line
    {
        Addr tag = 0;
        State state = State::Invalid;
    };

    /** Index in lines_ of the first way of @p addr's set. */
    size_t setBase(Addr addr) const {
        return static_cast<size_t>((addr >> blockShift_) & setMask_) *
               geom_.assoc;
    }

    /** Tag of @p addr. */
    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    /** Index of the valid line holding @p addr, or lines_.size(). */
    size_t lookup(Addr addr) const;

    /** Mark line @p i most recently used (set-associative only). */
    void stamp(size_t i) {
        if (!lastUse_.empty())
            lastUse_[i] = ++useClock_;
    }

    Geometry geom_;
    unsigned blockShift_; //!< log2(blockBytes)
    unsigned tagShift_;   //!< log2(blockBytes * sets)
    Addr setMask_;        //!< sets - 1 (sets is a power of two)
    std::vector<Line> lines_;
    /** LRU stamps parallel to lines_; empty when direct mapped, where
     *  the one way of a set is always the victim. */
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;

    stats::Counter hits_;
    stats::Counter fills_;
    stats::Counter evictions_;
    stats::Counter writebacks_;
};

} // namespace ringsim::cache

#endif // RINGSIM_CACHE_COHERENT_CACHE_HPP
