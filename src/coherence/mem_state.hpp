/**
 * @file
 * Memory-side per-block coherence state.
 *
 * One structure serves all three protocols:
 *  - the snooping protocol only needs the dirty bit (Section 3.1);
 *  - the full-map directory adds presence bits, which are *sticky*:
 *    silent RS replacement leaves the bit set, so presence is always a
 *    superset of the true holders (invalidations may chase evicted
 *    copies — realistic full-map behavior). The functional engine's
 *    invalidation walk visits only these bits, so every path that
 *    adds a holder must set its bit;
 *  - the linked-list protocol keeps the exact sharing list in order
 *    (SCI rollout removes an entry when a cache evicts a copy).
 *
 * MemTable holds one MemState per block the run has touched.
 */

#ifndef RINGSIM_COHERENCE_MEM_STATE_HPP
#define RINGSIM_COHERENCE_MEM_STATE_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/units.hpp"

namespace ringsim::coherence {

/** Home-node state of one block. */
struct MemState
{
    /** Set while some cache holds the block WE. */
    bool dirty = false;

    /** The WE holder when dirty. */
    NodeId owner = invalidNode;

    /** Sticky full-map presence bits (bit i = node i). */
    std::uint64_t presence = 0;

    /** Exact sharing list, head first (linked-list protocol). */
    std::vector<NodeId> list;

    /** Presence bits other than @p node. */
    std::uint64_t
    presenceExcept(NodeId node) const
    {
        return presence & ~(std::uint64_t(1) << node);
    }

    /** True if @p node is on the sharing list. */
    bool
    onList(NodeId node) const
    {
        return std::find(list.begin(), list.end(), node) != list.end();
    }

    /** Sharing-list length excluding @p node. */
    unsigned
    listSizeExcept(NodeId node) const
    {
        auto size = static_cast<unsigned>(list.size());
        return onList(node) ? size - 1 : size;
    }

    /** Current list head, or invalidNode when the list is empty. */
    NodeId
    head() const
    {
        return list.empty() ? invalidNode : list.front();
    }

    /** Put @p node at the head (moving it if already listed). */
    void
    prepend(NodeId node)
    {
        detach(node);
        list.insert(list.begin(), node);
    }

    /** Remove @p node from the list (rollout); no-op if absent. */
    void
    detach(NodeId node)
    {
        list.erase(std::remove(list.begin(), list.end(), node),
                   list.end());
    }

    /** Make @p node the sole holder in WE state. */
    void
    makeExclusive(NodeId node)
    {
        dirty = true;
        owner = node;
        presence = std::uint64_t(1) << node;
        list.clear();
        list.push_back(node);
    }

    /** Clear ownership after a write-back. */
    void
    clearOwner()
    {
        dirty = false;
        owner = invalidNode;
    }
};

/**
 * Home-node state of every block touched so far, keyed by block base
 * address.
 *
 * The block space is sparse (private regions sit 256 MB apart per
 * processor), so this is an open-addressing index rather than an array
 * by block number: 16-byte {key, index} slots, power-of-two capacity,
 * multiplicative hashing, linear probing, load at most 3/4. The index
 * points into a deque, so growing rehashes only the small slots and a
 * MemState never moves: a reference from operator[] stays valid across
 * later inserts. Storing the 40-byte MemState in the slots instead
 * costs far more memory at the same load.
 */
class MemTable
{
  public:
    MemTable() : slots_(minSlots) {}

    /** State of @p block, default-constructed on first use. */
    MemState &
    operator[](Addr block)
    {
        std::size_t i = homeSlot(block);
        for (; slots_[i].index != empty; i = (i + 1) & mask()) {
            if (slots_[i].key == block)
                return values_[slots_[i].index];
        }
        if (4 * (values_.size() + 1) > 3 * slots_.size()) {
            grow();
            i = freeSlot(block);
        }
        slots_[i] = {block, static_cast<std::uint32_t>(values_.size())};
        return values_.emplace_back();
    }

  private:
    static constexpr std::uint32_t empty = ~std::uint32_t(0);
    static constexpr std::size_t minSlots = 1024;

    struct Slot
    {
        Addr key = 0;
        std::uint32_t index = empty;
    };
    static_assert(sizeof(Slot) == 16);

    std::size_t mask() const { return slots_.size() - 1; }

    /** Fibonacci hashing: the product's high bits depend on every key
     *  bit, so the all-zero block-offset bits cost nothing. */
    std::size_t
    homeSlot(Addr block) const
    {
        return static_cast<std::size_t>(
            (block * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::size_t
    freeSlot(Addr block) const
    {
        std::size_t i = homeSlot(block);
        while (slots_[i].index != empty)
            i = (i + 1) & mask();
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        --shift_;
        for (const Slot &s : old) {
            if (s.index != empty)
                slots_[freeSlot(s.key)] = s;
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 64 - std::countr_zero(minSlots); //!< 64 - log2 size
    std::deque<MemState> values_;
};

} // namespace ringsim::coherence

#endif // RINGSIM_COHERENCE_MEM_STATE_HPP
