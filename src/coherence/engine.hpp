/**
 * @file
 * Functional (untimed) coherence engine.
 *
 * Runs references through per-processor MSI caches and home-node state,
 * and — because the snooping, full-map and linked-list protocols share
 * the same cache-state machine and differ only in *how* transactions
 * move on the ring — scores all three protocols' transaction costs in
 * a single pass. Its Census feeds:
 *
 *  - Table 1 (full map vs linked list traversal distributions),
 *  - Table 2 (trace characteristics under the 128 KB cache),
 *  - Figure 5 (directory miss-class breakdown),
 *  - the analytic models (message counts and mileage).
 *
 * Message mileage bookkeeping per protocol is documented inline; all
 * distances are node hops on the unidirectional ring (nodes in index
 * order). A CoherenceChecker (optional) asserts the single-writer and
 * no-stale-read invariants on every action.
 */

#ifndef RINGSIM_COHERENCE_ENGINE_HPP
#define RINGSIM_COHERENCE_ENGINE_HPP

#include <memory>
#include <vector>

#include "cache/checker.hpp"
#include "cache/coherent_cache.hpp"
#include "coherence/census.hpp"
#include "coherence/mem_state.hpp"
#include "trace/address_map.hpp"
#include "trace/record.hpp"

namespace ringsim::coherence {

/** What one access did — consumed by the timed protocol controllers. */
struct AccessOutcome
{
    /** How the reference resolved. */
    enum class Type {
        Instr,   //!< instruction fetch (never misses)
        Hit,     //!< cache hit
        Upgrade, //!< write to an RS copy (invalidation)
        Miss,    //!< read or write miss (data fetch)
    };

    Type type = Type::Hit;
    bool isWrite = false;
    bool isShared = false;

    Addr block = 0;            //!< block base address
    NodeId home = invalidNode; //!< home node of the block

    /** Miss details (valid when type == Miss). */
    bool wasDirty = false;       //!< a remote cache owned the block
    NodeId owner = invalidNode;  //!< that owner
    bool mapSharers = false;     //!< full-map presence bits (other
                                 //!< than requester) were set

    /** Victim details (valid when type == Miss and a block was
     *  displaced). */
    bool victimValid = false;
    bool victimDirty = false;    //!< displaced block needs write-back
    Addr victimBlock = 0;
    NodeId victimHome = invalidNode;
};

/** Options of a functional run. */
struct EngineOptions
{
    /** Cache geometry (paper default: 128 KB direct mapped, 16 B). */
    cache::Geometry geometry;

    /** Run the coherence invariant checker (slower; on in tests). */
    bool check = false;

    /**
     * Continuous invariant monitoring: when non-null, the checker runs
     * (as if check were set) and routes violations to this sink
     * instead of panicking. Borrowed; must outlive the engine.
     */
    cache::InvariantMonitor *monitor = nullptr;

    /**
     * Test-only protocol fault seeds. Production code leaves these
     * off; tests use them to prove the invariant monitor and the
     * static model checker both catch a broken transition.
     */
    struct TestHooks
    {
        /**
         * Every invalidation walk skips its highest-numbered holder,
         * leaving a recognizably stale copy behind (the functional
         * twin of ptable::Mutation::DropInvalidation).
         */
        bool dropOneInvalidation = false;
    };
    TestHooks hooks;
};

/**
 * Deterministic counts of the engine's own work. Kept out of Census
 * (and so out of every RunResult and cache key): they describe how the
 * simulator computed the answer, not the answer.
 */
struct EngineWork
{
    /** Caches probed by invalidation walks (one per presence bit). */
    Count invalidationProbes = 0;
};

/** The engine proper. */
class FunctionalEngine
{
  public:
    /**
     * @param map address map defining homes (must outlive the engine).
     * @param options run options.
     */
    FunctionalEngine(const trace::AddressMap &map,
                     const EngineOptions &options);

    /**
     * Apply one reference from processor @p proc.
     * @param outcome when non-null, filled with what the access did.
     */
    void access(NodeId proc, const trace::TraceRecord &ref,
                AccessOutcome *outcome = nullptr);

    /**
     * Apply data reference @p ref from @p proc only if it hits: the
     * census is updated exactly as access() would, with one tag
     * lookup. Returns false, changing nothing, for anything else
     * (instruction fetches included).
     */
    bool accessIfHit(NodeId proc, const trace::TraceRecord &ref);

    /** Accumulated census. */
    const Census &census() const { return census_; }

    /** Zero the census (cache and directory state kept — warmup). */
    void resetCensus();

    /** Work counters since construction (not reset with the census). */
    const EngineWork &work() const { return work_; }

    /** Processor @p proc's cache (tests). */
    const cache::CoherentCache &cacheOf(NodeId proc) const;

    /** Home state of the block containing @p addr (tests). */
    const MemState &memState(Addr addr);

    /** The checker, or null when disabled. */
    const cache::CoherenceChecker *checker() const {
        return checker_.get();
    }

  private:
    /** Count a data reference in the census's reference mix. */
    void countRef(bool is_write, bool shared);

    /** Census and checker bookkeeping of a hit (already touched). */
    void recordHit(NodeId p, Addr addr, bool is_write);

    void handleUpgrade(NodeId p, Addr block, NodeId home,
                       AccessOutcome *outcome);
    void handleMiss(NodeId p, Addr addr, Addr block, NodeId home,
                    bool is_write, AccessOutcome *outcome);
    void handleVictim(NodeId p, const cache::Victim &victim,
                      AccessOutcome *outcome);

    /**
     * Invalidate every other cached copy. Only nodes with a presence
     * bit are probed: presence is a superset of the holders (see
     * mem_state.hpp).
     */
    void invalidateOthers(NodeId p, Addr block, MemState &ms);

    /** Score a snooping-protocol data miss (probe + block reply). */
    void scoreSnoopMiss(NodeId p, NodeId home, NodeId supplier,
                        bool dirty);

    const trace::AddressMap &map_;
    cache::Geometry geom_;
    EngineOptions::TestHooks hooks_;
    unsigned procs_;
    std::vector<cache::CoherentCache> caches_;
    MemTable mem_;
    std::unique_ptr<cache::CoherenceChecker> checker_;
    Census census_;
    EngineWork work_;
};

} // namespace ringsim::coherence

#endif // RINGSIM_COHERENCE_ENGINE_HPP
