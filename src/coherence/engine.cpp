#include "engine.hpp"

#include <algorithm>
#include <bit>

#include "coherence/classify.hpp"
#include "util/logging.hpp"

namespace ringsim::coherence {

namespace {

/** Bucket a traversal count into the 0/1/2/3+ histogram. */
unsigned
bucketOf(unsigned traversals)
{
    return std::min(traversals, maxTraversalBucket);
}

/** Presence-word bit of @p node. */
std::uint64_t
bitOf(NodeId node)
{
    return std::uint64_t(1) << node;
}

} // namespace

FunctionalEngine::FunctionalEngine(const trace::AddressMap &map,
                                   const EngineOptions &options)
    : map_(map), geom_(options.geometry), hooks_(options.hooks),
      procs_(map.nodes())
{
    geom_.validate();
    if (procs_ > 64)
        panic("engine: %u nodes exceed the 64-bit presence word", procs_);
    caches_.reserve(procs_);
    for (unsigned p = 0; p < procs_; ++p)
        caches_.emplace_back(geom_);
    if (options.check || options.monitor) {
        checker_ = std::make_unique<cache::CoherenceChecker>(procs_);
        checker_->setMonitor(options.monitor);
    }
    census_.procs = procs_;
}

const cache::CoherentCache &
FunctionalEngine::cacheOf(NodeId proc) const
{
    if (proc >= procs_)
        panic("cacheOf: proc %u out of range", proc);
    return caches_[proc];
}

const MemState &
FunctionalEngine::memState(Addr addr)
{
    return mem_[geom_.blockBase(addr)];
}

void
FunctionalEngine::resetCensus()
{
    unsigned procs = census_.procs;
    census_ = Census{};
    census_.procs = procs;
}

void
FunctionalEngine::countRef(bool is_write, bool shared)
{
    if (shared) {
        ++(is_write ? census_.sharedWrites : census_.sharedReads);
    } else {
        ++(is_write ? census_.privateWrites : census_.privateReads);
    }
}

void
FunctionalEngine::recordHit(NodeId p, Addr addr, bool is_write)
{
    ++census_.hits;
    if (is_write && checker_)
        checker_->writeHit(p, geom_.blockBase(addr));
}

void
FunctionalEngine::access(NodeId p, const trace::TraceRecord &ref,
                         AccessOutcome *outcome)
{
    if (p >= procs_)
        panic("access: proc %u out of range", p);

    if (ref.op == trace::Op::Instr) {
        // Instruction fetches never miss (Section 4.1): count only.
        ++census_.instrRefs;
        if (outcome) {
            *outcome = AccessOutcome{};
            outcome->type = AccessOutcome::Type::Instr;
        }
        return;
    }

    bool is_write = ref.isWrite();
    bool shared = map_.isShared(ref.addr);
    countRef(is_write, shared);

    Addr block = geom_.blockBase(ref.addr);
    NodeId home = map_.home(ref.addr);
    if (outcome) {
        *outcome = AccessOutcome{};
        outcome->isWrite = is_write;
        outcome->isShared = shared;
        outcome->block = block;
        outcome->home = home;
    }

    cache::AccessResult res = caches_[p].touchIfHit(ref.addr, is_write);
    if (res == cache::AccessResult::Hit) {
        recordHit(p, ref.addr, is_write);
        if (outcome)
            outcome->type = AccessOutcome::Type::Hit;
        return;
    }

    if (res == cache::AccessResult::UpgradeMiss) {
        handleUpgrade(p, block, home, outcome);
        return;
    }

    ++(shared ? census_.sharedMisses : census_.privateMisses);
    handleMiss(p, ref.addr, block, home, is_write, outcome);
}

bool
FunctionalEngine::accessIfHit(NodeId p, const trace::TraceRecord &ref)
{
    if (p >= procs_)
        panic("accessIfHit: proc %u out of range", p);
    if (ref.op == trace::Op::Instr)
        return false;
    bool is_write = ref.isWrite();
    if (caches_[p].touchIfHit(ref.addr, is_write) !=
        cache::AccessResult::Hit)
        return false;
    countRef(is_write, map_.isShared(ref.addr));
    recordHit(p, ref.addr, is_write);
    return true;
}

void
FunctionalEngine::invalidateOthers(NodeId p, Addr block, MemState &ms)
{
    std::uint64_t walk = ms.presenceExcept(p);

    // Test hook: drop the invalidation aimed at the highest-numbered
    // holder, so the copy (and its checker bookkeeping) survives.
    if (hooks_.dropOneInvalidation) {
        for (std::uint64_t left = walk; left != 0;) {
            auto q = static_cast<NodeId>(63 - std::countl_zero(left));
            left &= ~bitOf(q);
            if (caches_[q].state(block) != cache::State::Invalid) {
                walk &= ~bitOf(q);
                break;
            }
        }
    }

    // Ascending node order, as the checker and the sharing list have
    // always seen it. A set bit whose copy was silently replaced finds
    // the cache Invalid and costs only the probe.
    work_.invalidationProbes += static_cast<Count>(std::popcount(walk));
    for (; walk != 0; walk &= walk - 1) {
        auto q = static_cast<NodeId>(std::countr_zero(walk));
        cache::State st = caches_[q].invalidate(block);
        if (st == cache::State::Invalid)
            continue;
        if (checker_) {
            // A WE owner's data reaches the requester; as far as the
            // version bookkeeping goes the owner flushes, then drops.
            if (st == cache::State::WriteExcl)
                checker_->downgrade(q, block);
            checker_->drop(q, block);
        }
        ms.detach(q);
    }
}

void
FunctionalEngine::handleUpgrade(NodeId p, Addr block, NodeId home,
                                AccessOutcome *outcome)
{
    MemState &ms = mem_[block];
    ++census_.upgrades;

    if (ms.dirty)
        panic("upgrade while the block is dirty elsewhere");

    // Protocol views of "are there other sharers?".
    bool map_sharers = ms.presenceExcept(p) != 0;
    unsigned list_sharers = ms.listSizeExcept(p);
    if (outcome) {
        outcome->type = AccessOutcome::Type::Upgrade;
        outcome->mapSharers = map_sharers;
    }

    // --- Snooping: every upgrade broadcasts one probe (the memory has
    // no sharer information), exactly one traversal.
    ++census_.snoop.invTraversals[1];
    ++census_.snoop.probes;
    census_.snoop.probeHops += procs_;

    // --- Full map: home round trip (request + ack probes) plus a
    // full-ring multicast when other presence bits are set.
    {
        unsigned trav = dirUpgradeTraversals(procs_, p, home, map_sharers);
        ++census_.fullMap.invTraversals[bucketOf(trav)];
        if (p != home) {
            census_.fullMap.probes += 2;
            census_.fullMap.probeHops +=
                hopDist(procs_, p, home) + hopDist(procs_, home, p);
        }
        if (map_sharers) {
            ++census_.fullMap.probes;
            census_.fullMap.probeHops += procs_;
        }
    }

    // --- Linked list: become head via the home, then purge the exact
    // list with one serial round trip per remaining sharer.
    {
        unsigned trav = llistInvalidateTraversals(procs_, p, home,
                                                  list_sharers);
        ++census_.linkedList.invTraversals[bucketOf(trav)];
        census_.linkedList.probes +=
            2 * list_sharers + (p == home ? 0 : 2);
        census_.linkedList.probeHops +=
            llistInvalidateHops(procs_, p, home, list_sharers);
    }

    invalidateOthers(p, block, ms);
    caches_[p].upgrade(block);
    if (checker_)
        checker_->writeFill(p, block);
    ms.makeExclusive(p);
}

void
FunctionalEngine::scoreSnoopMiss(NodeId p, NodeId home, NodeId supplier,
                                 bool dirty)
{
    // Every miss broadcasts its probe (Section 3.1: "miss and
    // invalidation requests are broadcasted through the ring"); the
    // dirty bit only decides who responds. When the responder is the
    // requester's own node the data never enters a block slot.
    ++census_.snoop.missTraversals[1];
    ++census_.snoop.probes;
    census_.snoop.probeHops += procs_;
    if (supplier == p) {
        ++census_.snoop.localMisses;
    } else if (dirty) {
        ++census_.snoop.dirtyMiss1;
    } else {
        ++census_.snoop.cleanMiss1;
    }
    if (supplier != p) {
        ++census_.snoop.blocks;
        census_.snoop.blockHops += hopDist(procs_, supplier, p);
    }
    (void)home;
}

void
FunctionalEngine::handleMiss(NodeId p, Addr addr, Addr block,
                             NodeId home, bool is_write,
                             AccessOutcome *outcome)
{
    MemState &ms = mem_[block];
    bool dirty = ms.dirty;
    NodeId owner = ms.owner;
    bool map_sharers = ms.presenceExcept(p) != 0;
    unsigned list_sharers = ms.listSizeExcept(p);
    NodeId head = ms.head();
    if (outcome) {
        outcome->type = AccessOutcome::Type::Miss;
        outcome->wasDirty = dirty;
        outcome->owner = owner;
        outcome->mapSharers = map_sharers;
    }
    if (dirty && owner == p)
        panic("miss on a block this processor owns dirty");

    // ---------------- Snooping protocol scoring ----------------
    {
        NodeId supplier = dirty ? owner : home;
        scoreSnoopMiss(p, home, supplier, dirty);
    }

    // ---------------- Full-map directory scoring ----------------
    {
        bool multicast = is_write && !dirty && map_sharers;
        DirMiss dm = classifyDirMiss(procs_, p, home, dirty, owner,
                                     multicast);
        ++census_.fullMap.missTraversals[bucketOf(dm.traversals)];
        switch (dm.cls) {
          case DirMissClass::Local:
            ++census_.fullMap.localMisses;
            break;
          case DirMissClass::Clean1:
            ++census_.fullMap.cleanMiss1;
            break;
          case DirMissClass::Dirty1:
            ++census_.fullMap.dirtyMiss1;
            break;
          case DirMissClass::Two:
            ++census_.fullMap.miss2;
            break;
        }
        if (dm.probeHops || dm.traversals) {
            census_.fullMap.probes += dirty ? 2 : (p == home ? 0 : 1);
            if (multicast)
                ++census_.fullMap.probes;
            census_.fullMap.probeHops += dm.probeHops;
            if (dm.blockHops) {
                ++census_.fullMap.blocks;
                census_.fullMap.blockHops += dm.blockHops;
            }
        }
        // A dirty block read back through the directory also refreshes
        // the home memory; if the home is not on the owner->requester
        // path the owner sends a second block message.
        if (dirty && !is_write && home != owner && home != p) {
            unsigned to_req = hopDist(procs_, owner, p);
            unsigned to_home = hopDist(procs_, owner, home);
            if (to_home > to_req) {
                ++census_.fullMap.blocks;
                census_.fullMap.blockHops += to_home;
            }
        }
    }

    // ---------------- Linked-list scoring ----------------
    {
        unsigned trav;
        if (is_write && !dirty && list_sharers > 0) {
            // Write miss to a clean shared block: fetch via the home,
            // then purge the list with serial round trips.
            trav = llistInvalidateTraversals(procs_, p, home,
                                             list_sharers);
            census_.linkedList.probes +=
                2 * list_sharers + (p == home ? 0 : 2);
            census_.linkedList.probeHops +=
                llistInvalidateHops(procs_, p, home, list_sharers);
            if (p != home) {
                ++census_.linkedList.blocks;
                census_.linkedList.blockHops += hopDist(procs_, home, p);
            }
        } else {
            // Reads, uncached writes and dirty-block writes all follow
            // the miss chain requester -> home (-> head/owner) ->
            // requester.
            NodeId supplier = dirty ? owner : head;
            trav = llistMissTraversals(procs_, p, home, supplier);
            if (p != home || supplier != invalidNode) {
                if (dirty || (supplier != invalidNode &&
                              supplier != home)) {
                    census_.linkedList.probes += 2;
                    census_.linkedList.probeHops +=
                        hopDist(procs_, p, home) +
                        hopDist(procs_, home,
                                supplier == invalidNode ? home
                                                        : supplier);
                    NodeId from = supplier == invalidNode ? home
                                                          : supplier;
                    ++census_.linkedList.blocks;
                    census_.linkedList.blockHops +=
                        hopDist(procs_, from, p);
                } else if (p != home) {
                    ++census_.linkedList.probes;
                    census_.linkedList.probeHops +=
                        hopDist(procs_, p, home);
                    ++census_.linkedList.blocks;
                    census_.linkedList.blockHops +=
                        hopDist(procs_, home, p);
                }
            }
        }
        ++census_.linkedList.missTraversals[bucketOf(trav)];
        if (trav == 0)
            ++census_.linkedList.localMisses;
    }

    // ---------------- State transition (common) ----------------
    if (is_write) {
        invalidateOthers(p, block, ms);
        cache::Victim victim =
            caches_[p].fill(addr, cache::State::WriteExcl);
        if (checker_)
            checker_->writeFill(p, block);
        ms.makeExclusive(p);
        handleVictim(p, victim, outcome);
    } else {
        if (dirty) {
            caches_[owner].downgrade(block);
            // The downgrade copies the owner's data back to memory, so
            // by the time the requester fills, memory is fresh — the
            // checker sees a memory-sourced fill either way.
            if (checker_)
                checker_->downgrade(owner, block);
            ms.clearOwner();
            ms.presence |= bitOf(owner);
            if (!ms.onList(owner))
                ms.prepend(owner);
        }
        cache::Victim victim =
            caches_[p].fill(addr, cache::State::ReadShared);
        if (checker_)
            checker_->readFill(p, block, /*from_memory=*/true);
        ms.presence |= bitOf(p);
        ms.prepend(p);
        handleVictim(p, victim, outcome);
    }
}

void
FunctionalEngine::handleVictim(NodeId p, const cache::Victim &victim,
                               AccessOutcome *outcome)
{
    if (!victim.valid)
        return;
    Addr vblock = victim.blockAddr;
    MemState &vms = mem_[vblock];
    NodeId vhome = map_.home(vblock);
    if (outcome) {
        outcome->victimValid = true;
        outcome->victimDirty = victim.state == cache::State::WriteExcl;
        outcome->victimBlock = vblock;
        outcome->victimHome = vhome;
    }

    if (victim.state == cache::State::WriteExcl) {
        ++census_.writebacks;
        if (checker_)
            checker_->writeback(p, vblock);
        vms.clearOwner();
        vms.presence &= ~bitOf(p);
        vms.detach(p);
        if (vhome != p) {
            unsigned hops = hopDist(procs_, p, vhome);
            for (ProtocolCensus *pc :
                 {&census_.snoop, &census_.fullMap,
                  &census_.linkedList}) {
                ++pc->blocks;
                pc->blockHops += hops;
            }
        }
    } else {
        // Silent RS replacement for snooping and full map (presence
        // bits go stale); the linked list must roll the node out with
        // a neighbor-patching probe round trip.
        if (checker_)
            checker_->drop(p, vblock);
        if (vms.onList(p)) {
            vms.detach(p);
            census_.linkedList.probes += 2;
            census_.linkedList.probeHops += procs_;
        }
    }
}

} // namespace ringsim::coherence
