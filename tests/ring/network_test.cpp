/**
 * @file
 * Unit tests for the cycle-level slotted ring: delivery timing,
 * snooping visibility, parity rules, anti-starvation, occupancy, and
 * the visit predicate that decides which nodes an occupied slot is
 * dispatched to.
 *
 * Every scripted client keeps the reactor contract of
 * RingClient::onSlot: a node that inserts is pending first
 * (notifyPending), and the cases that count every node's view of every
 * slot run on RingConfig::referenceTickPath, the scan that visits every
 * node.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <tuple>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/ring/network.hpp"

namespace ringsim::ring {
namespace {

/** Scriptable client: calls the hook on every slot visit. */
class ScriptClient : public RingClient
{
  public:
    using Hook = std::function<void(SlotHandle &)>;

    void onSlot(SlotHandle &slot) override
    {
        if (hook)
            hook(slot);
    }

    Hook hook;
};

class RingNetworkTest : public ::testing::Test
{
  protected:
    RingNetworkTest()
    {
        config_.nodes = 8;
        clients_.resize(8);
        buildRing();
    }

    /** Rebuild the ring on the reference scan: every node sees every
     *  slot, whether or not the message names it. */
    void useReferencePath()
    {
        config_.referenceTickPath = true;
        buildRing();
    }

    void buildRing()
    {
        ring_ = std::make_unique<SlotRing>(kernel_, config_);
        for (NodeId n = 0; n < 8; ++n)
            ring_->setClient(n, clients_[n]);
    }

    sim::Kernel kernel_;
    RingConfig config_;
    std::unique_ptr<SlotRing> ring_;
    std::vector<ScriptClient> clients_;
};

TEST_F(RingNetworkTest, EveryNodeSeesEverySlotOncePerRotation)
{
    useReferencePath();
    std::vector<Count> seen(8, 0);
    for (NodeId n = 0; n < 8; ++n)
        clients_[n].hook = [&seen, n](SlotHandle &) { ++seen[n]; };
    ring_->start(0);
    // One full rotation = totalStages cycles: every node sees each of
    // the 9 slots exactly once.
    kernel_.run(static_cast<Tick>(config_.totalStages() - 1) *
                config_.clockPeriod);
    ring_->stop();
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_EQ(seen[n], ring_->config().totalSlots()) << "node " << n;
}

TEST_F(RingNetworkTest, MessageDeliveredAfterStageDistance)
{
    // Node 1 sends a block message to node 5; the delivery time
    // matches the stage distance between them.
    Tick inserted = 0;
    Tick delivered = 0;
    clients_[1].hook = [&](SlotHandle &slot) {
        if (inserted == 0 && slot.type() == SlotType::Block) {
            RingMessage msg;
            msg.src = 1;
            msg.dst = 5;
            msg.addr = 0x100;
            slot.insert(msg);
            inserted = kernel_.now();
        }
    };
    clients_[5].hook = [&](SlotHandle &slot) {
        if (slot.occupied() && slot.message().dst == 5) {
            slot.remove();
            delivered = kernel_.now();
        }
    };
    ring_->notifyPending(1);
    ring_->start(0);
    kernel_.run(nsToTicks(500));
    ring_->stop();
    ASSERT_GT(inserted, 0u);
    ASSERT_GT(delivered, 0u);
    Tick expect = static_cast<Tick>(config_.stageDistance(1, 5)) *
                  config_.clockPeriod;
    EXPECT_EQ(delivered - inserted, expect);
}

TEST_F(RingNetworkTest, BroadcastProbeSnoopedByAllAndReturns)
{
    // Every node counts the probe passing it, tap or not.
    useReferencePath();
    std::vector<int> snooped(8, 0);
    bool returned = false;
    Tick inserted = 0;
    Tick came_back = 0;
    for (NodeId n = 0; n < 8; ++n) {
        clients_[n].hook = [&, n](SlotHandle &slot) {
            if (n == 2 && !inserted &&
                slot.type() == SlotType::ProbeEven) {
                RingMessage msg;
                msg.src = 2;
                msg.dst = broadcastNode;
                msg.addr = 0x200; // even block
                slot.insert(msg);
                inserted = kernel_.now();
                return;
            }
            if (slot.occupied() &&
                slot.message().dst == broadcastNode) {
                if (slot.message().src == n) {
                    slot.remove();
                    returned = true;
                    came_back = kernel_.now();
                } else {
                    ++snooped[n];
                }
            }
        };
    }
    ring_->notifyPending(2);
    ring_->start(0);
    kernel_.run(nsToTicks(500));
    ring_->stop();
    ASSERT_TRUE(returned);
    EXPECT_EQ(came_back - inserted,
              static_cast<Tick>(config_.totalStages()) *
                  config_.clockPeriod)
        << "probe removed after exactly one traversal";
    for (NodeId n = 0; n < 8; ++n) {
        if (n == 2)
            continue;
        EXPECT_EQ(snooped[n], 1) << "node " << n;
    }
}

TEST_F(RingNetworkTest, ParityRuleEnforced)
{
    // An odd-block probe cannot enter an even probe slot.
    bool tried = false;
    clients_[0].hook = [&](SlotHandle &slot) {
        if (slot.type() == SlotType::ProbeEven && !tried) {
            tried = true;
            EXPECT_FALSE(slot.canInsert(0x30)); // block 3: odd
            EXPECT_TRUE(slot.canInsert(0x20));  // block 2: even
        }
    };
    ring_->notifyPending(0);
    ring_->start(0);
    kernel_.run(nsToTicks(100));
    ring_->stop();
    EXPECT_TRUE(tried);
}

TEST_F(RingNetworkTest, AntiStarvationBlocksImmediateReuse)
{
    // Section 5.0: a node may not reuse a slot it just freed.
    bool checked = false;
    clients_[3].hook = [&](SlotHandle &slot) {
        if (slot.type() != SlotType::Block)
            return;
        if (!slot.occupied()) {
            if (checked)
                return;
            RingMessage msg;
            msg.src = 3;
            msg.dst = 3; // to self: comes back after a full loop
            msg.addr = 0x100;
            if (slot.canInsert(msg.addr))
                slot.insert(msg);
            return;
        }
        if (slot.message().dst == 3 && !checked) {
            slot.remove();
            EXPECT_FALSE(slot.canInsert(0x100))
                << "slot just freed by this node";
            checked = true;
        }
    };
    ring_->notifyPending(3);
    ring_->start(0);
    kernel_.run(nsToTicks(1000));
    ring_->stop();
    EXPECT_TRUE(checked);
}

TEST_F(RingNetworkTest, OccupancyTracksInsertions)
{
    // Keep one block slot occupied forever: block occupancy tends to
    // 1/framesOnRing.
    bool inserted = false;
    clients_[0].hook = [&](SlotHandle &slot) {
        if (!inserted && slot.type() == SlotType::Block) {
            RingMessage msg;
            msg.src = 0;
            msg.dst = invalidNode; // nobody removes it
            msg.addr = 0;
            slot.insert(msg);
            inserted = true;
            ring_->clearPending(0);
        }
    };
    ring_->notifyPending(0);
    ring_->start(0);
    kernel_.run(nsToTicks(10000));
    ring_->stop();
    EXPECT_NEAR(ring_->occupancy(SlotType::Block),
                1.0 / config_.framesOnRing(), 0.05);
    EXPECT_NEAR(ring_->totalOccupancy(),
                1.0 / (3.0 * config_.framesOnRing()), 0.05);
    EXPECT_EQ(ring_->inserted(SlotType::Block), 1u);
    EXPECT_EQ(ring_->removed(SlotType::Block), 0u);
}

TEST_F(RingNetworkTest, ResetStatsZeroes)
{
    ring_->start(0);
    kernel_.run(nsToTicks(100));
    EXPECT_GT(ring_->cycles(), 0u);
    ring_->resetStats();
    EXPECT_EQ(ring_->cycles(), 0u);
    EXPECT_EQ(ring_->totalOccupancy(), 0.0);
    ring_->stop();
}

TEST_F(RingNetworkTest, ProbeTypeParity)
{
    EXPECT_EQ(ring_->probeTypeFor(0x00), SlotType::ProbeEven);
    EXPECT_EQ(ring_->probeTypeFor(0x10), SlotType::ProbeOdd);
    EXPECT_EQ(ring_->probeTypeFor(0x1f), SlotType::ProbeOdd);
    EXPECT_EQ(ring_->probeTypeFor(0x20), SlotType::ProbeEven);
}

TEST_F(RingNetworkTest, SlotTailTimes)
{
    EXPECT_EQ(ring_->slotTailTime(SlotType::ProbeEven),
              1u * config_.clockPeriod);
    EXPECT_EQ(ring_->slotTailTime(SlotType::Block),
              5u * config_.clockPeriod);
}

TEST(RingNetwork, AntiStarvationOffAllowsImmediateReuse)
{
    sim::Kernel kernel;
    RingConfig config;
    config.nodes = 8;
    config.antiStarvation = false;
    SlotRing ring_net(kernel, config);
    std::vector<ScriptClient> clients(8);
    for (NodeId n = 0; n < 8; ++n)
        ring_net.setClient(n, clients[n]);

    bool checked = false;
    clients[3].hook = [&](SlotHandle &slot) {
        if (slot.type() != SlotType::Block)
            return;
        if (!slot.occupied()) {
            if (checked)
                return;
            RingMessage msg;
            msg.src = 3;
            msg.dst = 3;
            msg.addr = 0x100;
            if (slot.canInsert(msg.addr))
                slot.insert(msg);
            return;
        }
        if (slot.message().dst == 3 && !checked) {
            slot.remove();
            EXPECT_TRUE(slot.canInsert(0x100))
                << "rule off: freed slot reusable in the same visit";
            checked = true;
        }
    };
    ring_net.notifyPending(3);
    ring_net.start(0);
    kernel.run(nsToTicks(1000));
    ring_net.stop();
    EXPECT_TRUE(checked);
}

TEST_F(RingNetworkTest, ResetStatsMidRunOccupancy)
{
    // Pin the warm-up-reset semantics: after a mid-run resetStats()
    // the occupancy denominators restart, so a block slot that stays
    // occupied across the reset accounts for EXACTLY one slot's worth
    // of occupancy over the post-reset window.
    bool inserted = false;
    clients_[0].hook = [&](SlotHandle &slot) {
        if (!inserted && slot.type() == SlotType::Block) {
            RingMessage msg;
            msg.src = 0;
            msg.dst = invalidNode; // never removed
            msg.addr = 0;
            slot.insert(msg);
            inserted = true;
            ring_->clearPending(0);
        }
    };
    ring_->notifyPending(0);
    ring_->start(0);
    kernel_.run(nsToTicks(100));
    ASSERT_TRUE(inserted);
    ASSERT_GT(ring_->inserted(SlotType::Block), 0u);
    ring_->resetStats();
    EXPECT_EQ(ring_->cycles(), 0u);
    EXPECT_EQ(ring_->inserted(SlotType::Block), 0u);

    // Run exactly 200 more ring cycles; the message keeps circulating
    // so every post-reset cycle sees exactly one occupied block slot.
    kernel_.run(kernel_.now() + 200 * config_.clockPeriod);
    ring_->stop();
    EXPECT_EQ(ring_->cycles(), 200u);
    EXPECT_DOUBLE_EQ(ring_->occupancy(SlotType::Block),
                     1.0 / config_.framesOnRing());
    EXPECT_DOUBLE_EQ(ring_->totalOccupancy(),
                     1.0 / (3.0 * config_.framesOnRing()));
    EXPECT_EQ(ring_->inserted(SlotType::Block), 0u)
        << "pre-reset insertion must not leak into the new window";
}

TEST_F(RingNetworkTest, IdleSkipSuppressesEmptyVisitsUntilPending)
{
    // Track node 6's visits: it is only visited for occupied slots
    // that name it, until notifyPending offers it empty slots (so it
    // can insert).
    Count visits = 0;
    Count empty_visits = 0;
    clients_[6].hook = [&](SlotHandle &slot) {
        ++visits;
        if (!slot.occupied())
            ++empty_visits;
    };
    ring_->start(0);
    kernel_.run(nsToTicks(100));
    EXPECT_EQ(visits, 0u) << "empty ring, no pending: never visited";

    ring_->notifyPending(6);
    kernel_.run(kernel_.now() + 10 * config_.clockPeriod);
    EXPECT_GT(empty_visits, 0u) << "pending node is offered empty slots";

    Count at_clear = visits;
    ring_->clearPending(6);
    kernel_.run(kernel_.now() + 10 * config_.clockPeriod);
    ring_->stop();
    EXPECT_EQ(visits, at_clear) << "clearPending stops the offers";
}

TEST_F(RingNetworkTest, QuiescentRingFastForwardsInsideRunBound)
{
    // Empty ring, no pending node: the run degenerates to O(1) kernel
    // events while the cycle count still covers the full span.
    ring_->start(0);
    Count before = kernel_.stats().processed;
    kernel_.run(2000 * config_.clockPeriod);
    ring_->stop();
    EXPECT_EQ(ring_->cycles(), 2001u)
        << "ticks at 0..2000 periods inclusive, fast-forwarded or not";
    EXPECT_LT(kernel_.stats().processed - before, 10u)
        << "the idle span must cost O(1) events, not one per cycle";
}

TEST_F(RingNetworkTest, FastForwardWakesExactlyForPostedWork)
{
    // A quiescent ring fast-forwards toward a foreign event, then
    // resumes cycle-by-cycle so the woken node can insert at exactly
    // the time the cycle-accurate path would have given it.
    bool want_insert = false;
    Tick inserted = 0;
    Tick delivered = 0;
    clients_[2].hook = [&](SlotHandle &slot) {
        if (slot.occupied() && slot.message().dst == 2) {
            slot.remove();
            delivered = kernel_.now();
            return;
        }
        if (want_insert && !slot.occupied() &&
            slot.type() == SlotType::Block) {
            RingMessage msg;
            msg.src = 2;
            msg.dst = 2; // full loop back to the sender
            msg.addr = 0x100;
            slot.insert(msg);
            inserted = kernel_.now();
            want_insert = false;
            ring_->clearPending(2);
        }
    };
    Tick wake = 51'000; // off the tick grid on purpose
    kernel_.post(wake, [&]() {
        want_insert = true;
        ring_->notifyPending(2);
    });
    ring_->start(0);
    kernel_.run(nsToTicks(2000));
    ring_->stop();
    ASSERT_GT(inserted, 0u);
    ASSERT_GT(delivered, 0u);
    EXPECT_GE(inserted, wake);
    // The cycle-accurate ring would offer node 2 the next block slot
    // within one frame time of the wake.
    EXPECT_LE(inserted, wake + config_.frameTime());
    EXPECT_EQ(delivered - inserted,
              static_cast<Tick>(config_.totalStages()) *
                  config_.clockPeriod)
        << "self-removal after exactly one traversal";
}

TEST_F(RingNetworkTest, ReferencePathMatchesFastPathCycleForCycle)
{
    // Ring-level golden check (the full-system one lives in
    // golden_equivalence_test.cpp): a scripted bounce between two
    // pending nodes produces identical timing and statistics
    // under both tick paths.
    auto run_one = [](bool reference) {
        sim::Kernel kernel;
        RingConfig config;
        config.nodes = 8;
        config.referenceTickPath = reference;
        SlotRing ring_net(kernel, config);
        std::vector<ScriptClient> clients(8);
        // Nodes 1 and 5 volley a block message back and forth with an
        // off-grid think time between volleys, so the fast path
        // interleaves skipped visits and fast-forwards with real work.
        std::vector<Tick> deliveries;
        std::array<bool, 8> want_insert{};
        int volleys = 5;
        for (NodeId n = 0; n < 8; ++n) {
            ring_net.setClient(n, clients[n]);
            clients[n].hook = [&, n](SlotHandle &slot) {
                if (slot.occupied()) {
                    if (slot.message().dst != n)
                        return;
                    slot.remove();
                    deliveries.push_back(kernel.now());
                    if (--volleys > 0) {
                        kernel.postIn(7'777, [&, n]() {
                            want_insert[n] = true;
                            ring_net.notifyPending(n);
                        });
                    }
                    return;
                }
                if (want_insert[n] &&
                    slot.type() == SlotType::Block &&
                    slot.canInsert(0x100)) {
                    RingMessage msg;
                    msg.src = n;
                    msg.dst = n == 5 ? NodeId(1) : NodeId(5);
                    msg.addr = 0x100;
                    slot.insert(msg);
                    want_insert[n] = false;
                    ring_net.clearPending(n);
                }
            };
        }
        want_insert[1] = true;
        ring_net.notifyPending(1);
        ring_net.start(0);
        kernel.run(nsToTicks(20'000));
        ring_net.stop();
        return std::tuple<std::vector<Tick>, Count, double>(
            deliveries, ring_net.cycles(), ring_net.totalOccupancy());
    };
    auto ref = run_one(true);
    auto fast = run_one(false);
    EXPECT_EQ(std::get<0>(ref), std::get<0>(fast));
    EXPECT_EQ(std::get<1>(ref), std::get<1>(fast));
    EXPECT_EQ(std::get<2>(ref), std::get<2>(fast));
    EXPECT_EQ(std::get<0>(ref).size(), 5u);
}

/**
 * Eight clients counting their visits. Node @p sender inserts @p msg
 * into the first slot that takes it (it is pending until then); nobody
 * removes anything unless a test adds a hook of its own.
 */
class VisitPredicateTest : public RingNetworkTest
{
  protected:
    struct Visits
    {
        Count empty = 0;
        Count occupied = 0;
        Count corrupt = 0;
    };

    void
    countVisits(const RingMessage &msg)
    {
        for (NodeId n = 0; n < 8; ++n) {
            clients_[n].hook = [this, n, msg](SlotHandle &slot) {
                if (!slot.occupied()) {
                    ++visits_[n].empty;
                    if (n == msg.src && !inserted_ &&
                        slot.canInsert(msg.addr) &&
                        (slot.type() == SlotType::Block) == block_) {
                        slot.insert(msg);
                        inserted_ = true;
                        insertedAt_ = kernel_.now();
                        ring_->clearPending(n);
                    }
                    return;
                }
                ++visits_[n].occupied;
                if (slot.corrupted()) {
                    ++visits_[n].corrupt;
                    slot.remove();
                }
            };
        }
        ring_->notifyPending(msg.src);
    }

    /** Run until the message is on the ring, then @p loops more full
     *  traversals: every node the slot passes sees it @p loops times,
     *  the sender included. */
    void
    runLoops(unsigned loops)
    {
        ring_->start(0);
        while (!inserted_)
            kernel_.run(kernel_.now() + config_.clockPeriod);
        kernel_.run(insertedAt_ + static_cast<Tick>(loops) *
                                      config_.totalStages() *
                                      config_.clockPeriod);
        ring_->stop();
    }

    std::array<Visits, 8> visits_{};
    bool block_ = false;
    bool inserted_ = false;
    Tick insertedAt_ = 0;
};

TEST_F(VisitPredicateTest, BroadcastReachesOnlyItsTapAndSource)
{
    RingMessage msg;
    msg.src = 2;
    msg.dst = broadcastNode;
    msg.tap = 6;
    msg.addr = 0x200; // even block
    countVisits(msg);
    runLoops(3);
    for (NodeId n = 0; n < 8; ++n) {
        Count expect = (n == 2 || n == 6) ? 3 : 0;
        EXPECT_EQ(visits_[n].occupied, expect) << "node " << n;
    }
    EXPECT_EQ(ring_->work().occupiedDispatches, 6u);
}

TEST_F(VisitPredicateTest, UnicastReachesOnlyItsDestination)
{
    RingMessage msg;
    msg.src = 1;
    msg.dst = 5;
    msg.addr = 0x100;
    block_ = true;
    countVisits(msg);
    runLoops(2);
    for (NodeId n = 0; n < 8; ++n) {
        Count expect = n == 5 ? 2 : 0;
        EXPECT_EQ(visits_[n].occupied, expect) << "node " << n;
    }
}

TEST_F(VisitPredicateTest, CorruptSlotReachesFirstTrackedNode)
{
    // Every occupied slot is corrupted on the cycle after insertion,
    // so node 1's unicast to node 5 is corrupt before it reaches node
    // 2 — the first node downstream, which must see it to discard it.
    fault::FaultConfig fc;
    fc.corruptRate = 1.0;
    fault::FaultInjector injector(fc);
    ring_->setFaultInjector(&injector);
    RingMessage msg;
    msg.src = 1;
    msg.dst = 5;
    msg.addr = 0x100;
    block_ = true;
    countVisits(msg);
    runLoops(1);
    for (NodeId n = 0; n < 8; ++n) {
        Count expect = n == 2 ? 1 : 0;
        EXPECT_EQ(visits_[n].occupied, expect) << "node " << n;
        EXPECT_EQ(visits_[n].corrupt, expect) << "node " << n;
    }
    EXPECT_EQ(ring_->occupiedNow(), 0u);
}

TEST_F(RingNetworkTest, WorkCountsScheduledAndDispatchedVisits)
{
    // Every node pending on an empty ring: every scheduled visit is
    // dispatched, so one rotation schedules nodes * slots visits and
    // dispatches them all.
    for (NodeId n = 0; n < 8; ++n)
        ring_->notifyPending(n);
    ring_->start(0);
    kernel_.run(static_cast<Tick>(config_.totalStages() - 1) *
                config_.clockPeriod);
    ring_->stop();
    Count all = Count(8) * ring_->config().totalSlots();
    EXPECT_EQ(ring_->work().scheduledVisits, all);
    EXPECT_EQ(ring_->work().dispatchedVisits, all);
    EXPECT_EQ(ring_->work().occupiedDispatches, 0u);
}

TEST(RingNetworkDeathTest, StartWithoutClientsPanics)
{
    sim::Kernel kernel;
    RingConfig config;
    SlotRing ring_net(kernel, config);
    EXPECT_DEATH(ring_net.start(0), "no client");
}

} // namespace
} // namespace ringsim::ring
