/**
 * @file
 * Unit tests for the input reservation table: arrival/departure rows,
 * late buffer binding, bypass detection, and the schedule list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "frfc/input_table.hpp"
#include "topology/topology.hpp"

namespace frfc {
namespace {

Flit
makeFlit(PacketId id, int seq)
{
    Flit flit;
    flit.packet = id;
    flit.seq = seq;
    flit.packetLength = 4;
    flit.payload = Flit::expectedPayload(id, seq);
    return flit;
}

TEST(InputTable, ReservedFlitFlowsThrough)
{
    InputReservationTable irt(32, 6);
    // At cycle 0 a control flit schedules: arrive 5, depart 9 via East.
    irt.recordReservation(0, 5, 9, kEast);
    EXPECT_FALSE(irt.departSlotFree(9));
    EXPECT_TRUE(irt.departSlotFree(8));

    for (Cycle t = 1; t <= 5; ++t)
        irt.advance(t);
    irt.acceptFlit(5, makeFlit(1, 0));
    EXPECT_EQ(irt.pool().usedCount(), 1);

    for (Cycle t = 6; t <= 9; ++t) {
        irt.advance(t);
        auto deps = irt.takeDepartures(t);
        if (t < 9) {
            EXPECT_TRUE(deps.empty());
        } else {
            ASSERT_EQ(deps.size(), 1u);
            EXPECT_EQ(deps[0].out, kEast);
            EXPECT_EQ(deps[0].flit.packet, 1);
            EXPECT_FALSE(deps[0].bypass);
        }
    }
    EXPECT_EQ(irt.pool().usedCount(), 0);
}

TEST(InputTable, BypassIsMinimumResidency)
{
    InputReservationTable irt(32, 6);
    irt.recordReservation(0, 3, 4, kNorth);
    for (Cycle t = 1; t <= 3; ++t)
        irt.advance(t);
    irt.acceptFlit(3, makeFlit(2, 0));
    irt.advance(4);
    auto deps = irt.takeDepartures(4);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_TRUE(deps[0].bypass);
    EXPECT_EQ(irt.bypasses(), 1);
}

TEST(InputTable, ScheduleListParksEarlyFlits)
{
    InputReservationTable irt(32, 6);
    // Data beats control: flit arrives at 2 with no reservation.
    irt.advance(2);
    irt.acceptFlit(2, makeFlit(3, 0));
    EXPECT_TRUE(irt.parkedAt(2));
    EXPECT_EQ(irt.parkedCount(), 1);
    EXPECT_EQ(irt.parkedTotal(), 1);

    // Control flit shows up at cycle 4 and schedules departure at 7.
    irt.advance(3);
    irt.advance(4);
    irt.recordReservation(4, 2, 7, kWest);
    EXPECT_FALSE(irt.parkedAt(2));

    for (Cycle t = 5; t <= 7; ++t)
        irt.advance(t);
    auto deps = irt.takeDepartures(7);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].out, kWest);
    EXPECT_EQ(deps[0].flit.packet, 3);
}

TEST(InputTable, SameCycleReservationThenArrival)
{
    // Control flit processed earlier in the same tick as the data
    // arrival: the arrival row is consulted, not the schedule list.
    InputReservationTable irt(32, 6);
    irt.advance(3);
    irt.recordReservation(3, 3, 6, kSouth);
    irt.acceptFlit(3, makeFlit(4, 0));
    EXPECT_EQ(irt.parkedCount(), 0);
    for (Cycle t = 4; t <= 6; ++t)
        irt.advance(t);
    ASSERT_EQ(irt.takeDepartures(6).size(), 1u);
}

TEST(InputTable, DepartSlotHonorsSpeedup)
{
    InputReservationTable irt(32, 6, /*speedup=*/2);
    irt.recordReservation(0, 3, 8, kEast);
    EXPECT_TRUE(irt.departSlotFree(8));  // one of two slots used
    irt.recordReservation(0, 4, 8, kWest);
    EXPECT_FALSE(irt.departSlotFree(8));
}

TEST(InputTable, MultiDepartureWithSpeedup)
{
    InputReservationTable irt(32, 6, /*speedup=*/2);
    irt.recordReservation(0, 3, 8, kEast);
    irt.recordReservation(0, 4, 8, kWest);
    for (Cycle t = 1; t <= 3; ++t)
        irt.advance(t);
    irt.acceptFlit(3, makeFlit(5, 0));
    irt.advance(4);
    irt.acceptFlit(4, makeFlit(5, 1));
    for (Cycle t = 5; t <= 8; ++t)
        irt.advance(t);
    auto deps = irt.takeDepartures(8);
    ASSERT_EQ(deps.size(), 2u);
    EXPECT_EQ(deps[0].out, kEast);
    EXPECT_EQ(deps[1].out, kWest);
}

TEST(InputTable, PoolSharedAcrossUses)
{
    InputReservationTable irt(32, 2);
    irt.advance(1);
    irt.acceptFlit(1, makeFlit(6, 0));  // parked
    irt.advance(2);
    irt.acceptFlit(2, makeFlit(6, 1));  // parked
    EXPECT_TRUE(irt.pool().full());
}

/**
 * Ring-seam edge case: a non-power-of-two horizon (13 cycles in a
 * 16-slot ring) slides its arrival/departure rows across the index
 * seam. Rows are tag-checked, so a reservation whose arrival sits just
 * before the seam and whose departure lands just after it must flow
 * through exactly like one in the middle of the window.
 */
TEST(InputTable, RowsSurviveRingWraparound)
{
    InputReservationTable irt(13, 6);
    for (Cycle t = 1; t <= 12; ++t)
        irt.advance(t);
    // Window [12, 24]: arrival 15 is ring slot 15, departure 17 is
    // ring slot 1 — the pair straddles the seam.
    irt.recordReservation(12, 15, 17, kEast);
    EXPECT_FALSE(irt.departSlotFree(17));
    for (Cycle t = 13; t <= 15; ++t)
        irt.advance(t);
    irt.acceptFlit(15, makeFlit(40, 0));
    for (Cycle t = 16; t <= 17; ++t) {
        irt.advance(t);
        auto deps = irt.takeDepartures(t);
        if (t < 17) {
            EXPECT_TRUE(deps.empty());
        } else {
            ASSERT_EQ(deps.size(), 1u);
            EXPECT_EQ(deps[0].out, kEast);
            EXPECT_EQ(deps[0].flit.packet, 40);
        }
    }
    EXPECT_EQ(irt.pool().usedCount(), 0);
    // The vacated ring slots must be clean when the window re-exposes
    // the same indices a full lap later.
    for (Cycle t = 18; t <= 33; ++t)
        irt.advance(t);
    EXPECT_TRUE(irt.departSlotFree(33));  // ring slot 1 again
    irt.recordReservation(33, 34, 36, kWest);
    irt.advance(34);
    irt.acceptFlit(34, makeFlit(41, 0));
    for (Cycle t = 35; t <= 36; ++t)
        irt.advance(t);
    ASSERT_EQ(irt.takeDepartures(36).size(), 1u);
}

/**
 * Long-run randomized flow cross-checked against a naive model:
 * >= 10k cycles per horizon shape of random reservations, arrivals,
 * parked (data-beats-control) flits, and departures, mirroring the
 * router's per-tick call order (advance, control, departures,
 * arrivals). Verifies departures pop exactly as scheduled and the
 * pool occupancy always equals resident + parked flits.
 */
TEST(InputTableProperty, RandomizedFlowMatchesModelOverLongRuns)
{
    struct Sched
    {
        Cycle arrival;
        Cycle depart;
        PortId out;
        PacketId id;
        bool arrived = false;
    };
    // 13 and 48 put the ring seam inside the live window.
    for (const int horizon : {13, 32, 48}) {
        Rng rng(20260809, static_cast<std::uint64_t>(horizon));
        const int buffers = 12;
        InputReservationTable irt(horizon, buffers);
        std::vector<Sched> live;
        std::set<Cycle> booked_arrivals;
        struct Parked
        {
            Cycle arrival;
            PacketId id;
        };
        std::vector<Parked> parked;
        PacketId next_id = 100;
        std::vector<InputReservationTable::Departure> scratch;
        for (Cycle now = 1; now <= 10000; ++now) {
            irt.advance(now);

            // "Control plane": maybe schedule a future arrival, and
            // maybe claim a parked flit.
            if (static_cast<int>(live.size() + parked.size())
                    < buffers - 2
                && rng.nextBool(0.6)) {
                const Cycle arrival =
                    now + 1 + static_cast<Cycle>(rng.nextBounded(
                        static_cast<std::uint64_t>(horizon / 2)));
                const Cycle win_end = now + horizon - 1;
                if (booked_arrivals.count(arrival) == 0
                    && arrival < win_end) {
                    const Cycle depart = arrival + 1
                        + static_cast<Cycle>(rng.nextBounded(
                            static_cast<std::uint64_t>(
                                win_end - arrival)));
                    if (irt.departSlotFree(depart)) {
                        const auto out = static_cast<PortId>(
                            rng.nextBounded(kNumPorts));
                        irt.recordReservation(now, arrival, depart, out);
                        live.push_back(
                            Sched{arrival, depart, out, next_id});
                        booked_arrivals.insert(arrival);
                        ++next_id;
                    }
                }
            }
            if (!parked.empty() && rng.nextBool(0.5)) {
                const Parked claim = parked.front();
                const Cycle depart = now + 1
                    + static_cast<Cycle>(rng.nextBounded(4));
                if (irt.departSlotFree(depart)) {
                    irt.recordReservation(now, claim.arrival, depart,
                                          kLocal);
                    EXPECT_FALSE(irt.parkedAt(claim.arrival));
                    live.push_back(Sched{claim.arrival, depart, kLocal,
                                         claim.id, /*arrived=*/true});
                    parked.erase(parked.begin());
                }
            }

            // Departures due this cycle, checked against the model.
            irt.takeDeparturesInto(now, scratch);
            std::vector<std::pair<PortId, PacketId>> expected;
            for (auto it = live.begin(); it != live.end();) {
                if (it->depart == now) {
                    EXPECT_TRUE(it->arrived);
                    expected.emplace_back(it->out, it->id);
                    it = live.erase(it);
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(scratch.size(), expected.size()) << "cycle " << now;
            for (const auto& dep : scratch) {
                const auto want = std::find(
                    expected.begin(), expected.end(),
                    std::make_pair(dep.out, dep.flit.packet));
                EXPECT_NE(want, expected.end())
                    << "unexpected departure at " << now;
            }

            // "Data plane": at most one flit arrives per cycle.
            bool accepted = false;
            for (Sched& sched : live) {
                if (sched.arrival == now) {
                    irt.acceptFlit(now, makeFlit(sched.id, 0));
                    sched.arrived = true;
                    booked_arrivals.erase(now);
                    accepted = true;
                }
            }
            if (!accepted && rng.nextBool(0.15)
                && static_cast<int>(live.size() + parked.size())
                    < buffers - 2) {
                // Data beats control: park an unscheduled flit.
                irt.acceptFlit(now, makeFlit(next_id, 0));
                EXPECT_TRUE(irt.parkedAt(now));
                parked.push_back(Parked{now, next_id});
                ++next_id;
            }

            // Pool occupancy == resident scheduled flits + parked.
            int arrived_live = 0;
            for (const Sched& sched : live)
                arrived_live += sched.arrived ? 1 : 0;
            ASSERT_EQ(irt.pool().usedCount(),
                      arrived_live + static_cast<int>(parked.size()))
                << "cycle " << now;
            ASSERT_EQ(irt.parkedCount(),
                      static_cast<int>(parked.size()));
        }
    }
}

TEST(InputTable, DoomRowExpiresSilently)
{
    // The doomed flit was dropped in flight too: its row expires
    // without tripping the missed-arrival check or counting a loss.
    InputReservationTable irt(8, 6);
    irt.setFaultTolerant(true);
    irt.markDoomed(3);
    irt.advance(20);
    EXPECT_EQ(irt.lostArrivals(), 0);
    EXPECT_FALSE(irt.consumeDoomed(3));
    // Strict mode expires doom rows the same way.
    InputReservationTable strict(8, 6);
    strict.markDoomed(3);
    strict.advance(4);
    EXPECT_FALSE(strict.consumeDoomed(3));
}

TEST(InputTable, ConsumeDoomedNeverMatchesReservationRow)
{
    InputReservationTable irt(32, 6);
    irt.recordReservation(0, 5, 9, kEast);
    irt.markDoomed(6);
    irt.advance(5);
    EXPECT_FALSE(irt.consumeDoomed(5));
    irt.acceptFlit(5, makeFlit(1, 0));  // still bound by its row
    irt.advance(6);
    EXPECT_TRUE(irt.consumeDoomed(6));
    EXPECT_FALSE(irt.consumeDoomed(6));  // consumed exactly once
    for (Cycle t = 7; t <= 9; ++t)
        irt.advance(t);
    const auto deps = irt.takeDepartures(9);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].flit.packet, 1);
}

TEST(InputTableDeath, DoomAndReservationCannotShareArrival)
{
    InputReservationTable doomed_first(32, 6);
    doomed_first.markDoomed(5);
    EXPECT_DEATH(doomed_first.recordReservation(0, 5, 9, kEast),
                 "second reservation for arrival cycle 5");
    InputReservationTable reserved_first(32, 6);
    reserved_first.recordReservation(0, 5, 9, kEast);
    EXPECT_DEATH(reserved_first.markDoomed(5),
                 "arrival 5 doomed but already has a row");
}

TEST(InputTableDeath, OverSubscribedDepartSlotPanics)
{
    InputReservationTable irt(32, 6);
    irt.recordReservation(0, 3, 8, kEast);
    EXPECT_DEATH(irt.recordReservation(0, 4, 8, kWest),
                 "over-subscribed");
}

TEST(InputTableDeath, PastReservationWithoutParkedFlitPanics)
{
    InputReservationTable irt(32, 6);
    irt.advance(5);
    EXPECT_DEATH(irt.recordReservation(5, 2, 9, kEast),
                 "no parked flit");
}

TEST(InputTableDeath, MissedArrivalPanicsOnExpiry)
{
    InputReservationTable irt(8, 6);
    irt.recordReservation(0, 3, 7, kEast);
    irt.advance(3);
    // The scheduled flit never arrives; sliding past cycle 3 must trip
    // the consistency check.
    EXPECT_DEATH(irt.advance(4), "never materialized");
}

TEST(InputTableDeath, UnexecutedDeparturePanicsOnExpiry)
{
    InputReservationTable irt(8, 6);
    irt.recordReservation(0, 2, 5, kEast);
    irt.advance(2);
    irt.acceptFlit(2, makeFlit(7, 0));
    for (Cycle t = 3; t <= 5; ++t)
        irt.advance(t);
    // Departure at 5 never taken.
    EXPECT_DEATH(irt.advance(6), "never executed");
}

TEST(InputTableDeath, PoolExhaustionPanics)
{
    InputReservationTable irt(32, 1);
    irt.advance(1);
    irt.acceptFlit(1, makeFlit(8, 0));
    irt.advance(2);
    EXPECT_DEATH(irt.acceptFlit(2, makeFlit(8, 1)), "pool exhausted");
}

}  // namespace
}  // namespace frfc
