/**
 * @file
 * Unit tests for the output reservation table, including the worked
 * scheduling example of paper Figure 4.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "frfc/output_table.hpp"

namespace frfc {
namespace {

constexpr auto kAny = [](Cycle) { return true; };

TEST(OutputTable, StartsIdleAndFull)
{
    OutputReservationTable ort(32, 6, 4);
    for (Cycle t = 0; t < 32; ++t) {
        EXPECT_FALSE(ort.busyAt(t));
        EXPECT_EQ(ort.freeBuffersAt(t), 6);
    }
}

TEST(OutputTable, FindsEarliestFreeCycle)
{
    OutputReservationTable ort(32, 6, 4);
    EXPECT_EQ(ort.findDeparture(1, kAny), 1);
    ort.reserve(1);
    EXPECT_EQ(ort.findDeparture(1, kAny), 2);
}

TEST(OutputTable, ReserveMarksBusyAndDecrements)
{
    OutputReservationTable ort(32, 6, 4);
    ort.reserve(5);
    EXPECT_TRUE(ort.busyAt(5));
    EXPECT_EQ(ort.freeBuffersAt(8), 6);   // before arrival downstream
    EXPECT_EQ(ort.freeBuffersAt(9), 5);   // from t_d + t_p onward
    EXPECT_EQ(ort.freeBuffersAt(31), 5);
}

TEST(OutputTable, CreditRestoresFromTimestamp)
{
    OutputReservationTable ort(32, 6, 4);
    ort.reserve(5);               // buffers -1 from cycle 9
    ort.credit(12);               // downstream departs at 12
    EXPECT_EQ(ort.freeBuffersAt(9), 5);
    EXPECT_EQ(ort.freeBuffersAt(11), 5);
    EXPECT_EQ(ort.freeBuffersAt(12), 6);  // zero turnaround
}

TEST(OutputTable, ExhaustedBuffersBlockScheduling)
{
    OutputReservationTable ort(16, 1, 2);
    const Cycle d1 = ort.findDeparture(1, kAny);
    ort.reserve(d1);
    // One buffer downstream, held indefinitely: no further departure.
    EXPECT_EQ(ort.findDeparture(1, kAny), kInvalidCycle);
    // A credit at cycle 8 frees it from then on.
    ort.credit(8);
    const Cycle d2 = ort.findDeparture(1, kAny);
    // The next flit may depart once its arrival (t_d + 2) sees the free
    // buffer: t_d >= 6.
    EXPECT_EQ(d2, 6);
}

TEST(OutputTable, RespectsSuffixAvailability)
{
    // A buffer that is free now but taken later in the window must not
    // admit a flit whose residency could overlap the shortage.
    OutputReservationTable ort(16, 2, 1);
    ort.reserve(3);  // buffers -1 from cycle 4
    ort.reserve(4);  // buffers -1 from cycle 5 => 0 free from 5 on
    EXPECT_EQ(ort.freeBuffersAt(4), 1);
    EXPECT_EQ(ort.freeBuffersAt(5), 0);
    // Even a departure at 1 (arrival 2, when a buffer is free) must be
    // rejected: from cycle 5 there would be -1 buffers.
    EXPECT_EQ(ort.findDeparture(1, kAny), kInvalidCycle);
}

TEST(OutputTable, ExtraPredicateFilters)
{
    OutputReservationTable ort(32, 6, 4);
    const Cycle d =
        ort.findDeparture(1, [](Cycle t) { return t % 2 == 0; });
    EXPECT_EQ(d, 2);
}

TEST(OutputTable, DepartureMustFitLinkLatencyInWindow)
{
    OutputReservationTable ort(8, 6, 4);
    // Window [0,7]; arrival must land inside, so t_d <= 3.
    EXPECT_EQ(ort.findDeparture(3, kAny), 3);
    EXPECT_EQ(ort.findDeparture(4, kAny), kInvalidCycle);
}

TEST(OutputTable, AdvanceSlidesWindowAndCarriesCounts)
{
    OutputReservationTable ort(16, 4, 2);
    ort.reserve(5);  // -1 from cycle 7 to the horizon
    ort.advance(10);
    EXPECT_EQ(ort.windowStart(), 10);
    EXPECT_EQ(ort.windowEnd(), 25);
    // The decrement persists into newly exposed slots.
    for (Cycle t = 10; t <= 25; ++t)
        EXPECT_EQ(ort.freeBuffersAt(t), 3) << t;
    // Busy bit expired with its cycle.
    EXPECT_FALSE(ort.busyAt(10));
}

TEST(OutputTable, CreditAfterSlideStillApplies)
{
    OutputReservationTable ort(16, 4, 2);
    ort.reserve(5);
    ort.advance(10);
    ort.credit(12);
    EXPECT_EQ(ort.freeBuffersAt(11), 3);
    EXPECT_EQ(ort.freeBuffersAt(12), 4);
}

TEST(OutputTable, LateCreditClampsToWindow)
{
    OutputReservationTable ort(16, 4, 2);
    ort.reserve(5);
    ort.advance(10);
    ort.credit(8);  // "free from 8", already in the past
    EXPECT_EQ(ort.freeBuffersAt(10), 4);
}

TEST(OutputTable, InfiniteModeIgnoresBuffers)
{
    OutputReservationTable ort(16, 0, 1, /*infinite=*/true);
    for (int i = 0; i < 10; ++i) {
        const Cycle d = ort.findDeparture(1, kAny);
        ASSERT_NE(d, kInvalidCycle);
        ort.reserve(d);
    }
    // Only channel bandwidth constrains: cycles 1..10 now busy.
    EXPECT_EQ(ort.findDeparture(1, kAny), 11);
}

/**
 * The worked example of paper Figure 4: a data flit arrives from the
 * West at cycle 9 and leaves East. Cycle 10 is busy; at cycle 11 there
 * is no free buffer on the next node; the flit is scheduled to leave at
 * cycle 12, the channel is marked busy and the downstream buffer count
 * decremented from then on.
 *
 * (The paper's figure displays the buffer state at t_d as the state at
 * t_d + t_p — see its footnote 5; we model the propagation delay
 * explicitly, so the example is reproduced with t_p = 1 and the
 * buffer-availability row shifted accordingly.)
 */
TEST(OutputTable, PaperFigure4Example)
{
    OutputReservationTable ort(32, 2, /*link latency=*/1);

    // Prior traffic: the channel is busy during cycle 10, and both of
    // the next node's buffers are occupied until a credit frees one
    // from cycle 13 onward.
    ort.reserve(3);   // takes one downstream buffer from cycle 4
    ort.reserve(10);  // channel busy at 10; second buffer from cycle 11
    ort.credit(13);   // the first buffer frees at cycle 13

    // Departure 11 would land downstream at 12, when no buffer is free.
    EXPECT_EQ(ort.freeBuffersAt(12), 0);
    EXPECT_EQ(ort.freeBuffersAt(13), 1);

    // The flit arriving at cycle 9: cycle 10 is busy, cycle 11 fails
    // the buffer check, so the earliest departure is cycle 12 — exactly
    // the figure's outcome.
    const Cycle depart =
        ort.findDeparture(10, [](Cycle) { return true; });
    EXPECT_EQ(depart, 12);

    ort.reserve(depart);
    EXPECT_TRUE(ort.busyAt(12));
    EXPECT_EQ(ort.freeBuffersAt(13), 0);  // decremented from t_d + t_p
}

/**
 * Naive reference for findDeparture, built only on the public
 * inspection accessors: for each candidate departure, re-check the
 * buffer suffix cycle by cycle (skipped for an infinite-buffer table,
 * whose departures may use the whole window). The production
 * implementation finds the frontier in one backward walk over the
 * stored steps; this scan is the specification it must match.
 */
template <typename Predicate>
Cycle
referenceFindDeparture(const OutputReservationTable& ort,
                       Cycle min_depart, Predicate&& extra, int min_free,
                       bool infinite = false)
{
    const Cycle lo = std::max(min_depart, ort.windowStart());
    const Cycle hi = ort.windowEnd() - (infinite ? 0 : ort.linkLatency());
    for (Cycle t = lo; t <= hi; ++t) {
        if (ort.busyAt(t))
            continue;
        bool feasible = true;
        for (Cycle a = t + ort.linkLatency();
             !infinite && a <= ort.windowEnd(); ++a) {
            if (ort.freeBuffersAt(a) < min_free) {
                feasible = false;
                break;
            }
        }
        if (!feasible)
            continue;
        if (!extra(t))
            continue;
        return t;
    }
    return kInvalidCycle;
}

/** Table shape for the randomized reference checks. */
struct Shape
{
    int horizon;
    int buffers;
    Cycle latency;
    bool infinite = false;
};

/**
 * Property test for the backward-walk frontier: drive randomized
 * reserve/credit/advance sequences (valid by construction — every
 * credit pairs with an outstanding reservation at or after its
 * downstream arrival, so the table's own overflow assertions stay
 * live) and require findDeparture to agree with the reference scan
 * for random (min_depart, min_free in {0, 1, 2}) queries after every
 * mutation, on finite tables and on an infinite-buffer one.
 */
TEST(OutputTableProperty, FastPathMatchesReferenceScan)
{
    for (const Shape& shape :
         {Shape{8, 2, 1}, Shape{16, 3, 2}, Shape{32, 6, 4},
          Shape{64, 4, 3}, Shape{16, 0, 2, /*infinite=*/true}}) {
        Rng rng(20260806,
                static_cast<std::uint64_t>(shape.horizon));
        OutputReservationTable ort(shape.horizon, shape.buffers,
                                   shape.latency, shape.infinite);
        Cycle now = 0;
        std::vector<Cycle> outstanding;  // arrival cycles awaiting credit
        for (int step = 0; step < 600; ++step) {
            const std::uint64_t op = rng.nextBounded(4);
            if (op == 0) {
                // Slide the window forward a little.
                now += rng.nextRange(0, 2);
                ort.advance(now);
                // Credits can no longer land before the window.
                for (Cycle& a : outstanding)
                    a = std::max(a, ort.windowStart());
            } else if (op <= 2) {
                // Reserve wherever the scheduler itself would.
                const Cycle min_depart =
                    now + rng.nextRange(0, shape.horizon / 2);
                const Cycle d = ort.findDeparture(min_depart, kAny);
                if (d != kInvalidCycle) {
                    ort.reserve(d);
                    outstanding.push_back(d + shape.latency);
                }
            } else if (!outstanding.empty()) {
                // Credit a random outstanding reservation at or after
                // its downstream arrival.
                const std::uint64_t pick =
                    rng.nextBounded(outstanding.size());
                const Cycle arrival = outstanding[pick];
                const Cycle from = std::min(
                    arrival + rng.nextRange(0, 4), ort.windowEnd());
                ort.credit(from);
                outstanding[pick] = outstanding.back();
                outstanding.pop_back();
            }
            // Cross-check several queries against the reference.
            for (int q = 0; q < 3; ++q) {
                const Cycle min_depart =
                    now + rng.nextRange(0, shape.horizon);
                const int min_free =
                    static_cast<int>(rng.nextRange(0, 2));
                const bool odd_only = rng.nextBool(0.3);
                auto extra = [odd_only](Cycle t) {
                    return !odd_only || t % 2 != 0;
                };
                ASSERT_EQ(ort.findDeparture(min_depart, extra, min_free),
                          referenceFindDeparture(ort, min_depart, extra,
                                                 min_free, shape.infinite))
                    << "horizon " << shape.horizon << " step " << step
                    << " min_depart " << min_depart << " min_free "
                    << min_free;
            }
        }
    }
}

/**
 * Naive reference for nextBusyCycleAfter: linear busyAt scan. The
 * production path answers from word scans over the packed busy bitmap;
 * this is the specification it must match.
 */
Cycle
referenceNextBusy(const OutputReservationTable& ort, Cycle after)
{
    for (Cycle t = std::max(after + 1, ort.windowStart());
         t <= ort.windowEnd(); ++t) {
        if (ort.busyAt(t))
            return t;
    }
    return kInvalidCycle;
}

/**
 * Independent model of the free-buffer step function: the pool size
 * plus every ±1 event timestamped at or before t. Events that leave
 * the window fold into `base` (every query is inside the window).
 */
struct ReferenceCounts
{
    int base;
    std::vector<std::pair<Cycle, int>> events;

    void
    slide(Cycle start)
    {
        std::erase_if(events, [&](const std::pair<Cycle, int>& e) {
            if (e.first >= start)
                return false;
            base += e.second;
            return true;
        });
    }
    int
    at(Cycle t) const
    {
        int free = base;
        for (const auto& [cycle, delta] : events)
            free += cycle <= t ? delta : 0;
        return free;
    }
};

/**
 * Long-run property test for the bitmap word scans and the step
 * storage (DESIGN.md §12): >= 10k random reserve/credit/advance steps
 * per table shape — including non-power-of-two horizons, where the
 * wheel is wider than the window and slides across its seam
 * repeatedly, and a horizon past one 64-bit word — cross-checking
 * findDeparture (min_free in {0, 1, 2}) and nextBusyCycleAfter against
 * the linear references, and freeBuffersAt against an event-list model
 * that shares no code with the table, after every mutation.
 */
TEST(OutputTableProperty, BitmapScansMatchReferenceOverLongRuns)
{
    // 13 -> 16-slot wheel and 48 -> 64-slot wheel exercise the
    // out-of-window slot band; 16 and 64 exercise the exact-fit wheel
    // where the expiring slot IS the newly exposed slot.
    for (const Shape& shape :
         {Shape{13, 2, 1}, Shape{16, 3, 2}, Shape{48, 4, 3},
          Shape{64, 6, 4}, Shape{100, 5, 3},
          Shape{13, 0, 1, /*infinite=*/true}}) {
        Rng rng(20260807,
                static_cast<std::uint64_t>(shape.horizon));
        OutputReservationTable ort(shape.horizon, shape.buffers,
                                   shape.latency, shape.infinite);
        ReferenceCounts model{shape.buffers, {}};
        Cycle now = 0;
        std::vector<Cycle> outstanding;  // arrival cycles awaiting credit
        for (int step = 0; step < 10000; ++step) {
            const std::uint64_t op = rng.nextBounded(5);
            if (op == 0) {
                now += rng.nextRange(0, 3);
                ort.advance(now);
                for (Cycle& a : outstanding)
                    a = std::max(a, ort.windowStart());
                model.slide(ort.windowStart());
            } else if (op == 4) {
                // Occasionally leap several windows ahead so every
                // slot of the wheel expires at once.
                now += rng.nextRange(shape.horizon,
                                     3 * shape.horizon);
                ort.advance(now);
                for (Cycle& a : outstanding)
                    a = std::max(a, ort.windowStart());
                model.slide(ort.windowStart());
            } else if (op <= 2) {
                const Cycle min_depart =
                    now + rng.nextRange(0, shape.horizon / 2);
                const Cycle d = ort.findDeparture(min_depart, kAny);
                if (d != kInvalidCycle) {
                    ort.reserve(d);
                    outstanding.push_back(d + shape.latency);
                    model.events.emplace_back(d + shape.latency, -1);
                }
            } else if (!outstanding.empty()) {
                const std::uint64_t pick =
                    rng.nextBounded(outstanding.size());
                const Cycle arrival = outstanding[pick];
                const Cycle from = std::min(
                    arrival + rng.nextRange(0, 4), ort.windowEnd());
                ort.credit(from);
                model.events.emplace_back(std::max(from, now), +1);
                outstanding[pick] = outstanding.back();
                outstanding.pop_back();
            }
            const Cycle min_depart =
                now + rng.nextRange(0, shape.horizon);
            const int min_free = static_cast<int>(rng.nextRange(0, 2));
            ASSERT_EQ(ort.findDeparture(min_depart, kAny, min_free),
                      referenceFindDeparture(ort, min_depart, kAny,
                                             min_free, shape.infinite))
                << "horizon " << shape.horizon << " step " << step
                << " min_free " << min_free;
            if (!shape.infinite) {
                const Cycle t = now + rng.nextRange(0, shape.horizon - 1);
                ASSERT_EQ(ort.freeBuffersAt(t), model.at(t))
                    << "horizon " << shape.horizon << " step " << step
                    << " cycle " << t;
            }
            const Cycle after =
                now + rng.nextRange(0, shape.horizon) - 1;
            ASSERT_EQ(ort.nextBusyCycleAfter(after),
                      referenceNextBusy(ort, after))
                << "horizon " << shape.horizon << " step " << step
                << " after " << after;
        }
    }
}

/**
 * Wheel-seam edge cases with a non-power-of-two horizon (13 cycles in
 * a 16-slot wheel): reservations and credits that straddle the point
 * where cycle indices wrap must behave exactly as in the middle of the
 * window, and slots leaving the window must drop their steps before
 * they are re-exposed.
 */
TEST(OutputTable, RingWraparoundAtHorizonBoundaries)
{
    OutputReservationTable ort(13, 3, 1);
    // Park the window so [12, 24] straddles the 16-slot seam.
    ort.advance(12);
    EXPECT_EQ(ort.windowEnd(), 24);
    ort.reserve(15);  // slot 15, last before the seam
    ort.reserve(16);  // slot 0, first after it
    EXPECT_TRUE(ort.busyAt(15));
    EXPECT_TRUE(ort.busyAt(16));
    EXPECT_EQ(ort.freeBuffersAt(15), 3);
    EXPECT_EQ(ort.freeBuffersAt(16), 2);  // 15's arrival
    EXPECT_EQ(ort.freeBuffersAt(17), 1);  // plus 16's
    EXPECT_EQ(ort.findDeparture(15, kAny), 17);
    EXPECT_EQ(ort.nextBusyCycleAfter(14), 15);
    EXPECT_EQ(ort.nextBusyCycleAfter(15), 16);
    EXPECT_EQ(ort.nextBusyCycleAfter(16), kInvalidCycle);
    // Credits across the seam restore the suffix exactly: the flit
    // arriving at 16 departs downstream at 17, the one arriving at 17
    // departs at 20.
    ort.credit(17);
    ort.credit(20);
    for (Cycle t = 17; t <= 19; ++t)
        EXPECT_EQ(ort.freeBuffersAt(t), 2) << t;
    for (Cycle t = 20; t <= 24; ++t)
        EXPECT_EQ(ort.freeBuffersAt(t), 3) << t;
    // Slide past both reservations; the busy bits expire and the
    // newly exposed cycles inherit the final count across the seam.
    ort.advance(17);
    EXPECT_FALSE(ort.busyAt(17));
    for (Cycle t = 20; t <= 29; ++t)
        EXPECT_EQ(ort.freeBuffersAt(t), 3) << t;
    EXPECT_EQ(ort.reservedCount(), 0);
    EXPECT_EQ(ort.findDeparture(17, kAny), 17);
}

/**
 * Exact-fit wheel (power-of-two horizon): when the window slides one
 * cycle, the slot that expires is the same slot the window re-exposes
 * at its far end. The expired busy bit and step must be wiped so the
 * re-exposed cycle is idle and carries the horizon-end count.
 */
TEST(OutputTable, ExpiredSlotIsReexposedSlotOnPow2Horizon)
{
    OutputReservationTable ort(16, 4, 2);
    ort.reserve(0);   // busy at the very slot about to expire
    ort.reserve(3);   // holds a buffer through the horizon
    EXPECT_EQ(ort.freeBuffersAt(15), 2);
    ort.advance(1);
    // Window now [1, 16]; slot index(0) == index(16).
    EXPECT_FALSE(ort.busyAt(16));
    EXPECT_EQ(ort.freeBuffersAt(16), 2);  // inherited, not reset
    EXPECT_EQ(ort.reservedCount(), 1);
    EXPECT_EQ(ort.nextBusyCycleAfter(1), 3);
}

TEST(OutputTableDeath, DoubleReserveSameCyclePanics)
{
    OutputReservationTable ort(16, 4, 2);
    ort.reserve(5);
    EXPECT_DEATH(ort.reserve(5), "double reservation");
}

TEST(OutputTableDeath, CreditOverflowPanics)
{
    OutputReservationTable ort(16, 4, 2);
    EXPECT_DEATH(ort.credit(3), "credit overflow");
}

TEST(OutputTableDeath, ReserveWithoutBufferMidWindowPanics)
{
    // One buffer: taken from cycle 3 and credited back from cycle 8, so
    // the horizon end has a free buffer but [3, 7] has none. A
    // departure at 0 (arrival 2) would need one through that gap.
    OutputReservationTable ort(16, 1, 2);
    ort.reserve(1);
    ort.credit(8);
    EXPECT_EQ(ort.freeBuffersAt(15), 1);
    EXPECT_EQ(ort.freeBuffersAt(5), 0);
    EXPECT_DEATH(ort.reserve(0), "reserving without a free buffer at 7");
}

TEST(OutputTableDeath, CreditOverflowOnlyMidWindowPanics)
{
    // A reservation arriving at 12 leaves the horizon end one below
    // capacity; a credit from 5 fits there but overflows [5, 11], and
    // the report names the earliest overflowing cycle.
    OutputReservationTable ort(16, 2, 2);
    ort.reserve(10);
    EXPECT_EQ(ort.freeBuffersAt(15), 1);
    EXPECT_DEATH(ort.credit(5), "credit overflow at cycle 5");
}

TEST(OutputTableDeath, WindowNeverMovesBackwards)
{
    OutputReservationTable ort(16, 4, 2);
    ort.advance(10);
    EXPECT_DEATH(ort.advance(5), "backwards");
}

}  // namespace
}  // namespace frfc
