/**
 * @file
 * Output reservation table (paper Figure 4a/4b).
 *
 * For every output channel, the table records — for each cycle in the
 * window [now, now + horizon - 1] — whether the channel is reserved
 * (busy) and how many flit buffers are free at the far end of the link.
 *
 * The free-buffer count is a step function of time, and the table
 * stores it as its steps: free_end_ is the count at windowEnd(), and
 * step_[t] = free(t) - free(t - 1) is the +1/-1 events timestamped at
 * t. Nothing is scheduled past the horizon, so the count is constant
 * there: every slot outside the window holds a zero step, and sliding
 * the window only zeroes the expired slots. Any count is recovered by
 * walking the steps backward from windowEnd(); a bitmap of the nonzero
 * steps lets the walk jump from one step to the next, so it costs
 * O(horizon / 64 + steps crossed) rather than a visit per cycle.
 *
 * Data layout (DESIGN.md §12): the wheel holds the smallest power of
 * two >= horizon slots so cycle -> slot is a single mask (`t & mask_`,
 * no division), and channel-busy state and the nonzero steps are packed
 * uint64_t bitmaps so the window scans behind findDeparture(),
 * nextBusyCycleAfter() and the free-count walk run a word at a time
 * (countr_zero / countl_zero over masked words) instead of a slot at a
 * time.
 *
 * Reserving a departure at t_d marks the channel busy during t_d and
 * takes one free buffer from t_d + t_p (arrival downstream) onward: the
 * flit holds a downstream buffer from its arrival until the downstream
 * scheduler fixes its own departure. The downstream input scheduler
 * then returns a timestamped credit that gives the buffer back from
 * that departure cycle onward — this advance credit return is what
 * gives flit-reservation flow control its zero buffer-turnaround time.
 */

#ifndef FRFC_FRFC_OUTPUT_TABLE_HPP
#define FRFC_FRFC_OUTPUT_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/validator.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "stats/time_average.hpp"

namespace frfc {

/** Time-indexed channel and downstream-buffer reservations. */
class OutputReservationTable
{
  public:
    /**
     * @param horizon            scheduling horizon s in cycles
     * @param downstream_buffers buffer pool size at the far end
     * @param link_latency       data propagation delay t_p of this link
     * @param infinite_buffers   far end never runs out (ejection port)
     */
    OutputReservationTable(int horizon, int downstream_buffers,
                           Cycle link_latency,
                           bool infinite_buffers = false);

    /** Slide the window so it starts at @p now. */
    void advance(Cycle now);

    /**
     * Earliest legal departure time t_d >= @p min_depart such that the
     * channel is free at t_d, at least @p min_free downstream buffers
     * are free for every cycle in [t_d + link latency, horizon end],
     * and @p extra(t_d) holds (the input scheduler's
     * one-departure-per-cycle constraint). min_free > 1 implements the
     * reserved-buffer deadlock-avoidance rule used by wide-control-flit
     * mode (see FrRouter). Returns kInvalidCycle if no cycle in the
     * window qualifies.
     *
     * Buffer availability is a suffix-minimum: once the earliest
     * feasible arrival is known, everything later is feasible too. The
     * frontier is where a walk backward from windowEnd() first sees
     * fewer than min_free buffers; past it, free channel cycles come
     * from the busy bitmap a word at a time.
     */
    template <typename Predicate>
    Cycle
    findDeparture(Cycle min_depart, Predicate&& extra,
                  int min_free = 1) const
    {
        const Cycle lo = std::max(min_depart, window_start_);
        // The downstream arrival must be verifiable inside the window.
        const Cycle hi = windowEnd() - (infinite_ ? 0 : link_latency_);
        if (lo > hi)
            return kInvalidCycle;

        Cycle first = lo;
        if (!infinite_) {
            const Cycle short_at = walkFree(
                lo + link_latency_, [min_free](Cycle, Cycle, int free) {
                    return free >= min_free;
                });
            if (short_at == windowEnd())
                return kInvalidCycle;  // no feasible arrival at all
            if (short_at != kInvalidCycle)
                first = short_at + 1 - link_latency_;
        }
        for (Cycle t = scanWindow(first, hi, /*want_busy=*/false);
             t != kInvalidCycle;
             t = scanWindow(t + 1, hi, /*want_busy=*/false)) {
            if (extra(t))
                return t;
        }
        return kInvalidCycle;
    }

    /** Commit a reservation found by findDeparture(). */
    void reserve(Cycle depart);

    /**
     * Commit a speculative wire-only reservation (fr.speculative):
     * marks the channel busy at @p depart but leaves the downstream
     * free-buffer counts — and reservesTotal() — untouched, because no
     * first-hop buffer is being claimed. The flit gambles on finding a
     * pool buffer on arrival; the first-hop router never returns an
     * advance credit for it, so the credit-conservation identity is
     * unaffected. Found with findDeparture(..., min_free = 0).
     */
    void reserveWire(Cycle depart);

    /**
     * Apply a downstream credit: one buffer becomes free from
     * @p free_from onward (clamped into the window). A credit that
     * would raise any count above the pool capacity is a duplicated or
     * misrouted credit: reported as `credit.overflow` and refused.
     */
    void credit(Cycle free_from);

    /**
     * Attach the run's validator: protocol violations (double-booked
     * cycles, credit overflow) then produce structured diagnostics —
     * and, when the validator is not failing fast, leave the table
     * uncorrupted — instead of panicking outright. @p node / @p port
     * locate this table in the diagnostics.
     */
    void
    setValidator(Validator* validator, std::string owner, PortId port)
    {
        validator_ = validator;
        owner_ = std::move(owner);
        port_ = port;
    }

    /**
     * Credit-conservation audit: every reserve() takes one downstream
     * buffer from free_end_ and every credit() returns one, so
     *   free at windowEnd() == capacity - (reserves - credits),
     * i.e. credits outstanding plus free buffers equals the pool size
     * (the Backpressure-style conservation argument). Paranoid runs
     * also check the step storage that identity rests on: every step
     * outside the window is zero, the nonzero-step bitmap matches the
     * steps, and every count inside the window lies in [0, capacity].
     * Reports `credit.conservation`; no-op on infinite tables.
     */
    void auditCreditConservation(Cycle now) const;

    /** @{ Lifetime reserve()/credit() totals (conservation audits). */
    std::int64_t reservesTotal() const { return reserves_total_; }
    std::int64_t creditsTotal() const { return credits_total_; }
    /** @} */

    /**
     * True if no departure at or after @p min_depart can fit in the
     * current window — findDeparture() is doomed regardless of channel
     * or buffer state. Distinguishes horizon exhaustion from
     * contention-based denials in the metrics.
     */
    bool
    beyondHorizon(Cycle min_depart) const
    {
        return std::max(min_depart, window_start_)
            > windowEnd() - (infinite_ ? 0 : link_latency_);
    }

    /** @{ Inspection (tests, stats). */
    bool
    busyAt(Cycle t) const
    {
        return bitAt(busy_words_, index(checked(t)));
    }
    int
    freeBuffersAt(Cycle t) const
    {
        int at_t = 0;
        walkFree(checked(t), [&at_t](Cycle, Cycle, int free) {
            at_t = free;
            return true;
        });
        return at_t;
    }
    Cycle windowStart() const { return window_start_; }
    Cycle windowEnd() const { return window_start_ + horizon_ - 1; }
    int horizon() const { return horizon_; }
    Cycle linkLatency() const { return link_latency_; }
    /** Reserved (busy) cycles currently inside the window. */
    int reservedCount() const { return reserved_; }

    /**
     * Earliest reserved (busy) cycle strictly after @p after, or
     * kInvalidCycle if none. Drives the router's quiescence: departures
     * are the only time-driven output events, so a router with no
     * queued control work can sleep until this cycle. Busy cycles at or
     * before @p after are deliberately skipped — their expiry is
     * absorbed the next time advance() runs, with exact occupancy
     * timestamps, so they never require a wake of their own.
     */
    Cycle
    nextBusyCycleAfter(Cycle after) const
    {
        if (reserved_ == 0)
            return kInvalidCycle;
        const Cycle start = std::max(window_start_, after + 1);
        const Cycle t = scanWindow(start, windowEnd(), /*want_busy=*/true);
        if (t == kInvalidCycle && start == window_start_)
            panic("reservedCount out of sync with busy bits");
        return t;  // invalid: only already-expiring cycles remain
    }

    /**
     * Time-average of reservedCount(), maintained event-driven with
     * exact timestamps by reserve() and advance() — correct under
     * kernels that tick the owner only when something happens, provided
     * advance() has been run past every expired cycle before the
     * instrument is read (see FrRouter::syncMetrics).
     */
    TimeAverage& occupancy() { return occupancy_; }
    /** @} */

  private:
    static constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

    /** Smallest power of two >= @p horizon (wheel capacity). */
    static std::size_t
    ringSlotsFor(int horizon)
    {
        return std::bit_ceil(static_cast<std::size_t>(horizon));
    }

    std::size_t
    index(Cycle t) const
    {
        return static_cast<std::size_t>(t) & mask_;
    }

    Cycle
    checked(Cycle t) const
    {
        FRFC_ASSERT(t >= window_start_ && t <= windowEnd(),
                    "cycle ", t, " outside reservation window [",
                    window_start_, ", ", windowEnd(), "]");
        return t;
    }

    /** @{ Packed slot bitmaps; bit position == slot index. */
    static bool
    bitAt(const std::vector<std::uint64_t>& words, std::size_t pos)
    {
        return (words[pos >> 6] >> (pos & 63)) & 1u;
    }
    static void
    setBit(std::vector<std::uint64_t>& words, std::size_t pos, bool on)
    {
        const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
        words[pos >> 6] = on ? words[pos >> 6] | bit
                             : words[pos >> 6] & ~bit;
    }
    /** @} */

    /** Add @p delta to the step at slot @p pos, keeping its bit. */
    void
    addStep(std::size_t pos, int delta)
    {
        step_[pos] += delta;
        setBit(step_words_, pos, step_[pos] != 0);
    }

    /**
     * First cycle in [@p from, @p to] whose busy bit equals
     * @p want_busy, or kInvalidCycle. The cycle range maps to at most
     * two contiguous bit spans (split at the ring seam); each span is
     * scanned a word at a time with countr_zero, so the common case is
     * one masked load per call rather than a per-cycle branch.
     */
    Cycle
    scanWindow(Cycle from, Cycle to, bool want_busy) const
    {
        Cycle cursor = from;
        std::size_t pos = index(from);
        while (cursor <= to) {
            const std::size_t span =
                std::min(static_cast<std::size_t>(to - cursor) + 1,
                         ring_size_ - pos);
            const Cycle hit = scanSpan(pos, span, want_busy);
            if (hit >= 0)
                return cursor + hit;
            cursor += static_cast<Cycle>(span);
            pos = 0;
        }
        return kInvalidCycle;
    }

    /** Offset of the first matching bit in [pos, pos + span), or -1. */
    Cycle
    scanSpan(std::size_t pos, std::size_t span, bool want_busy) const
    {
        const std::uint64_t flip = want_busy ? 0 : kAllOnes;
        const std::size_t end = pos + span;
        std::size_t w = pos >> 6;
        std::uint64_t word =
            (busy_words_[w] ^ flip) & (kAllOnes << (pos & 63));
        for (;;) {
            const std::size_t word_end = (w + 1) << 6;
            if (word_end > end)
                word &= kAllOnes >> (word_end - end);
            if (word != 0) {
                const std::size_t hit =
                    (w << 6)
                    + static_cast<std::size_t>(std::countr_zero(word));
                return static_cast<Cycle>(hit)
                    - static_cast<Cycle>(pos);
            }
            if (word_end >= end)
                return -1;
            ++w;
            word = busy_words_[w] ^ flip;
        }
    }

    /**
     * Walk the free-buffer count backward from windowEnd() down to
     * @p stop one constant run at a time: @p visit(lo, hi, free) sees
     * each maximal [lo, hi] within [stop, windowEnd()] on which the
     * count is `free`, latest run first. Returns the `hi` of the run
     * at which @p visit returned false (ending the walk), or
     * kInvalidCycle if it accepted every run. The count changes only
     * across a nonzero step t in (stop, windowEnd()], where free(t - 1)
     * = free(t) - step(t), so only the step bitmap's set bits are
     * visited: scanWindow()'s seam-split word scan, run backward.
     */
    template <typename Visit>
    Cycle
    walkFree(Cycle stop, Visit&& visit) const
    {
        int free = free_end_;
        Cycle hi = windowEnd();
        Cycle cursor = hi;  // the cycle at slot `pos`
        std::size_t pos = index(hi);
        while (cursor > stop) {
            const std::size_t span = std::min(
                static_cast<std::size_t>(cursor - stop), pos + 1);
            const std::size_t begin = pos + 1 - span;
            std::size_t w = pos >> 6;
            std::uint64_t word =
                step_words_[w] & (kAllOnes >> (63 - (pos & 63)));
            for (;;) {
                const std::size_t base = w << 6;
                if (base < begin)
                    word &= kAllOnes << (begin - base);
                while (word != 0) {
                    const int bit = 63 - std::countl_zero(word);
                    const std::size_t slot = base + bit;
                    const Cycle t = cursor - static_cast<Cycle>(pos - slot);
                    if (!visit(t, hi, free))
                        return hi;
                    free -= step_[slot];
                    hi = t - 1;
                    word &= ~(std::uint64_t{1} << bit);
                }
                if (base <= begin)
                    break;
                word = step_words_[--w];
            }
            cursor -= static_cast<Cycle>(span);
            pos = ring_size_ - 1;
        }
        return visit(stop, hi, free) ? kInvalidCycle : hi;
    }

    /**
     * Mark @p depart busy (shared by reserve() and reserveWire()).
     * Returns false, leaving the table untouched, when the cycle is
     * already booked and a validator took the report.
     */
    bool book(Cycle depart, const char* kind);

    int horizon_;
    int buffers_;
    Cycle link_latency_;
    bool infinite_;
    /** Wheel capacity (power of two >= horizon_) and its index mask. */
    std::size_t ring_size_;
    std::size_t mask_;
    /** Sanitizer context; checks are skipped while null. The pointer
     *  is shared, so the scratch copies made by all-or-nothing
     *  scheduling keep reporting against the same validator. */
    Validator* validator_ = nullptr;
    std::string owner_;
    PortId port_ = kInvalidPort;
    std::int64_t reserves_total_ = 0;
    std::int64_t credits_total_ = 0;
    Cycle window_start_ = 0;
    int reserved_ = 0;  ///< busy slots in the window (metrics)
    /** Reserved-count time-average (see occupancy()). */
    TimeAverage occupancy_;
    /** Channel-busy bitmap, one bit per wheel slot. Bits outside the
     *  live window are always clear (advance() clears on expiry). */
    std::vector<std::uint64_t> busy_words_;
    /** Free downstream buffers at windowEnd() (and past it). */
    int free_end_;
    /** step_[index(t)] = free(t) - free(t - 1); zero outside the
     *  window. The step at window_start_ itself is never read. */
    std::vector<int> step_;
    /** One bit per wheel slot, set exactly when its step is nonzero. */
    std::vector<std::uint64_t> step_words_;
};

}  // namespace frfc

#endif  // FRFC_FRFC_OUTPUT_TABLE_HPP
