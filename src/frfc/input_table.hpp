/**
 * @file
 * Input reservation table and buffer pool (paper Figure 4c).
 *
 * The input scheduler tracks, per input port, the scheduled movements of
 * every data flit: which cycle it arrives, which cycle it departs, and
 * through which output. Buffers come from a per-input shared pool and —
 * following Section 5 ("Buffer allocation at scheduling time versus
 * just before arrival") — a concrete buffer is bound only when the flit
 * arrives, which provably avoids the buffer-interchange problem.
 *
 * Data flits that arrive before their control flit has been processed
 * (possible when one control flit leads several data flits, or under
 * control-network contention) are parked in the pool on a schedule
 * list keyed by arrival time, exactly as Section 3 prescribes.
 */

#ifndef FRFC_FRFC_INPUT_TABLE_HPP
#define FRFC_FRFC_INPUT_TABLE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "check/validator.hpp"
#include "common/types.hpp"
#include "proto/buffer_pool.hpp"
#include "proto/flit.hpp"
#include "stats/metrics.hpp"

namespace frfc {

/** Time-indexed per-input schedule of data flit movements. */
class InputReservationTable
{
  public:
    /** Max simultaneous departures per cycle (footnote 7 extension). */
    static constexpr int kMaxSpeedup = 4;

    /**
     * @param horizon  scheduling horizon s in cycles
     * @param buffers  flit buffers in this input's pool (b_d)
     * @param speedup  departures allowed per cycle (1 = paper baseline;
     *                 more models the multi-ported buffer of footnote 7)
     */
    InputReservationTable(int horizon, int buffers, int speedup = 1);

    /** The registry may hold pointers to this table's instrument
     *  members (registerMetrics); copying or moving would dangle them. */
    InputReservationTable(const InputReservationTable&) = delete;
    InputReservationTable& operator=(const InputReservationTable&) =
        delete;

    /**
     * Publish this table's instruments under `<prefix>.`: the bypasses /
     * parked / lost_arrivals counters and the pool-occupancy
     * time-average are attached to @p reg, which observes them at
     * snapshot time (the storage stays in this table). Call at most
     * once, right after construction.
     */
    void registerMetrics(MetricRegistry& reg, const std::string& prefix);

    /** Slide the window so it starts at @p now. */
    void advance(Cycle now);

    /** True if another departure can be scheduled during cycle @p t. */
    bool departSlotFree(Cycle t) const;

    /**
     * Record a committed reservation: the data flit arriving at
     * @p arrival leaves via @p out at @p depart. If the flit is already
     * parked (arrival < now, or == now with the flit already accepted),
     * it is bound immediately; otherwise the arrival row is annotated
     * and binding happens when the flit shows up.
     */
    void recordReservation(Cycle now, Cycle arrival, Cycle depart,
                           PortId out);

    /** Accept a data flit arriving from the link during cycle @p now. */
    void acceptFlit(Cycle now, const Flit& flit);

    /** A data flit leaving the router this cycle. */
    struct Departure
    {
        PortId out = kInvalidPort;
        Flit flit;
        bool bypass = false;  ///< spent the minimum one cycle here
    };

    /** Pop all departures scheduled for cycle @p now. */
    std::vector<Departure> takeDepartures(Cycle now);

    /** takeDepartures() into a reusable scratch buffer (cleared first)
     *  — the router's per-tick path, free of allocation churn. */
    void takeDeparturesInto(Cycle now, std::vector<Departure>& out);

    /**
     * Tolerate lost data flits (Section 5 error recovery): a scheduled
     * arrival that never materializes voids its departure entry — the
     * reserved channel cycle passes idle and, because the advance
     * credit already restored the buffer count from the departure
     * cycle, no buffers leak and no links stall. Without this, a
     * missed arrival is an invariant violation and panics.
     */
    void setFaultTolerant(bool on) { fault_tolerant_ = on; }

    /** Scheduled arrivals that never materialized (fault mode). */
    std::int64_t lostArrivals() const { return lost_arrivals_.value(); }

    /**
     * Doom the data arrival scheduled for cycle @p arrival: its control
     * worm was killed by fault injection before this router ever
     * processed it, so no reservation row exists — but the upstream
     * scheduler will still fire the flit onto the wire. The router
     * discards a doomed arrival before acceptFlit() (the buffer credit
     * was already returned when the worm died). The mark is an arrival
     * row with no departure; one that never materializes (the data flit
     * was dropped in flight as well) expires silently as the window
     * slides past.
     */
    void markDoomed(Cycle arrival);

    /** Consume a doomed mark for an arrival at @p now, if present
     *  (never a reservation row). */
    bool consumeDoomed(Cycle now);

    /**
     * Free the parked flit that arrived at @p t (its killed control
     * worm carried the only reservation that could ever claim it).
     * Returns false when no such flit is parked.
     */
    bool discardParked(Cycle now, Cycle t);

    /** @{ Speculative occupancy (fr.speculative; kLocal input only). */
    bool hasSpecHeld() const { return spec_held_ != 0; }

    /**
     * Reclaim the lowest-id buffer held by a speculative flit for an
     * arriving reserved flit: a parked speculative flit is simply
     * freed; a bound one also voids its departure entry (the reserved
     * output cycle passes idle and the next hop's lost-arrival
     * machinery reconciles, exactly as for an in-flight drop). Returns
     * the evicted packet's id, or kInvalidPacket when nothing
     * speculative is held — the caller treats that as a broken
     * admission invariant.
     */
    PacketId evictOneSpec(Cycle now);

    /** Paranoid check: every spec-held buffer is pool-allocated.
     *  Reports `spec.held-not-allocated`. */
    void auditSpecHeld(Cycle now) const;
    /** @} */

    /** True if an unscheduled flit that arrived at @p t is parked. */
    bool
    parkedAt(Cycle t) const
    {
        for (const ParkedFlit& p : parked_)
            if (p.arrival == t)
                return true;
        return false;
    }

    /**
     * Attach the run's validator: protocol violations (over-subscribed
     * departure slots, double-booked arrival rows, pool exhaustion on
     * arrival) then produce structured diagnostics — and, when the
     * validator is not failing fast, leave the table uncorrupted —
     * instead of panicking outright.
     */
    void
    setValidator(Validator* validator, std::string owner, PortId port)
    {
        validator_ = validator;
        owner_ = std::move(owner);
        port_ = port;
    }

    /**
     * Paranoid orphan scan: a headerless data flit parked more than
     * 4 x horizon cycles can no longer be claimed by any in-flight
     * control flit (reservations reach at most one horizon ahead) — it
     * is steering state that leaked. Reports `data.orphan` per stuck
     * flit.
     */
    void auditOrphans(Cycle now) const;

    /** @{ Statistics. */
    const BufferPool& pool() const { return pool_; }
    int parkedCount() const { return static_cast<int>(parked_.size()); }
    std::int64_t bypasses() const { return bypasses_.value(); }
    std::int64_t parkedTotal() const { return parked_total_.value(); }
    /** @} */

  private:
    struct ArrivalSlot
    {
        Cycle cycle = kInvalidCycle;  ///< tag; valid when == slot time
        Cycle depart = kInvalidCycle;  ///< kInvalidCycle: doom row
        PortId out = kInvalidPort;
    };

    struct DepartEntry
    {
        PortId out = kInvalidPort;
        Cycle arrival = kInvalidCycle;  ///< links back to the flit
        BufferId buffer = kInvalidBuffer;
        bool voided = false;  ///< flit lost; slot passes idle
    };

    struct DepartSlot
    {
        Cycle cycle = kInvalidCycle;
        int count = 0;
        std::array<DepartEntry, kMaxSpeedup> entries;
    };

    /** Schedule-list entry: a data flit that beat its control flit. */
    struct ParkedFlit
    {
        Cycle arrival = kInvalidCycle;
        BufferId buffer = kInvalidBuffer;
    };

    /** Rows are tag-checked (slot.cycle == t), so a power-of-two ring
     *  wider than the horizon is safe: stale slots fail the tag. The
     *  mask replaces a signed modulo on every row lookup. */
    std::size_t
    index(Cycle t) const
    {
        return static_cast<std::size_t>(t) & mask_;
    }

    int horizon_;
    int speedup_;
    std::size_t mask_;
    Cycle window_start_ = 0;
    /** Live (tagged) arrival and doom rows plus live departure slots.
     *  While zero, every expiry check in advance() is vacuous, so the
     *  window can jump in O(1) — the catch-up path for a woken router. */
    int live_rows_ = 0;
    BufferPool pool_;
    std::vector<ArrivalSlot> arrivals_;
    std::vector<DepartSlot> departs_;
    /** Bit i set = buffer i holds a speculative flit (evictable). */
    std::uint64_t spec_held_ = 0;
    /** Schedule list, insertion-ordered. Every parked flit holds a
     *  pool buffer, so the list never outgrows the pool — a flat
     *  reserve()d vector with linear scans beats hashing here. */
    std::vector<ParkedFlit> parked_;

    /** Mark the departure linked to a lost arrival as void. */
    void voidDeparture(Cycle depart, Cycle arrival);

    /** Track a pool occupancy change (per-flit hot path). */
    void
    noteOccupancy(Cycle now)
    {
        occupancy_.update(now, static_cast<double>(pool_.usedCount()));
    }

    bool fault_tolerant_ = false;
    /** Sanitizer context; checks are skipped while null. */
    Validator* validator_ = nullptr;
    std::string owner_;
    PortId port_ = kInvalidPort;
    /** Instruments live here (cache-resident with the table state);
     *  registerMetrics() attaches them to a registry for snapshots. */
    Counter bypasses_;
    Counter parked_total_;
    Counter lost_arrivals_;
    TimeAverage occupancy_;
};

}  // namespace frfc

#endif  // FRFC_FRFC_INPUT_TABLE_HPP
