#include "frfc/input_table.hpp"

#include "common/log.hpp"

namespace frfc {

InputReservationTable::InputReservationTable(int horizon, int buffers,
                                             int speedup)
    : horizon_(horizon), speedup_(speedup),
      mask_(std::bit_ceil(static_cast<std::size_t>(horizon)) - 1),
      pool_(buffers), arrivals_(mask_ + 1), departs_(mask_ + 1)
{
    FRFC_ASSERT(horizon >= 2, "horizon must be at least 2 cycles");
    FRFC_ASSERT(speedup >= 1 && speedup <= kMaxSpeedup,
                "speedup out of range");
    parked_.reserve(static_cast<std::size_t>(buffers));
}

void
InputReservationTable::registerMetrics(MetricRegistry& reg,
                                       const std::string& prefix)
{
    reg.attachCounter(prefix + ".bypasses", bypasses_);
    reg.attachCounter(prefix + ".parked", parked_total_);
    reg.attachCounter(prefix + ".lost_arrivals", lost_arrivals_);
    reg.attachTimeAverage(prefix + ".occupancy", occupancy_);
}

void
InputReservationTable::advance(Cycle now)
{
    FRFC_ASSERT(now >= window_start_, "window cannot move backwards");
    if (live_rows_ == 0) {
        // Nothing scheduled: no row can expire, no fault can surface.
        window_start_ = now;
        return;
    }
    while (window_start_ < now) {
        ArrivalSlot& arr = arrivals_[index(window_start_)];
        if (arr.cycle == window_start_) {
            // A doom row whose data flit never showed (dropped in
            // flight on top of the killed control worm) expires
            // silently. A reservation row must have been consumed: the
            // upstream scheduler guaranteed the flit arrived during
            // that cycle — unless fault injection dropped it, in which
            // case its reservation executes vacuously (Section 5 error
            // recovery).
            const bool doom = arr.depart == kInvalidCycle;
            FRFC_ASSERT(doom || fault_tolerant_,
                        "scheduled arrival at cycle ", window_start_,
                        " never materialized");
            if (!doom) {
                voidDeparture(arr.depart, window_start_);
                lost_arrivals_.inc();
            }
            arr.cycle = kInvalidCycle;
            --live_rows_;
        }
        const DepartSlot& dep = departs_[index(window_start_)];
        FRFC_ASSERT(dep.cycle != window_start_,
                    "scheduled departure at cycle ", window_start_,
                    " never executed");
        ++window_start_;
    }
}

bool
InputReservationTable::departSlotFree(Cycle t) const
{
    const DepartSlot& slot = departs_[index(t)];
    if (slot.cycle != t)
        return true;
    return slot.count < speedup_;
}

void
InputReservationTable::recordReservation(Cycle now, Cycle arrival,
                                         Cycle depart, PortId out)
{
    FRFC_ASSERT(depart > now, "departure must be in the future");
    FRFC_ASSERT(depart > arrival, "flit cannot leave before it arrives");

    DepartSlot& dslot = departs_[index(depart)];
    if (dslot.cycle != depart) {
        dslot.cycle = depart;
        dslot.count = 0;
        ++live_rows_;
    }
    if (dslot.count >= speedup_) {
        // More departures in one cycle than the buffer has read ports:
        // the extra flit would be silently dropped or delayed. Refuse
        // the reservation so the table stays consistent when the
        // validator is collecting rather than failing fast.
        if (validator_ != nullptr) {
            validator_->fail("res.slot-oversubscribed", now, owner_,
                             port_,
                             "departure slot "
                                 + std::to_string(depart) + " exceeds "
                                 + "speedup "
                                 + std::to_string(speedup_));
            return;
        }
        panic("departure slot ", depart, " over-subscribed");
    }
    DepartEntry& entry =
        dslot.entries[static_cast<std::size_t>(dslot.count++)];
    entry.out = out;
    entry.arrival = arrival;
    entry.buffer = kInvalidBuffer;
    entry.voided = false;  // slots recycle; clear any stale loss mark

    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
        if (it->arrival == arrival) {
            // The flit beat its control flit here; bind it now.
            entry.buffer = it->buffer;
            parked_.erase(it);
            return;
        }
    }
    if (arrival < now && fault_tolerant_) {
        // The flit was dropped in flight before its control flit was
        // processed here: the fresh reservation is void on arrival.
        entry.voided = true;
        lost_arrivals_.inc();
        return;
    }
    FRFC_ASSERT(arrival >= now,
                "reservation for past arrival ", arrival,
                " with no parked flit");
    ArrivalSlot& aslot = arrivals_[index(arrival)];
    if (aslot.cycle == arrival) {
        // Two control flits claiming the same arrival cycle would make
        // the headerless data flit's steering ambiguous. Undo the
        // departure entry taken above so nothing dangles.
        if (validator_ != nullptr) {
            validator_->fail("res.double-book", now, owner_, port_,
                             "arrival cycle " + std::to_string(arrival)
                                 + " already has a reservation row");
            --dslot.count;
            if (dslot.count == 0) {
                dslot.cycle = kInvalidCycle;
                --live_rows_;
            }
            return;
        }
        panic("second reservation for arrival cycle ", arrival);
    }
    aslot.cycle = arrival;
    aslot.depart = depart;
    aslot.out = out;
    ++live_rows_;
}

void
InputReservationTable::acceptFlit(Cycle now, const Flit& flit)
{
    const BufferId buffer = pool_.allocate();
    if (buffer == kInvalidBuffer) {
        // Scheduling-time admission guaranteed a buffer for every flit
        // the upstream put on the wire; running dry means a data flit
        // arrived that no live reservation accounted for. Drop it here
        // (losing the flit, which conservation will also flag) rather
        // than corrupt the pool.
        if (validator_ != nullptr) {
            validator_->fail("data.unreserved-arrival", now, owner_,
                             port_,
                             "pool exhausted accepting "
                                 + flit.toString());
            return;
        }
        panic("input pool exhausted — reservation accounting broken (",
              flit.toString(), ")");
    }
    pool_.write(buffer, flit);
    if (flit.spec) {
        // Speculative occupancy is tracked so a reserved arrival can
        // reclaim the buffer (evictOneSpec). The bitmap bounds the pool
        // at 64 buffers — far above any configuration in use.
        FRFC_ASSERT(buffer < 64, "speculative pool too large for bitmap");
        spec_held_ |= std::uint64_t{1} << buffer;
    }
    noteOccupancy(now);

    ArrivalSlot& aslot = arrivals_[index(now)];
    if (aslot.cycle != now) {
        // No reservation yet: park on the schedule list.
        FRFC_ASSERT(!parkedAt(now),
                    "two flits parked for the same arrival cycle");
        parked_.push_back(ParkedFlit{now, buffer});
        parked_total_.inc();
        return;
    }

    // Bind the buffer into the matching departure entry.
    DepartSlot& dslot = departs_[index(aslot.depart)];
    FRFC_ASSERT(dslot.cycle == aslot.depart, "dangling departure link");
    bool bound = false;
    for (int i = 0; i < dslot.count; ++i) {
        DepartEntry& entry = dslot.entries[static_cast<std::size_t>(i)];
        if (entry.arrival == now && entry.buffer == kInvalidBuffer) {
            entry.buffer = buffer;
            bound = true;
            break;
        }
    }
    FRFC_ASSERT(bound, "no departure entry for arrival at ", now);
    if (aslot.depart == now + 1)
        bypasses_.inc();
    aslot.cycle = kInvalidCycle;
    --live_rows_;
}

void
InputReservationTable::markDoomed(Cycle arrival)
{
    FRFC_ASSERT(arrival >= window_start_
                    && arrival - window_start_
                        <= static_cast<Cycle>(mask_),
                "doomed arrival ", arrival, " outside window at ",
                window_start_);
    ArrivalSlot& aslot = arrivals_[index(arrival)];
    // One departure per upstream wire cycle means at most one arrival
    // per cycle on this port — a doom row landing on a live row would
    // be a duplicated control entry.
    FRFC_ASSERT(aslot.cycle != arrival, "arrival ", arrival,
                " doomed but already has a row");
    aslot.cycle = arrival;
    aslot.depart = kInvalidCycle;
    aslot.out = kInvalidPort;
    ++live_rows_;
}

bool
InputReservationTable::consumeDoomed(Cycle now)
{
    ArrivalSlot& aslot = arrivals_[index(now)];
    if (aslot.cycle != now || aslot.depart != kInvalidCycle)
        return false;
    aslot.cycle = kInvalidCycle;
    --live_rows_;
    return true;
}

bool
InputReservationTable::discardParked(Cycle now, Cycle t)
{
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
        if (it->arrival != t)
            continue;
        if (it->buffer < 64)
            spec_held_ &= ~(std::uint64_t{1} << it->buffer);
        pool_.release(it->buffer);
        parked_.erase(it);
        noteOccupancy(now);
        return true;
    }
    return false;
}

PacketId
InputReservationTable::evictOneSpec(Cycle now)
{
    if (spec_held_ == 0)
        return kInvalidPacket;
    const auto victim = static_cast<BufferId>(
        std::countr_zero(spec_held_));
    spec_held_ &= ~(std::uint64_t{1} << victim);
    const PacketId evicted = pool_.read(victim).packet;

    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
        if (it->buffer == victim) {
            pool_.release(victim);
            parked_.erase(it);
            noteOccupancy(now);
            return evicted;
        }
    }
    // Bound into a departure entry: void it so the reserved output
    // cycle passes idle. The next hop already holds a reservation for
    // the flit; its fault-tolerant lost-arrival machinery reconciles,
    // exactly as for a flit dropped on the wire.
    for (DepartSlot& slot : departs_) {
        if (slot.cycle == kInvalidCycle)
            continue;
        for (int i = 0; i < slot.count; ++i) {
            DepartEntry& entry =
                slot.entries[static_cast<std::size_t>(i)];
            if (entry.buffer != victim || entry.voided)
                continue;
            entry.voided = true;
            entry.buffer = kInvalidBuffer;
            pool_.release(victim);
            noteOccupancy(now);
            return evicted;
        }
    }
    panic("spec-held buffer ", victim,
          " neither parked nor bound to a departure");
}

void
InputReservationTable::auditSpecHeld(Cycle now) const
{
    if (validator_ == nullptr || spec_held_ == 0)
        return;
    for (std::uint64_t bits = spec_held_; bits != 0; bits &= bits - 1) {
        const auto buffer =
            static_cast<BufferId>(std::countr_zero(bits));
        if (pool_.occupied(buffer))
            continue;
        validator_->fail("spec.held-not-allocated", now, owner_, port_,
                         "buffer " + std::to_string(buffer)
                             + " marked speculative but free");
    }
}

void
InputReservationTable::auditOrphans(Cycle now) const
{
    if (validator_ == nullptr || parked_.empty())
        return;
    // A parked flit waits for its control flit to clear the control
    // network and win a departure slot, and near saturation both can
    // take many window lengths — only an age no plausible congestion
    // produces marks the steering as corrupted. The bound is a
    // heuristic tripwire, deliberately far above the worst legitimate
    // parking time observed in the paper's saturated sweeps.
    const Cycle limit =
        std::max<Cycle>(static_cast<Cycle>(64 * horizon_), 4096);
    for (const ParkedFlit& p : parked_) {
        if (now - p.arrival <= limit)
            continue;
        validator_->fail(
            "data.orphan", now, owner_, port_,
            "flit parked since cycle " + std::to_string(p.arrival)
                + " (buffer " + std::to_string(p.buffer)
                + ") outlived any plausible control-plane delay");
    }
}

void
InputReservationTable::voidDeparture(Cycle depart, Cycle arrival)
{
    DepartSlot& slot = departs_[index(depart)];
    FRFC_ASSERT(slot.cycle == depart, "voiding a vanished departure");
    for (int i = 0; i < slot.count; ++i) {
        DepartEntry& entry = slot.entries[static_cast<std::size_t>(i)];
        if (entry.arrival == arrival && entry.buffer == kInvalidBuffer
            && !entry.voided) {
            entry.voided = true;
            return;
        }
    }
    std::string dump;
    for (int i = 0; i < slot.count; ++i) {
        const DepartEntry& e = slot.entries[static_cast<std::size_t>(i)];
        dump += " [arr=" + std::to_string(e.arrival)
            + " buf=" + std::to_string(e.buffer)
            + (e.voided ? " void]" : "]");
    }
    panic("no departure entry to void for arrival ", arrival,
          " at depart ", depart, ":", dump);
}

void
InputReservationTable::takeDeparturesInto(Cycle now,
                                          std::vector<Departure>& out)
{
    out.clear();
    DepartSlot& slot = departs_[index(now)];
    if (slot.cycle != now)
        return;
    for (int i = 0; i < slot.count; ++i) {
        DepartEntry& entry = slot.entries[static_cast<std::size_t>(i)];
        if (entry.voided)
            continue;  // lost flit: the reserved cycle passes idle
        FRFC_ASSERT(entry.buffer != kInvalidBuffer,
                    "unbound departure at cycle ", now,
                    " (flit never arrived?)");
        Departure dep;
        dep.out = entry.out;
        dep.flit = pool_.consume(entry.buffer);
        if (entry.buffer < 64
            && ((spec_held_ >> entry.buffer) & 1u) != 0) {
            // Past the first hop the flit travels on real reservations:
            // it stops being speculative (and evictable) on departure.
            spec_held_ &= ~(std::uint64_t{1} << entry.buffer);
            dep.flit.spec = false;
        }
        dep.bypass = entry.arrival + 1 == now;
        out.push_back(dep);
    }
    slot.cycle = kInvalidCycle;
    slot.count = 0;
    --live_rows_;
    if (!out.empty())
        noteOccupancy(now);
}

std::vector<InputReservationTable::Departure>
InputReservationTable::takeDepartures(Cycle now)
{
    std::vector<Departure> result;
    takeDeparturesInto(now, result);
    return result;
}

}  // namespace frfc
