#include "frfc/output_table.hpp"

namespace frfc {

OutputReservationTable::OutputReservationTable(int horizon,
                                               int downstream_buffers,
                                               Cycle link_latency,
                                               bool infinite_buffers)
    : horizon_(horizon), buffers_(downstream_buffers),
      link_latency_(link_latency), infinite_(infinite_buffers),
      ring_size_(ringSlotsFor(horizon)), mask_(ring_size_ - 1),
      busy_words_((ring_size_ + 63) / 64, 0),
      free_end_(downstream_buffers), step_(ring_size_, 0),
      step_words_(busy_words_.size(), 0)
{
    FRFC_ASSERT(horizon >= 2, "horizon must be at least 2 cycles");
    FRFC_ASSERT(infinite_buffers || downstream_buffers > 0,
                "downstream pool must hold at least one buffer");
    FRFC_ASSERT(link_latency >= 1 && link_latency < horizon,
                "link latency must fit inside the horizon");
}

void
OutputReservationTable::advance(Cycle now)
{
    FRFC_ASSERT(now >= window_start_, "window cannot move backwards");
    // Each expired cycle drops out of the window; the cycles entering
    // at the far end need no work, since their steps are already zero
    // (the count stays free_end_ past the last scheduled event). A
    // window that slides a whole horizon or more expires every slot.
    const Cycle expire_end = std::min(now, window_start_ + horizon_);
    for (Cycle t = window_start_; t < expire_end; ++t) {
        const std::size_t i = index(t);
        if (bitAt(busy_words_, i)) {
            --reserved_;
            setBit(busy_words_, i, false);
            // The reservation leaves the window the cycle after its
            // slot — the exact timestamp a per-cycle observer records.
            occupancy_.update(t + 1, static_cast<double>(reserved_));
        }
        step_[i] = 0;
        setBit(step_words_, i, false);
    }
    window_start_ = now;
}

bool
OutputReservationTable::book(Cycle depart, const char* kind)
{
    FRFC_ASSERT(depart >= window_start_, "departure in the past");
    FRFC_ASSERT(depart <= windowEnd() - (infinite_ ? 0 : link_latency_),
                "departure too far in the future");
    const std::size_t pos = index(depart);
    if (bitAt(busy_words_, pos)) {
        // A double-booked output cycle would send two headerless data
        // flits onto one wire in the same cycle — the silent-corruption
        // case the sanitizer exists for. Leave the table intact so a
        // non-fail-fast run stays analyzable past the report.
        if (validator_ != nullptr) {
            validator_->fail("res.double-book", window_start_, owner_,
                             port_,
                             "cycle " + std::to_string(depart)
                                 + " reserved twice" + kind);
            return false;
        }
        panic("double reservation of cycle ", depart);
    }
    setBit(busy_words_, pos, true);
    ++reserved_;
    // The committing tick runs with window_start_ == now; a per-cycle
    // observer first sees the new count one cycle later.
    occupancy_.update(window_start_ + 1, static_cast<double>(reserved_));
    return true;
}

void
OutputReservationTable::reserve(Cycle depart)
{
    if (!book(depart, ""))
        return;
    ++reserves_total_;
    if (infinite_)
        return;
    const Cycle arrival = depart + link_latency_;
    const Cycle empty_at = walkFree(
        arrival, [](Cycle, Cycle, int free) { return free > 0; });
    FRFC_ASSERT(empty_at == kInvalidCycle,
                "reserving without a free buffer at ", empty_at);
    --free_end_;
    addStep(index(arrival), -1);
}

void
OutputReservationTable::reserveWire(Cycle depart)
{
    // No buffer-count or reserves_total_ updates: the speculative flit
    // holds no reserved buffer downstream and earns no advance credit.
    book(depart, " (speculative)");
}

void
OutputReservationTable::credit(Cycle free_from)
{
    if (infinite_)
        return;
    const Cycle from = std::max(free_from, window_start_);
    FRFC_ASSERT(from <= windowEnd(),
                "credit for cycle ", free_from, " beyond horizon");
    // Find the earliest cycle already at capacity; a credit from there
    // on would overflow it, so the whole application is refused.
    Cycle full_at = kInvalidCycle;
    walkFree(from, [&](Cycle lo, Cycle, int free) {
        if (free >= buffers_)
            full_at = lo;
        return true;
    });
    if (full_at != kInvalidCycle) {
        if (validator_ != nullptr) {
            validator_->fail(
                "credit.overflow", window_start_, owner_, port_,
                "credit from cycle " + std::to_string(free_from)
                    + " exceeds capacity " + std::to_string(buffers_)
                    + " at cycle " + std::to_string(full_at));
            return;
        }
        panic("credit overflow at cycle ", full_at);
    }
    ++credits_total_;
    ++free_end_;
    addStep(index(from), +1);
}

void
OutputReservationTable::auditCreditConservation(Cycle now) const
{
    if (infinite_ || validator_ == nullptr)
        return;
    const auto report = [&](const std::string& what) {
        validator_->fail("credit.conservation", now, owner_, port_, what);
    };
    const std::int64_t outstanding = reserves_total_ - credits_total_;
    if (static_cast<std::int64_t>(buffers_) - outstanding != free_end_) {
        report("free at horizon end " + std::to_string(free_end_)
               + " != capacity " + std::to_string(buffers_)
               + " - outstanding " + std::to_string(outstanding) + " ("
               + std::to_string(reserves_total_) + " reserved, "
               + std::to_string(credits_total_) + " credited)");
    }
    if (!validator_->paranoid())
        return;
    for (std::size_t i = 0; i < ring_size_; ++i) {
        if (bitAt(step_words_, i) != (step_[i] != 0)) {
            report("step bitmap disagrees with step "
                   + std::to_string(step_[i]) + " at slot "
                   + std::to_string(i));
        }
    }
    // The ring slots past windowEnd() up to the wrap back to
    // window_start_ are exactly the out-of-window slots.
    for (Cycle t = windowEnd() + 1; index(t) != index(window_start_);
         ++t) {
        if (step_[index(t)] != 0) {
            report("nonzero step " + std::to_string(step_[index(t)])
                   + " outside the window at cycle "
                   + std::to_string(t));
        }
    }
    walkFree(window_start_, [&](Cycle lo, Cycle hi, int free) {
        if (free < 0 || free > buffers_) {
            report("free count " + std::to_string(free) + " at cycles ["
                   + std::to_string(lo) + ", " + std::to_string(hi)
                   + "] outside [0, " + std::to_string(buffers_) + "]");
        }
        return true;
    });
}

}  // namespace frfc
