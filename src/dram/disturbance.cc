#include "dram/disturbance.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace anvil::dram {

RefreshSchedule::RefreshSchedule(const DramConfig &config)
    : period_(config.refresh_period),
      t_refi_(config.t_refi()),
      rows_per_ref_(config.rows_per_ref())
{
}

Tick
RefreshSchedule::phase(std::uint32_t row) const
{
    return static_cast<Tick>(row / rows_per_ref_) * t_refi_;
}

Tick
RefreshSchedule::last_refresh(std::uint32_t row, Tick now) const
{
    const Tick p = phase(row);
    if (now < p)
        return 0;  // not yet swept this period; fully charged from t = 0
    return p + ((now - p) / period_) * period_;
}

Tick
RefreshSchedule::next_refresh(std::uint32_t row, Tick now) const
{
    const Tick p = phase(row);
    if (now < p)
        return p;
    return last_refresh(row, now) + period_;
}

DisturbanceModel::DisturbanceModel(const DramConfig &config,
                                   std::uint32_t flat_bank,
                                   const RefreshSchedule &schedule,
                                   std::vector<FlipEvent> &flip_log)
    : config_(config),
      flat_bank_(flat_bank),
      schedule_(schedule),
      flip_log_(flip_log),
      slot_of_(config.rows_per_bank, 0)
{
}

std::uint64_t
DisturbanceModel::threshold_of(std::uint32_t row) const
{
    // Deterministic per-row sensitivity in ten discrete grades; one row in
    // ten sits at the minimum threshold (the "most sensitive" victims).
    const double u = hash_unit_double(
        config_.variation_seed ^ (static_cast<std::uint64_t>(flat_bank_)
                                  << 32),
        row);
    const double grade = std::floor(u * 10.0) / 10.0;
    const double factor = 1.0 + config_.variation_spread * grade;
    return static_cast<std::uint64_t>(
        static_cast<double>(config_.flip_threshold) * factor);
}

void
DisturbanceModel::sync_window(std::uint32_t row, RowState &state,
                              Tick now) const
{
    // last_refresh(now) > window_start exactly when now has reached the
    // first refresh after window_start, so caching that deadline reduces
    // the steady-state check to one comparison.
    if (state.refresh_due == 0)
        state.refresh_due = schedule_.next_refresh(row, state.window_start);
    if (now < state.refresh_due)
        return;
    restart_window(state, schedule_.last_refresh(row, now));
}

void
DisturbanceModel::restart_window(RowState &state, Tick start)
{
    const std::uint64_t threshold = state.threshold;
    const std::uint64_t flip_floor = state.flip_floor;
    state = RowState();
    state.window_start = start;
    state.threshold = threshold;
    state.flip_floor = flip_floor;
}

double
DisturbanceModel::disturbance(const RowState &state) const
{
    const auto l = static_cast<double>(state.left);
    const auto r = static_cast<double>(state.right);
    return l + r +
           config_.double_sided_alpha * std::min(l, r) +
           state.second_neighbor;
}

DisturbanceModel::RowState &
DisturbanceModel::row_state(std::uint32_t row)
{
    std::uint32_t &slot = slot_of_[row];
    if (slot == 0) {
        states_.emplace_back();
        slot = static_cast<std::uint32_t>(states_.size());
    }
    return states_[slot - 1];
}

const DisturbanceModel::RowState *
DisturbanceModel::find_state(std::uint32_t row) const
{
    const std::uint32_t slot = slot_of_[row];
    return slot == 0 ? nullptr : &states_[slot - 1];
}

void
DisturbanceModel::disturb(std::uint32_t victim, std::uint32_t aggressor,
                          Tick now)
{
    RowState &state = row_state(victim);
    sync_window(victim, state, now);

    const auto dist = static_cast<std::int64_t>(aggressor) -
                      static_cast<std::int64_t>(victim);
    if (dist == -1) {
        ++state.left;
    } else if (dist == 1) {
        ++state.right;
    } else {
        state.second_neighbor += config_.second_neighbor_weight;
    }

    if (state.flipped)
        return;
    if (state.threshold == 0) {
        state.threshold = threshold_of(victim);
        // D = L + R + alpha * min(L, R) + w2-term
        //   <= (L + R) * (1 + alpha / 2) when the w2 term is zero,
        // so no flip is possible while L + R stays below this floor
        // (floor-rounded, hence conservative).
        state.flip_floor = static_cast<std::uint64_t>(
            static_cast<double>(state.threshold) /
            (1.0 + config_.double_sided_alpha * 0.5));
    }
    if (state.second_neighbor == 0.0 &&
        state.left + state.right < state.flip_floor)
        return;
    if (disturbance(state) >= static_cast<double>(state.threshold)) {
        state.flipped = true;
        flip_log_.push_back(FlipEvent{now, flat_bank_, victim,
                                      disturbance(state), state.threshold});
    }
}

void
DisturbanceModel::on_activate(std::uint32_t row, Tick now)
{
    // An activation restores the accessed row's own charge. Its state
    // reference dies here: the disturb() calls below may grow states_.
    restart_window(row_state(row), now);

    const auto last_row = config_.rows_per_bank - 1;
    if (row > 0)
        disturb(row - 1, row, now);
    if (row < last_row)
        disturb(row + 1, row, now);
    if (config_.second_neighbor_weight > 0.0) {
        if (row > 1)
            disturb(row - 2, row, now);
        if (last_row - row > 1)
            disturb(row + 2, row, now);
    }
}

double
DisturbanceModel::disturbance_of(std::uint32_t row, Tick now) const
{
    const RowState *found = find_state(row);
    if (found == nullptr)
        return 0.0;
    RowState state = *found;  // copy; sync without mutating
    sync_window(row, state, now);
    return disturbance(state);
}

std::pair<std::uint64_t, std::uint64_t>
DisturbanceModel::neighbor_activations(std::uint32_t row, Tick now) const
{
    const RowState *found = find_state(row);
    if (found == nullptr)
        return {0, 0};
    RowState state = *found;
    sync_window(row, state, now);
    return {state.left, state.right};
}

}  // namespace anvil::dram
