/**
 * @file
 * Rowhammer disturbance model.
 *
 * Physics abstraction: every activation of row r partially discharges the
 * cells of nearby rows. A victim row v accumulates disturbance from its
 * neighbours *since v's own charge was last restored* — by the periodic
 * refresh sweep, by an activation of v itself (a DRAM read fully refreshes
 * the accessed row, Section 3.2 of the paper), or by ANVIL's selective
 * refresh. When the accumulated disturbance crosses the row's flip
 * threshold, a bit flip is recorded.
 *
 * Disturbance for victim v with adjacent activation counts L (row v-1) and
 * R (row v+1) in the current window:
 *
 *     D(v) = L + R + alpha * min(L, R) + w2 * (L2 + R2)
 *
 * The alpha term models the super-linear effect of double-sided hammering;
 * with the paper's calibration (Table 1) a single threshold H = 400 K
 * reproduces both the single-sided (400 K) and double-sided (2 x 110 K)
 * flip counts. L2/R2 are distance-2 activation counts with small weight w2
 * (0 by default).
 */
#ifndef ANVIL_DRAM_DISTURBANCE_HH
#define ANVIL_DRAM_DISTURBANCE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "dram/config.hh"

namespace anvil::dram {

/** One recorded rowhammer-induced bit flip. */
struct FlipEvent {
    Tick time = 0;
    std::uint32_t flat_bank = 0;
    std::uint32_t row = 0;
    double disturbance = 0.0;
    std::uint64_t threshold = 0;
};

/**
 * The per-bank periodic refresh schedule.
 *
 * Rows are refreshed round-robin: REF command k (issued every tREFI)
 * refreshes rows [k * rows_per_ref, (k+1) * rows_per_ref) of every bank,
 * wrapping each refresh period. All rows start fully charged at time 0.
 */
class RefreshSchedule
{
  public:
    explicit RefreshSchedule(const DramConfig &config);

    /** Time at which @p row was most recently refreshed, as of @p now. */
    Tick last_refresh(std::uint32_t row, Tick now) const;

    /** First time strictly after @p now at which @p row is refreshed. */
    Tick next_refresh(std::uint32_t row, Tick now) const;

    /** Phase offset of @p row's refresh slot within the period. */
    Tick phase(std::uint32_t row) const;

  private:
    Tick period_;
    Tick t_refi_;
    std::uint32_t rows_per_ref_;
};

/**
 * Tracks disturbance accumulation and detects bit flips for one bank.
 *
 * Per-row state exists only for rows touched (activated or disturbed)
 * this trial: a dense per-row slot index maps each row to its entry in an
 * append-only state array, so a lookup is two loads and untouched rows
 * cost four bytes each. Refresh is applied lazily from the
 * RefreshSchedule, so no per-row events are needed.
 */
class DisturbanceModel
{
  public:
    DisturbanceModel(const DramConfig &config, std::uint32_t flat_bank,
                     const RefreshSchedule &schedule,
                     std::vector<FlipEvent> &flip_log);

    /**
     * Records an activation of @p row at time @p now: restores the charge
     * of @p row itself and disturbs its neighbours, logging any flips.
     */
    void on_activate(std::uint32_t row, Tick now);

    /** Current accumulated disturbance of @p row (for tests/telemetry). */
    double disturbance_of(std::uint32_t row, Tick now) const;

    /** Flip threshold of @p row (deterministic per-row variation). */
    std::uint64_t threshold_of(std::uint32_t row) const;

    /** Activations of @p row's neighbours in its current window (L, R). */
    std::pair<std::uint64_t, std::uint64_t>
    neighbor_activations(std::uint32_t row, Tick now) const;

  private:
    struct RowState {
        Tick window_start = 0;
        /// First refresh strictly after window_start; 0 = not yet
        /// computed. Cached so the per-disturb window check is a single
        /// comparison instead of two divides in the refresh schedule.
        Tick refresh_due = 0;
        /// Cached threshold_of(row); 0 = not yet computed. The threshold
        /// is time-invariant, so it survives window resets.
        std::uint64_t threshold = 0;
        /// Conservative integer bound cached with threshold: while
        /// left + right < flip_floor (and no distance-2 disturbance has
        /// accrued), disturbance() cannot reach threshold, so the
        /// floating-point evaluation is skipped.
        std::uint64_t flip_floor = 0;
        std::uint64_t left = 0;        ///< activations of row-1
        std::uint64_t right = 0;       ///< activations of row+1
        double second_neighbor = 0.0;  ///< weighted distance-2 activations
        bool flipped = false;
    };

    /** Applies lazy refresh to @p state if the sweep passed since start. */
    void sync_window(std::uint32_t row, RowState &state, Tick now) const;

    /**
     * Opens a new window at @p start: clears the counts, keeps the
     * row's cached threshold and flip_floor (row properties, not window
     * properties); refresh_due is recomputed lazily.
     */
    static void restart_window(RowState &state, Tick start);

    double disturbance(const RowState &state) const;

    void disturb(std::uint32_t victim, std::uint32_t aggressor, Tick now);

    /**
     * The state of @p row, created on first touch. The reference is valid
     * only until the next first touch of another row (which may grow
     * states_), so callers must not hold it across a row_state() call.
     */
    RowState &row_state(std::uint32_t row);

    /** The state of @p row, or nullptr if it was never touched. */
    const RowState *find_state(std::uint32_t row) const;

    const DramConfig &config_;
    std::uint32_t flat_bank_;
    const RefreshSchedule &schedule_;
    std::vector<FlipEvent> &flip_log_;
    /// Per row: 1 + its index in states_, or 0 while untouched.
    std::vector<std::uint32_t> slot_of_;
    std::vector<RowState> states_;  ///< touched rows, in first-touch order
};

}  // namespace anvil::dram

#endif  // ANVIL_DRAM_DISTURBANCE_HH
