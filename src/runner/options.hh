/**
 * @file
 * Shared command-line interface of the sweep driver (anvil-sim).
 *
 * Every sweep accepts the same sweep-control flags
 * (documented in EXPERIMENTS.md):
 *
 *   --jobs N           worker threads (default: one per hardware thread)
 *   --master-seed N    seed root for all trials (default 0x5eed)
 *   --trials N         override each scenario's default trial count
 *   --json-out PATH    write the aggregated JSON report (PATH or "-")
 *   --replay-trial N   run only global trial N, serially (debugging)
 *   --retries N        re-run failed trials up to N extra times
 *   --trial-timeout N  per-trial simulated-event budget (0 = unlimited)
 *   --resume           replay <json-out>.shard-0.journal; run the rest
 *   --inject-fault S   deterministic fault "kind@scenario:trial" (CI/tests)
 *   --help             usage
 *
 * Sharded-campaign flags (EXPERIMENTS.md "Sharded runs"): a shard child
 * is selected with --shard-index/--shard-count (+ optional
 * --shard-trials A-B[,C-D...] and --lease-interval-ms), and a supervisor
 * is tuned with --shards, --respawn-budget, --lease-timeout-ms,
 * --backoff-ms and --shard-jobs. `anvil-sim merge` accepts --check.
 *
 * Unrecognized non-flag arguments are passed through as positionals so
 * sweeps keep their historical argument (e.g. seconds per cell).
 */
#ifndef ANVIL_RUNNER_OPTIONS_HH
#define ANVIL_RUNNER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/supervisor.hh"
#include "runner/sweep.hh"

namespace anvil::runner {

/** Parsed command line of a runner-based sweep. */
struct CliOptions {
    SweepOptions sweep;
    /// --trials override; 0 keeps each sweep's default.
    std::uint64_t trials = 0;
    /// Non-flag arguments, in order.
    std::vector<std::string> positional;
    /// --shards, --respawn-budget, --lease-timeout-ms, --backoff-ms
    /// (meaningful to `anvil-sim supervise` and `merge` only).
    SupervisorOptions supervisor;
    /// --shard-jobs: worker threads per shard child; 0 = divide the
    /// machine's hardware threads evenly across the shards.
    unsigned shard_jobs = 0;
    /// --check: merge validates shard journals without writing a report.
    bool check = false;

    /** Trial count: the --trials override, else @p bench_default. */
    std::uint64_t
    trials_or(std::uint64_t bench_default) const
    {
        return trials != 0 ? trials : bench_default;
    }

    /**
     * Positional @p index parsed as double, else @p fallback.
     * @throw Error when it is not a finite, non-negative number.
     */
    double positional_double(std::size_t index, double fallback) const;

    /**
     * Parses argv. On --help prints usage (with @p extra_usage appended)
     * and exits 0; on a malformed flag prints usage and exits 2.
     */
    static CliOptions parse(int argc, char **argv,
                            const std::string &extra_usage = "");
};

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_OPTIONS_HH
