#include "runner/sweep.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "runner/journal.hh"
#include "runner/thread_pool.hh"

namespace anvil::runner {
namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void
shutdown_signal_handler(int)
{
    // Async-signal-safe: a lock-free atomic store and nothing else.
    g_shutdown.store(true, std::memory_order_relaxed);
}

/**
 * Appends a lease heartbeat to @p journal every @p interval_ms until
 * stopped, so a supervisor watching the journal grow can distinguish a
 * shard mid-long-trial from one that is wedged (a stopped or deadlocked
 * process stops beating).
 */
class LeaseHeartbeat
{
  public:
    LeaseHeartbeat(JournalWriter &journal, std::uint64_t interval_ms)
    {
        if (interval_ms == 0 || !journal.is_open())
            return;
        thread_ = std::thread([this, &journal, interval_ms] {
            std::uint64_t seq = 0;
            std::unique_lock<std::mutex> lock(mutex_);
            while (!cv_.wait_for(lock,
                                 std::chrono::milliseconds(interval_ms),
                                 [this] { return stop_; })) {
                try {
                    journal.append_lease(seq++);
                } catch (const Error &) {
                    // Heartbeats are liveness evidence, not data; a
                    // failing append means the journal itself is dying
                    // and the supervisor will see the silence.
                    return;
                }
            }
        });
    }

    ~LeaseHeartbeat()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

std::string
boundary_error(const char *what_happened, const TrialSpec &spec,
               const std::exception &cause)
{
    return Error(what_happened)
        .with("scenario", spec.scenario)
        .with("trial", spec.trial)
        .with_hex("seed", spec.seed)
        .caused_by(cause)
        .what();
}

/**
 * The per-trial error boundary: runs @p fn with fault injection, the
 * watchdog, and deterministic retries. Never throws — every failure mode
 * becomes a structured outcome.
 */
TrialOutcome
run_one(const TrialSpec &spec, const TrialFn &fn,
        const SweepOptions &options, const FaultPlan &faults)
{
    const FaultSpec *fault = faults.match(spec);
    const unsigned max_attempts = 1 + options.retries;
    TrialOutcome outcome;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        outcome = TrialOutcome{};
        outcome.attempts = attempt;
        try {
            // The context (and therefore every seed stream) is re-derived
            // identically on every attempt: a retry that succeeds yields
            // the result the trial would always have produced.
            TrialContext ctx(spec);
            ctx.watchdog().arm(options.trial_timeout);
            if (fault != nullptr)
                faults.inject_before(*fault, ctx, attempt);
            outcome.result = fn(ctx);
            if (fault != nullptr)
                FaultPlan::inject_after(*fault, spec, outcome.result);
            outcome.status = TrialStatus::kOk;
            return outcome;
        } catch (const TimeoutError &e) {
            // Deterministic by construction: a retry would burn the whole
            // budget again and time out at the identical event, so don't.
            outcome.status = TrialStatus::kTimedOut;
            outcome.error = boundary_error("trial timed out", spec, e);
            return outcome;
        } catch (const std::exception &e) {
            outcome.status = TrialStatus::kFailed;
            outcome.error = boundary_error("trial failed", spec, e);
        } catch (...) {
            outcome.status = TrialStatus::kFailed;
            outcome.error = boundary_error(
                "trial failed", spec, Error("unknown exception"));
        }
    }
    return outcome;
}

}  // namespace

void
request_shutdown()
{
    g_shutdown.store(true, std::memory_order_relaxed);
}

bool
shutdown_requested()
{
    return g_shutdown.load(std::memory_order_relaxed);
}

void
clear_shutdown()
{
    g_shutdown.store(false, std::memory_order_relaxed);
}

void
install_signal_handlers()
{
    std::signal(SIGINT, shutdown_signal_handler);
    std::signal(SIGTERM, shutdown_signal_handler);
}

bool
ShardAssignment::owns(std::uint64_t index) const
{
    for (const TrialRange &range : ranges) {
        if (range.contains(index))
            return true;
    }
    return false;
}

Sweep::Sweep(SweepOptions options) : options_(std::move(options)) {}

void
Sweep::add_scenario(std::string scenario, std::uint64_t trials, TrialFn fn)
{
    scenarios_.push_back(
        Scenario{std::move(scenario), trials, std::move(fn)});
}

Campaign
Sweep::campaign() const
{
    Campaign campaign{.sweep = options_.name,
                      .master_seed = options_.master_seed,
                      .plan = {}};
    for (const Scenario &s : scenarios_) {
        for (std::uint64_t t = 0; t < s.trials; ++t) {
            TrialSpec spec;
            spec.scenario = s.name;
            spec.trial = t;
            spec.seed = trial_seed(options_.master_seed, s.name, t);
            spec.global_index = campaign.plan.size();
            campaign.plan.push_back(std::move(spec));
        }
    }
    return campaign;
}

std::vector<TrialSpec>
Sweep::plan_specs() const
{
    return campaign().plan;
}

SweepRun
Sweep::run()
{
    const Campaign campaign = this->campaign();
    const std::vector<TrialSpec> &plan = campaign.plan;
    std::vector<const TrialFn *> fns;
    for (const Scenario &s : scenarios_)
        fns.insert(fns.end(), s.trials, &s.fn);

    if (options_.replay_trial && *options_.replay_trial >= plan.size()) {
        throw Error("--replay-trial is out of range")
            .with("sweep", options_.name)
            .with("replay_trial", *options_.replay_trial)
            .with("trials", plan.size());
    }

    // An in-process run is shard 0 of a one-shard campaign that owns every
    // trial and beats no lease: one journal name, one header rule, and
    // one resume path serve both. `mine[i]` is the ownership mask; a
    // replay owns its one trial.
    const ShardAssignment shard = options_.shard.value_or(ShardAssignment{
        .index = 0,
        .count = 1,
        .ranges = {TrialRange{0, std::numeric_limits<std::uint64_t>::max()}},
        .lease_interval_ms = 0});
    std::vector<bool> mine(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        mine[i] = shard.owns(i) &&
                  (!options_.replay_trial || i == *options_.replay_trial);
    }

    SweepRun run;
    run.outcomes.resize(plan.size());
    std::vector<bool> replayed(plan.size(), false);

    // Checkpoint/resume: replay the journal — read_journal checks each
    // record against the plan — and pre-fill those slots so only the
    // remainder executes, then append after its intact records (cutting
    // a torn tail). A shard child always resumes from its own journal —
    // that is how a respawned child picks up where its predecessor
    // crashed.
    const bool journaling = !options_.replay_trial &&
                            !options_.json_out.empty() &&
                            options_.json_out != "-";
    const bool resuming = options_.resume || options_.shard.has_value();
    const std::string jpath =
        shard_journal_path(options_.json_out, shard.index);
    std::uint64_t intact = 0;
    if (journaling && resuming) {
        for (JournalRecord &rec : read_journal(jpath, campaign, shard.index,
                                               shard.count, &intact)) {
            const std::uint64_t i = rec.spec.global_index;
            run.outcomes[i] = std::move(rec.outcome);
            replayed[i] = true;
            // Records outside this shard's assignment (an earlier
            // requeue unit run by the same slot) are durable facts the
            // merge will collect; they are not "resumed work" here.
            if (mine[i])
                ++run.resumed;
        }
    }
    JournalWriter journal;
    if (journaling) {
        try {
            journal.open(jpath, campaign.header(shard.index, shard.count),
                         intact);
        } catch (const Error &e) {
            // A journal we cannot resume from is a configuration fault,
            // and a shard without a journal would do work the merge can
            // never see; a journal a plain sweep merely cannot create is
            // not worth killing the run over — run unjournaled and let
            // the final report write surface the unwritable path as its
            // own exit code.
            if (resuming)
                throw;
            std::cerr << "[runner] " << options_.name
                      << ": running without a checkpoint journal: "
                      << e.what() << "\n";
        }
        run.journals = 1;
    }

    const unsigned jobs =
        options_.replay_trial
            ? 1u
            : (options_.jobs != 0 ? options_.jobs
                                  : ThreadPool::default_threads());
    run.jobs_used = jobs;

    FaultPlan faults(options_.faults);
    if (journaling)
        faults.set_marker_base(options_.json_out);
    // Shards prove liveness between trial completions; a supervisor
    // whose lease on this journal expires declares the shard hung.
    LeaseHeartbeat heartbeat(journal, shard.lease_interval_ms);
    const auto execute = [&](std::size_t i) {
        // The drain point: a shutdown request skips every trial that has
        // not started yet; in-flight trials run to completion.
        if (shutdown_requested()) {
            run.outcomes[i].status = TrialStatus::kSkipped;
            return;
        }
        run.outcomes[i] = run_one(plan[i], *fns[i], options_, faults);
        if (journaling) {
            // append() no-ops (under its lock) once the journal is
            // closed — is_open() here would race with the close below.
            try {
                journal.append(plan[i], run.outcomes[i]);
            } catch (const Error &e) {
                // Journal I/O died mid-run (disk full, volume gone).
                // Checkpointing is best-effort: keep the sweep alive,
                // stop journaling — a crash from here is no longer
                // resumable, which beats losing the run now.
                journal.close();
                std::cerr << "[runner] " << options_.name
                          << ": checkpoint journaling disabled: "
                          << e.what() << "\n";
            }
        }
    };

    const auto wall_start = std::chrono::steady_clock::now();
    if (jobs <= 1 || plan.size() <= 1) {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (mine[i] && !replayed[i])
                execute(i);
        }
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            // Each task writes only its own pre-allocated slot;
            // wait_idle() publishes all slots to this thread.
            if (mine[i] && !replayed[i])
                pool.submit([&execute, i] { execute(i); });
        }
        pool.wait_idle();
    }
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
    journal.close();

    // A shard aggregates (and reports) only its assigned trials — its
    // durable output is the journal, and the merge owns the JSON.
    const std::uint64_t assigned = fold_in_plan_order(campaign, mine, run);
    std::cerr << "[runner] " << options_.name;
    if (options_.shard)
        std::cerr << " shard " << shard.index << "/" << shard.count;
    std::cerr << ": " << assigned << " trial(s) on " << jobs
              << " job(s) in " << run.wall_seconds << " s";
    if (run.resumed != 0)
        std::cerr << ", " << run.resumed << " resumed from journal";
    if (run.failed != 0)
        std::cerr << ", " << run.failed << " failed";
    if (run.skipped != 0)
        std::cerr << ", " << run.skipped << " skipped (shutdown drain)";
    std::cerr << "\n";
    return run;
}

std::uint64_t
fold_in_plan_order(const Campaign &campaign, const std::vector<bool> &mine,
                   SweepRun &run)
{
    run.sink.set_meta(campaign.sweep, campaign.master_seed);
    std::uint64_t folded = 0;
    for (std::size_t i = 0; i < campaign.plan.size(); ++i) {
        if (!mine[i])
            continue;
        ++folded;
        const TrialSpec &spec = campaign.plan[i];
        const TrialOutcome &outcome = run.outcomes[i];
        switch (outcome.status) {
          case TrialStatus::kSkipped:
              ++run.skipped;
              continue;
          case TrialStatus::kOk:
              ++run.completed;
              break;
          case TrialStatus::kFailed:
          case TrialStatus::kTimedOut:
              ++run.failed;
              std::cerr << "[runner] " << campaign.sweep << " trial #"
                        << spec.global_index << " (" << spec.scenario
                        << "/" << spec.trial << ") "
                        << to_string(outcome.status);
              if (outcome.attempts > 1)
                  std::cerr << " after " << outcome.attempts << " attempts";
              std::cerr << ": " << outcome.error
                        << " (replay with --jobs 1 --replay-trial "
                        << spec.global_index << ")\n";
              break;
        }
        run.sink.add(spec, outcome);
    }
    return folded;
}

namespace {

/**
 * Durably commits @p data to @p path: write a sibling temp file, fsync
 * it, then rename over the destination — a crash leaves either the old
 * committed artifact or the new one, never a torn hybrid.
 */
bool
atomic_write_file(const std::string &path, const std::string &data)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        std::cerr << "[runner] cannot open " << tmp
                  << " for writing: " << std::strerror(errno) << "\n";
        return false;
    }
    try {
        write_all(fd, data.data(), data.size(), tmp);
        // An unsynced temp file renamed over the report could commit
        // garbage — and the journals are deleted next.
        if (::fsync(fd) != 0) {
            throw Error("fsync failed")
                .with("path", tmp)
                .caused_by(std::strerror(errno));
        }
    } catch (const Error &e) {
        std::cerr << "[runner] error writing " << tmp << ": " << e.what()
                  << "\n";
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "[runner] cannot rename " << tmp << " to " << path
                  << ": " << std::strerror(errno) << "\n";
        std::remove(tmp.c_str());
        return false;
    }
    // The rename is only durable once the directory entry is: without
    // this, a power cut after "commit" could leave neither the report
    // nor (the journal having been removed next) anything to resume.
    fsync_parent_dir(path);
    return true;
}

}  // namespace

bool
write_json_output(const ResultSink &sink, const SweepOptions &options)
{
    if (options.json_out.empty())
        return true;
    if (options.json_out == "-") {
        sink.write_json(std::cout);
        return true;
    }
    std::ostringstream out;
    sink.write_json(out);
    return atomic_write_file(options.json_out, out.str());
}

int
finish_sweep(const SweepRun &run, const SweepOptions &options)
{
    if (!run.complete()) {
        std::cerr << "[runner] " << options.name << ": interrupted — "
                  << run.skipped << " trial(s) not run";
        if (run.journals != 0 && !options.shard) {
            std::cerr << "; resume with --resume (journal: "
                      << shard_journal_path(options.json_out, 0) << ")";
        }
        std::cerr << "\n";
        // No JSON: a partial report must never overwrite a committed one.
        return kExitPartial;
    }
    if (!options.shard) {
        if (!write_json_output(run.sink, options))
            return kExitJsonError;
        // The report is durably committed; the checkpoints are now
        // redundant.
        for (std::uint32_t k = 0; k < run.journals; ++k)
            std::remove(shard_journal_path(options.json_out, k).c_str());
    }
    return run.failed != 0 ? kExitTrialFailure : kExitOk;
}

}  // namespace anvil::runner

