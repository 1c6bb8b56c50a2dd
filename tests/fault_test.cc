/**
 * @file
 * Tests of the sweep engine's fault paths, driven by deterministic fault
 * injection (runner/fault.hh): error boundaries, retries with re-derived
 * seeds, watchdog timeouts, the crash-safe journal (round-trip, torn-tail
 * recovery by the appender alone, a read-only decoder that survives every
 * truncation and byte flip, foreign-file and foreign-record rejection),
 * and the headline recovery guarantee —
 * a sweep drained mid-run and finished with --resume writes final JSON
 * byte-identical to an uninterrupted run.
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "runner/fault.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/trial.hh"

namespace anvil {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/** A cheap, fully deterministic trial body: results derive from the seed. */
runner::TrialResult
synthetic_result(const runner::TrialContext &ctx)
{
    runner::TrialResult r;
    const std::uint64_t s = ctx.seed_for("unit");
    r.set_value("metric", static_cast<double>(s % 1000) / 7.0);
    r.set_counter("events", s % 17);
    return r;
}

runner::SweepOptions
base_options()
{
    runner::SweepOptions o;
    o.name = "synthetic";
    o.jobs = 1;
    o.master_seed = 0x5eedULL;
    return o;
}

/** Runs a 1-scenario/3-trial synthetic sweep with @p options. */
runner::SweepRun
run_synthetic(runner::SweepOptions options)
{
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("alpha", 3, synthetic_result);
    return sweep.run();
}

std::string
json_of(const runner::SweepRun &run)
{
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
file_exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** A per-test scratch path, cleared of leftovers from earlier runs. */
std::string
temp_path(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "anvil_fault_test_" + name;
    std::remove(path.c_str());
    std::remove(runner::shard_journal_path(path, 0).c_str());
    return path;
}

/** Tests that touch the process-wide drain flag must leave it cleared. */
struct ShutdownGuard {
    ShutdownGuard() { runner::clear_shutdown(); }
    ~ShutdownGuard() { runner::clear_shutdown(); }
};

// ---------------------------------------------------------------------------
// Fault-spec parsing and matching
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesKindScenarioAndTrial)
{
    const runner::FaultSpec f = runner::parse_fault("throw@alpha:3");
    EXPECT_EQ(f.kind, runner::FaultKind::kThrow);
    EXPECT_EQ(f.scenario, "alpha");
    EXPECT_EQ(f.trial, 3u);

    // The trial index follows the LAST ':', so scenario names may
    // themselves contain colons (e.g. "mcf/anvil:heavy").
    const runner::FaultSpec g = runner::parse_fault("hang@a:b:2");
    EXPECT_EQ(g.kind, runner::FaultKind::kHang);
    EXPECT_EQ(g.scenario, "a:b");
    EXPECT_EQ(g.trial, 2u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(runner::parse_fault("throw"), Error);
    EXPECT_THROW(runner::parse_fault("nope@x"), Error);
    EXPECT_THROW(runner::parse_fault("throw@x:notanumber"), Error);
    EXPECT_THROW(runner::parse_fault("bogus@x:1"), Error);
    EXPECT_THROW(runner::parse_fault("throw@x:"), Error);
    // strtoull would accept all of these: a negated "-1" wraps to 2^64-1,
    // blanks and '+' are skipped, and 2^64 saturates.
    for (const char *trial : {"-1", " 1", "+1", "18446744073709551616",
                              "-18446744073709551616"}) {
        EXPECT_THROW(runner::parse_fault(std::string("throw@x:") + trial),
                     Error)
            << "'" << trial << "'";
    }
}

TEST(FaultSpec, PlanMatchesExactCoordinatesOnly)
{
    const runner::FaultPlan plan(
        {runner::parse_fault("throw@alpha:1")});
    runner::TrialSpec spec;
    spec.scenario = "alpha";
    spec.trial = 1;
    EXPECT_NE(plan.match(spec), nullptr);
    spec.trial = 2;
    EXPECT_EQ(plan.match(spec), nullptr);
    spec.scenario = "beta";
    spec.trial = 1;
    EXPECT_EQ(plan.match(spec), nullptr);
    EXPECT_TRUE(runner::FaultPlan().empty());
}

// ---------------------------------------------------------------------------
// Injected faults become structured outcomes
// ---------------------------------------------------------------------------

TEST(FaultInjection, ThrowBecomesFailedOutcomeNotCrash)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("throw@alpha:1")};
    const runner::SweepRun run = run_synthetic(std::move(options));

    EXPECT_EQ(run.completed, 2u);
    EXPECT_EQ(run.failed, 1u);
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kFailed);
    EXPECT_NE(run.outcomes[1].error.find("injected fault"),
              std::string::npos)
        << run.outcomes[1].error;
    EXPECT_NE(run.outcomes[1].error.find("scenario=alpha"),
              std::string::npos)
        << "the error must carry the trial's identity: "
        << run.outcomes[1].error;

    // The failure is a first-class JSON record, siblings are unaffected.
    const std::string json = json_of(run);
    EXPECT_NE(json.find("\"failures\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
}

TEST(FaultInjection, RetriedFlakeIsByteIdenticalToCleanRun)
{
    const std::string clean = json_of(run_synthetic(base_options()));

    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("flaky@alpha:1")};
    options.retries = 1;
    const runner::SweepRun run = run_synthetic(std::move(options));

    EXPECT_EQ(run.completed, 3u);
    EXPECT_EQ(run.failed, 0u);
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kOk);
    EXPECT_EQ(run.outcomes[1].attempts, 2u);
    // The retry re-derives the identical seed, so a flaky-infra retry
    // cannot change results: the report is byte-identical.
    EXPECT_EQ(json_of(run), clean);
}

TEST(FaultInjection, FlakeWithoutRetriesFails)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("flaky@alpha:1")};
    const runner::SweepRun run = run_synthetic(std::move(options));
    EXPECT_EQ(run.failed, 1u);
    EXPECT_EQ(run.outcomes[1].status, runner::TrialStatus::kFailed);
}

TEST(FaultInjection, HangIsBoundedByTheWatchdogAndNeverRetried)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("hang@alpha:0")};
    options.trial_timeout = 1000;
    options.retries = 3;  // timeouts are deterministic: retrying is futile
    const runner::SweepRun run = run_synthetic(std::move(options));

    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
    EXPECT_EQ(run.outcomes[0].attempts, 1u);
    EXPECT_NE(run.outcomes[0].error.find("budget"), std::string::npos)
        << run.outcomes[0].error;
    EXPECT_EQ(run.completed, 2u);
    EXPECT_EQ(run.failed, 1u);

    const std::string json = json_of(run);
    EXPECT_NE(json.find("\"status\": \"timed_out\""), std::string::npos);
}

TEST(FaultInjection, HangWithoutTimeoutFailsWithGuidance)
{
    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("hang@alpha:0")};
    const runner::SweepRun run = run_synthetic(std::move(options));
    ASSERT_EQ(run.outcomes.size(), 3u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kFailed);
    EXPECT_NE(run.outcomes[0].error.find("--trial-timeout"),
              std::string::npos)
        << run.outcomes[0].error;
}

TEST(FaultInjection, CorruptionIsSilentDeterministicAndSeedDerived)
{
    const std::string clean = json_of(run_synthetic(base_options()));

    runner::SweepOptions options = base_options();
    options.faults = {runner::parse_fault("corrupt@alpha:1")};
    const runner::SweepRun first = run_synthetic(options);
    const runner::SweepRun second = run_synthetic(options);

    // Silent: the trial still reports ok...
    EXPECT_EQ(first.failed, 0u);
    EXPECT_EQ(first.outcomes[1].status, runner::TrialStatus::kOk);
    // ...corrupted: the report differs from a clean run...
    EXPECT_NE(json_of(first), clean);
    // ...deterministic: the perturbation replays exactly.
    EXPECT_EQ(json_of(first), json_of(second));
}

TEST(FaultInjection, TimeoutFromTheTrialBodyIsRecorded)
{
    runner::SweepOptions options = base_options();
    options.trial_timeout = 100;
    options.retries = 2;
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("ticking", 1, [](const runner::TrialContext &ctx) {
        for (int i = 0; i < 10000; ++i)
            ctx.watchdog().tick();
        return runner::TrialResult{};
    });
    const runner::SweepRun run = sweep.run();
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_EQ(run.outcomes[0].status, runner::TrialStatus::kTimedOut);
    EXPECT_EQ(run.outcomes[0].attempts, 1u);
}

// ---------------------------------------------------------------------------
// Journal: round-trip, recovery, rejection
// ---------------------------------------------------------------------------

/**
 * The campaign of the two-scenario synthetic sweep (alpha and beta, 3
 * trials each) under @p sweep and @p master_seed — what a reader checks
 * journals against.
 */
runner::Campaign
synthetic_campaign(const std::string &sweep = "synthetic",
                   std::uint64_t master_seed = 0x5eedULL)
{
    runner::SweepOptions options = base_options();
    options.name = sweep;
    options.master_seed = master_seed;
    runner::Sweep s(options);
    s.add_scenario("alpha", 3, synthetic_result);
    s.add_scenario("beta", 3, synthetic_result);
    return s.campaign();
}

/** Reads @p path as shard 0 of a one-shard @p campaign. */
std::vector<runner::JournalRecord>
read_one_shard(const std::string &path, const runner::Campaign &campaign)
{
    return runner::read_journal(path, campaign, 0, 1);
}

/** Opens a fresh one-shard journal of @p campaign at @p path. */
void
open_fresh(runner::JournalWriter &writer, const std::string &path,
           const runner::Campaign &campaign)
{
    writer.open(path, campaign.header(0, 1));
}

std::size_t
file_size(const std::string &path)
{
    return slurp(path).size();
}

TEST(Journal, RoundTripsEveryFieldBitExactly)
{
    const std::string path = temp_path("roundtrip.journal");
    const runner::Campaign campaign = synthetic_campaign();

    const runner::TrialSpec &spec = campaign.plan[2];  // alpha/2
    runner::TrialOutcome out;
    out.status = runner::TrialStatus::kFailed;
    out.error = "trial failed [scenario=alpha]: caused by: boom";
    out.attempts = 3;
    out.result.set_value("mean_ms", 1.0 / 3.0);  // not exactly printable
    out.result.set_value("neg_zero", -0.0);
    out.result.set_counter("flips", 0xdeadbeefcafeULL);
    detector::AnvilStats anvil{};
    anvil.stage1_windows = 11;
    anvil.stage1_triggers = 22;
    anvil.stage2_windows = 33;
    anvil.detections = 44;
    anvil.selective_refreshes = 55;
    anvil.false_positive_detections = 66;
    anvil.false_positive_refreshes = 77;
    anvil.overhead = 88;
    out.result.set_anvil(anvil);
    dram::DramSystem::Stats dram{};
    dram.accesses = 101;
    dram.row_hits = 102;
    dram.row_misses = 103;
    dram.selective_refreshes = 104;
    dram.refresh_stall = 105;
    out.result.set_dram(dram);

    {
        runner::JournalWriter writer;
        open_fresh(writer, path, campaign);
        ASSERT_TRUE(writer.is_open());
        writer.append(spec, out);
        // A second, minimal record: ok status, no stat blocks.
        runner::TrialOutcome ok;
        ok.result.set_counter("events", 9);
        writer.append(campaign.plan[3], ok);  // beta/0
    }

    const std::vector<runner::JournalRecord> records =
        read_one_shard(path, campaign);
    ASSERT_EQ(records.size(), 2u);

    const runner::JournalRecord &rec = records[0];
    EXPECT_EQ(rec.spec.scenario, "alpha");
    EXPECT_EQ(rec.spec.trial, 2u);
    EXPECT_EQ(rec.spec.seed, spec.seed);
    EXPECT_EQ(rec.spec.global_index, 2u);
    EXPECT_EQ(rec.outcome.status, runner::TrialStatus::kFailed);
    EXPECT_EQ(rec.outcome.error, out.error);
    EXPECT_EQ(rec.outcome.attempts, 3u);
    ASSERT_EQ(rec.outcome.result.values().size(), 2u);
    EXPECT_EQ(rec.outcome.result.values()[0].first, "mean_ms");
    EXPECT_EQ(rec.outcome.result.values()[0].second, 1.0 / 3.0);
    EXPECT_TRUE(std::signbit(rec.outcome.result.values()[1].second));
    ASSERT_EQ(rec.outcome.result.counters().size(), 1u);
    EXPECT_EQ(rec.outcome.result.counters()[0].second,
              0xdeadbeefcafeULL);
    ASSERT_TRUE(rec.outcome.result.has_anvil());
    EXPECT_EQ(rec.outcome.result.anvil().false_positive_refreshes, 77u);
    EXPECT_EQ(rec.outcome.result.anvil().overhead, 88u);
    ASSERT_TRUE(rec.outcome.result.has_dram());
    EXPECT_EQ(rec.outcome.result.dram().refresh_stall, 105u);

    EXPECT_EQ(records[1].spec.scenario, "beta");
    EXPECT_EQ(records[1].spec.global_index, 3u);
    EXPECT_FALSE(records[1].outcome.result.has_anvil());
    EXPECT_FALSE(records[1].outcome.result.has_dram());
}

TEST(Journal, TornTrailingRecordIsTruncatedAway)
{
    const std::string path = temp_path("torn.journal");
    const runner::Campaign campaign = synthetic_campaign("synthetic", 1);
    runner::TrialOutcome ok;
    ok.result.set_counter("events", 1);
    {
        runner::JournalWriter writer;
        open_fresh(writer, path, campaign);
        writer.append(campaign.plan[0], ok);
        writer.append(campaign.plan[1], ok);
    }
    const std::size_t intact = file_size(path);
    // Emulate a crash mid-append: a length prefix promising 48 bytes,
    // followed by only a few.
    {
        std::ofstream app(path, std::ios::binary | std::ios::app);
        const char torn[] = {48, 0, 0, 0, 'x', 'y', 'z'};
        app.write(torn, sizeof torn);
    }
    const std::string torn_bytes = slurp(path);
    ASSERT_EQ(torn_bytes.size(), intact + 7);

    // Reading recovers the intact prefix and leaves the file alone, every
    // time: a reader (merge --check, the supervisor) never writes.
    for (int read = 0; read < 2; ++read) {
        const std::vector<runner::JournalRecord> recovered =
            read_one_shard(path, campaign);
        ASSERT_EQ(recovered.size(), 2u);
        EXPECT_EQ(recovered[1].spec.trial, 1u);
        EXPECT_EQ(slurp(path), torn_bytes) << "read #" << read;
    }

    // The reader reports the intact length; the appender resumed there
    // cuts the torn tail, and new records follow the intact ones cleanly.
    std::uint64_t resume_at = 0;
    ASSERT_EQ(runner::read_journal(path, campaign, 0, 1, &resume_at).size(),
              2u);
    EXPECT_EQ(resume_at, intact);
    {
        runner::JournalWriter writer;
        writer.open(path, campaign.header(0, 1), resume_at);
        EXPECT_EQ(file_size(path), intact);
        writer.append(campaign.plan[2], ok);
    }
    const std::vector<runner::JournalRecord> appended =
        read_one_shard(path, campaign);
    ASSERT_EQ(appended.size(), 3u);
    EXPECT_EQ(appended[2].spec.trial, 2u);
    EXPECT_EQ(slurp(path).substr(0, intact), torn_bytes.substr(0, intact));
}

/**
 * Every truncation, every single-byte flip, every single-byte insertion
 * and a few appended tails of a small real journal (header, a lease
 * record, two trial records): the reader either refuses it with an
 * Error or returns a prefix of the original records, and never changes
 * the file's bytes.
 */
TEST(Journal, DecoderSurvivesEveryTruncationAndByteFlip)
{
    const std::string path = temp_path("fuzz.journal");
    const runner::Campaign campaign = synthetic_campaign();
    std::vector<std::string> originals;
    {
        runner::JournalWriter writer;
        open_fresh(writer, path, campaign);
        writer.append_lease(0);
        for (const std::size_t i : {std::size_t{0}, std::size_t{4}}) {
            runner::TrialOutcome outcome;
            outcome.result =
                synthetic_result(runner::TrialContext(campaign.plan[i]));
            writer.append(campaign.plan[i], outcome);
            originals.push_back(runner::encode_journal_payload(
                campaign.plan[i], outcome));
        }
    }
    const std::string journal = slurp(path);
    ASSERT_EQ(read_one_shard(path, campaign).size(), 2u);

    std::size_t refused = 0, prefixes = 0;
    const auto check = [&](const std::string &bytes,
                           const std::string &what) {
        { std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes; }
        try {
            const std::vector<runner::JournalRecord> records =
                read_one_shard(path, campaign);
            ASSERT_LE(records.size(), originals.size()) << what;
            for (std::size_t r = 0; r < records.size(); ++r) {
                EXPECT_EQ(runner::encode_journal_payload(records[r].spec,
                                                         records[r].outcome),
                          originals[r])
                    << what << ": record " << r;
            }
            ++prefixes;
        } catch (const Error &) {
            ++refused;
        }
        EXPECT_EQ(slurp(path), bytes) << what << ": the reader wrote";
    };
    for (std::size_t size = 0; size < journal.size(); ++size)
        check(journal.substr(0, size), "truncated to " + std::to_string(size));
    for (std::size_t at = 0; at < journal.size(); ++at) {
        std::string flipped = journal;
        flipped[at] = static_cast<char>(flipped[at] ^ 0xff);
        check(flipped, "byte " + std::to_string(at) + " flipped");
    }
    for (std::size_t at = 0; at <= journal.size(); ++at) {
        std::string inserted = journal;
        inserted.insert(at, 1, '\x5a');
        check(inserted, "byte inserted at " + std::to_string(at));
    }
    // Appended tails: a stray byte, an empty frame with a wrong checksum,
    // a length promising more than follows, and a run of 0xff.
    for (const std::string &tail :
         {std::string(1, '\0'), std::string(12, '\0'),
          std::string("\x40\0\0\0", 4) + std::string(8, '\x11') + "xyz",
          std::string(64, '\xff')}) {
        check(journal + tail,
              std::to_string(tail.size()) + " bytes appended");
    }
    // Both outcomes occur: header damage refuses, record damage recovers.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(prefixes, 0u);
    std::remove(path.c_str());
}

TEST(Journal, RejectsForeignFilesAndMismatchedSweeps)
{
    const runner::Campaign synthetic = synthetic_campaign("synthetic", 1);
    const std::string missing = temp_path("never_written.journal");
    EXPECT_TRUE(read_one_shard(missing, synthetic).empty());

    const std::string garbage = temp_path("garbage.journal");
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a journal";
    }
    EXPECT_THROW(read_one_shard(garbage, synthetic), Error);

    // A journal magic followed by an unsupported version, or by a header
    // cut short: each refusal names its own cause.
    const std::string magic = "ANVLJNL1";
    const std::string old_version = magic + std::string("\x01\0\0\0", 4);
    const std::string truncated =
        magic + std::string("\x02\0\0\0", 4) + "\x05";
    for (const auto &[bytes, cause] :
         {std::pair{old_version, "version is not supported"},
          std::pair{truncated, "header is truncated"}}) {
        const std::string path = temp_path("bad_header.journal");
        std::ofstream(path, std::ios::binary) << bytes;
        try {
            read_one_shard(path, synthetic);
            FAIL() << "accepted a journal whose " << cause;
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
                << e.what();
        }
    }

    const std::string other = temp_path("other_sweep.journal");
    {
        runner::JournalWriter writer;
        open_fresh(writer, other, synthetic_campaign("sweep_a", 1));
    }
    // Different name or master seed: refuse, with guidance.
    try {
        read_one_shard(other, synthetic_campaign("sweep_b", 1));
        FAIL() << "foreign journal accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("different sweep"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(read_one_shard(other, synthetic_campaign("sweep_a", 2)),
                 Error);

    // The append-side re-check refuses the same mismatch, and a resume
    // point past the end of the file.
    const std::uint64_t header_bytes = file_size(other);
    runner::JournalWriter writer;
    EXPECT_THROW(writer.open(other,
                             synthetic_campaign("sweep_b", 1).header(0, 1),
                             header_bytes),
                 Error);
    EXPECT_THROW(writer.open(other,
                             synthetic_campaign("sweep_a", 1).header(0, 1),
                             header_bytes + 1),
                 Error);
    EXPECT_EQ(file_size(other), header_bytes);
}

/**
 * A journal path that exists but cannot be opened (here a symlink loop)
 * is an error for the reader and the resume, never taken for a missing
 * journal that a resume would recreate empty.
 */
TEST(Journal, UnopenableJournalIsAnErrorNotAMissingOne)
{
    const std::string path = temp_path("loop.json");
    const std::string journal = runner::shard_journal_path(path, 0);
    std::remove(journal.c_str());
    ASSERT_EQ(::symlink(journal.c_str(), journal.c_str()), 0);
    const runner::Campaign campaign = synthetic_campaign();
    EXPECT_THROW(read_one_shard(journal, campaign), Error);

    runner::SweepOptions options = base_options();
    options.json_out = path;
    options.resume = true;
    runner::Sweep sweep(options);
    sweep.add_scenario("alpha", 3, synthetic_result);
    sweep.add_scenario("beta", 3, synthetic_result);
    EXPECT_THROW(sweep.run(), Error);
    std::remove(journal.c_str());
}

TEST(Journal, PlanHashIsAlwaysChecked)
{
    const runner::Campaign campaign = synthetic_campaign("synthetic", 1);
    // Same name and seed, a different plan — including an unrecorded
    // (zero) one: the journal describes some other computation.
    for (const std::uint64_t plan : {std::uint64_t{0}, std::uint64_t{7}}) {
        const std::string path = temp_path("plan.journal");
        {
            runner::JournalHeader header = campaign.header(0, 1);
            header.plan_hash = plan;
            runner::JournalWriter writer;
            writer.open(path, header);
        }
        try {
            read_one_shard(path, campaign);
            FAIL() << "journal of another plan accepted";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("different sweep plan"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Journal, RecordThatContradictsThePlanIsRefused)
{
    // The header matches, but a record's seed is not the plan's seed at
    // its global index: the record is no fact about this campaign.
    const std::string path = temp_path("record_mismatch.journal");
    const runner::Campaign campaign = synthetic_campaign();
    runner::TrialSpec forged = campaign.plan[1];
    forged.seed ^= 1;
    {
        runner::JournalWriter writer;
        open_fresh(writer, path, campaign);
        writer.append(campaign.plan[0], runner::TrialOutcome{});
        writer.append(forged, runner::TrialOutcome{});
    }
    try {
        read_one_shard(path, campaign);
        FAIL() << "record contradicting the plan accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("does not match the sweep plan"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------------
// Drain + resume: the recovery guarantee end to end
// ---------------------------------------------------------------------------

/** Builds the reference two-scenario sweep over @p fn. */
runner::Sweep
two_scenario_sweep(runner::SweepOptions options, runner::TrialFn fn)
{
    runner::Sweep sweep(std::move(options));
    sweep.add_scenario("alpha", 3, fn);
    sweep.add_scenario("beta", 3, fn);
    return sweep;
}

TEST(Resume, DrainedSweepResumesToByteIdenticalJson)
{
    ShutdownGuard guard;

    // Reference: the uninterrupted run.
    const std::string ref_json = temp_path("resume_ref.json");
    runner::SweepOptions ref_options = base_options();
    ref_options.json_out = ref_json;
    {
        runner::SweepRun run =
            two_scenario_sweep(ref_options, synthetic_result).run();
        EXPECT_EQ(runner::finish_sweep(run, ref_options), runner::kExitOk);
        EXPECT_FALSE(file_exists(runner::shard_journal_path(ref_json, 0)))
            << "a committed report must remove its journal";
    }
    const std::string reference = slurp(ref_json);
    ASSERT_FALSE(reference.empty());

    // Interrupted: a shutdown request lands after the second trial, as if
    // SIGTERM arrived mid-sweep. Serial jobs make the cut deterministic.
    const std::string out_json = temp_path("resume_out.json");
    runner::SweepOptions options = base_options();
    options.json_out = out_json;
    {
        runner::SweepRun run =
            two_scenario_sweep(
                options,
                [](const runner::TrialContext &ctx) {
                    runner::TrialResult r = synthetic_result(ctx);
                    if (ctx.spec().global_index == 1)
                        runner::request_shutdown();
                    return r;
                })
                .run();
        EXPECT_EQ(run.completed, 2u);
        EXPECT_EQ(run.skipped, 4u);
        EXPECT_FALSE(run.complete());
        EXPECT_EQ(runner::finish_sweep(run, options),
                  runner::kExitPartial);
        EXPECT_FALSE(file_exists(out_json))
            << "a partial run must not write final JSON";
        EXPECT_TRUE(file_exists(runner::shard_journal_path(out_json, 0)))
            << "the journal must survive for --resume";
    }

    // Resume: replay the journal, run only the remainder.
    runner::clear_shutdown();
    options.resume = true;
    {
        runner::SweepRun run =
            two_scenario_sweep(options, synthetic_result).run();
        EXPECT_EQ(run.resumed, 2u);
        EXPECT_EQ(run.skipped, 0u);
        EXPECT_TRUE(run.complete());
        EXPECT_EQ(runner::finish_sweep(run, options), runner::kExitOk);
    }
    EXPECT_EQ(slurp(out_json), reference)
        << "resume must be byte-identical to an uninterrupted run";
    EXPECT_FALSE(file_exists(runner::shard_journal_path(out_json, 0)));
}

TEST(Resume, RefusesAJournalThatContradictsThePlan)
{
    ShutdownGuard guard;
    const std::string out_json = temp_path("resume_mismatch.json");

    runner::SweepOptions options = base_options();
    options.json_out = out_json;
    {
        runner::Sweep sweep(options);
        sweep.add_scenario("alpha", 2,
                           [](const runner::TrialContext &ctx) {
                               runner::request_shutdown();
                               return synthetic_result(ctx);
                           });
        runner::SweepRun run = sweep.run();
        EXPECT_EQ(runner::finish_sweep(run, options),
                  runner::kExitPartial);
    }

    // Same name, same seed — but the sweep definition changed (different
    // scenario), so the journaled record no longer matches the plan.
    runner::clear_shutdown();
    options.resume = true;
    runner::Sweep changed(options);
    changed.add_scenario("gamma", 2, synthetic_result);
    try {
        changed.run();
        FAIL() << "resume accepted a journal from a different plan";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("sweep plan"),
                  std::string::npos)
            << e.what();
    }
    std::remove(runner::shard_journal_path(out_json, 0).c_str());
}

TEST(Output, JsonWritesAreAtomicAndFailuresAreReported)
{
    const runner::ResultSink sink;

    runner::SweepOptions good = base_options();
    good.json_out = temp_path("atomic.json");
    EXPECT_TRUE(runner::write_json_output(sink, good));
    const std::string written = slurp(good.json_out);
    EXPECT_EQ(written.front(), '{');

    runner::SweepOptions bad = base_options();
    bad.json_out = ::testing::TempDir() + "no_such_dir/never.json";
    EXPECT_FALSE(runner::write_json_output(sink, bad));

    runner::SweepOptions none = base_options();  // no report requested
    EXPECT_TRUE(runner::write_json_output(sink, none));
}

TEST(Output, UnwritableReportPathStillRunsAndExitsJsonError)
{
    // The journal lives next to the report, so an unwritable destination
    // also fails journal creation. That must degrade (run unjournaled),
    // not abort: the sweep completes and the unwritable report keeps its
    // documented exit code.
    runner::SweepOptions options = base_options();
    options.json_out = ::testing::TempDir() + "no_such_dir/report.json";
    const runner::SweepRun run = run_synthetic(options);
    EXPECT_EQ(run.completed, 3u);
    EXPECT_EQ(runner::finish_sweep(run, options),
              runner::kExitJsonError);
}

}  // namespace
}  // namespace anvil
