/**
 * @file
 * Tests for the parallel experiment runner: thread-pool behaviour, the
 * deterministic seed chain, JSON formatting, and the headline guarantee —
 * a parallel sweep emits byte-identical aggregated JSON to a serial one
 * with the same master seed, including on a real Table-3-style
 * detection sweep.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "anvil/anvil.hh"
#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/error.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "pmu/pmu.hh"
#include "runner/json.hh"
#include "runner/options.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "runner/trial.hh"

namespace anvil {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    runner::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable)
{
    runner::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { count.fetch_add(1); });
    pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    runner::ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, SurvivesThrowingTasks)
{
    runner::ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&, i] {
            if (i % 3 == 0)
                throw std::runtime_error("task blew up");
            count.fetch_add(1);
        });
    }
    pool.wait_idle();
    // Every non-throwing task still ran; no worker died, no terminate.
    EXPECT_EQ(count.load(), 13);
    pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 14);
}

// ---------------------------------------------------------------------------
// Error + Watchdog
// ---------------------------------------------------------------------------

TEST(Error, RendersContextAndCauseDeterministically)
{
    Error e = Error("trial failed")
                  .with("scenario", std::string("alpha"))
                  .with("trial", std::uint64_t{3})
                  .with_hex("seed", 0xbeef)
                  .caused_by(std::runtime_error("boom"));
    EXPECT_STREQ(e.what(),
                 "trial failed [scenario=alpha, trial=3, seed=0xbeef]: "
                 "caused by: boom");
}

TEST(Error, NestedCausesFlattenIntoOneChain)
{
    const Error inner = Error("disk unhappy").with("path", std::string("x"));
    const Error outer = Error("journal write failed").caused_by(inner);
    EXPECT_STREQ(outer.what(), "journal write failed: caused by: "
                               "disk unhappy [path=x]");
}

TEST(Watchdog, UnarmedNeverFires)
{
    runner::Watchdog wd;
    EXPECT_FALSE(wd.armed());
    for (int i = 0; i < 1000; ++i)
        wd.tick();
    EXPECT_EQ(wd.used(), 0u);
}

TEST(Watchdog, FiresExactlyAtItsBudget)
{
    runner::Watchdog wd;
    wd.arm(10);
    EXPECT_TRUE(wd.armed());
    for (int i = 0; i < 9; ++i)
        wd.tick();
    EXPECT_EQ(wd.used(), 9u);
    EXPECT_THROW(wd.tick(), TimeoutError);
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(TrialSeed, IsDeterministic)
{
    EXPECT_EQ(runner::trial_seed(42, "scenario", 3),
              runner::trial_seed(42, "scenario", 3));
    EXPECT_EQ(runner::sub_seed(7, "vm"), runner::sub_seed(7, "vm"));
}

TEST(TrialSeed, SeparatesScenariosTrialsAndMasters)
{
    std::set<std::uint64_t> seeds;
    for (const char *scenario : {"a", "b", "ab"}) {
        for (std::uint64_t trial = 0; trial < 8; ++trial) {
            for (std::uint64_t master : {1ULL, 2ULL}) {
                seeds.insert(
                    runner::trial_seed(master, scenario, trial));
            }
        }
    }
    EXPECT_EQ(seeds.size(), 3u * 8u * 2u) << "seed collision";
}

TEST(TrialSeed, SubStreamsAreDecorrelated)
{
    const std::uint64_t seed = runner::trial_seed(1, "x", 0);
    EXPECT_NE(runner::sub_seed(seed, "vm"),
              runner::sub_seed(seed, "workload"));
    EXPECT_NE(runner::sub_seed(seed, "vm"), seed);
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, WritesNestedDocument)
{
    std::ostringstream os;
    runner::JsonWriter json(os);
    json.begin_object();
    json.field("name", "t\"est\n");
    json.field("count", std::uint64_t{3});
    json.field("ratio", 0.5);
    json.key("list").begin_array();
    json.value(std::uint64_t{1});
    json.value(std::uint64_t{2});
    json.end_array();
    json.end_object();

    EXPECT_EQ(os.str(), "{\n"
                        "  \"name\": \"t\\\"est\\n\",\n"
                        "  \"count\": 3,\n"
                        "  \"ratio\": 0.5,\n"
                        "  \"list\": [\n"
                        "    1,\n"
                        "    2\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, DoubleFormatIsStableAndRoundTrips)
{
    EXPECT_EQ(runner::JsonWriter::format_double(0.0), "0");
    EXPECT_EQ(runner::JsonWriter::format_double(42.0), "42");
    EXPECT_EQ(runner::JsonWriter::format_double(-3.0), "-3");
    // Non-integral values round-trip through %.17g.
    const double v = 1.0 / 3.0;
    EXPECT_EQ(std::stod(runner::JsonWriter::format_double(v)), v);
    EXPECT_EQ(runner::JsonWriter::format_double(
                  std::numeric_limits<double>::infinity()),
              "null");
}

// ---------------------------------------------------------------------------
// Sweep engine on synthetic trials
// ---------------------------------------------------------------------------

/** Cheap deterministic trial: metrics are pure functions of the seed. */
runner::TrialResult
synthetic_trial(const runner::TrialContext &ctx)
{
    runner::TrialResult r;
    r.set_value("seed_unit",
                static_cast<double>(ctx.seed() % 1000) / 1000.0);
    r.set_counter("seed_low", ctx.seed() % 17);
    return r;
}

runner::SweepOptions
synthetic_options(unsigned jobs)
{
    runner::SweepOptions opts;
    opts.name = "synthetic";
    opts.jobs = jobs;
    opts.master_seed = 99;
    return opts;
}

std::string
run_synthetic_json(unsigned jobs)
{
    runner::Sweep sweep(synthetic_options(jobs));
    sweep.add_scenario("alpha", 25, synthetic_trial);
    sweep.add_scenario("beta", 25, synthetic_trial);
    const runner::SweepRun run = sweep.run();
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

TEST(Sweep, ParallelJsonIsByteIdenticalToSerial)
{
    const std::string serial = run_synthetic_json(1);
    const std::string parallel = run_synthetic_json(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"schema\": \"anvil-sweep-v1\""),
              std::string::npos);
}

TEST(Sweep, ReplaySelectsExactlyOneTrial)
{
    runner::SweepOptions opts = synthetic_options(1);
    // Global indices: alpha = 0..24, beta = 25..49.
    opts.replay_trial = 26;
    runner::Sweep sweep(opts);
    sweep.add_scenario("alpha", 25, synthetic_trial);
    sweep.add_scenario("beta", 25, synthetic_trial);
    const runner::SweepRun run = sweep.run();
    const runner::ResultSink &sink = run.sink;

    ASSERT_EQ(sink.total_trials(), 1u);
    const runner::ScenarioAggregate *beta = sink.find("beta");
    ASSERT_NE(beta, nullptr);
    EXPECT_EQ(sink.find("alpha"), nullptr);
    // The replayed trial must see the identical derived seed.
    const std::uint64_t seed = runner::trial_seed(99, "beta", 1);
    EXPECT_EQ(beta->counter_sum("seed_low"), seed % 17);
}

TEST(Sweep, TrialExceptionBecomesErrorNotCrash)
{
    runner::Sweep sweep(synthetic_options(2));
    sweep.add_scenario("flaky", 4, [](const runner::TrialContext &ctx) {
        if (ctx.spec().trial == 2)
            throw std::runtime_error("boom");
        return synthetic_trial(ctx);
    });
    const runner::SweepRun run = sweep.run();
    const runner::ResultSink &sink = run.sink;
    const runner::ScenarioAggregate *agg = sink.find("flaky");
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->trials(), 4u);
    EXPECT_EQ(agg->errors(), 1u);
    EXPECT_EQ(sink.total_errors(), 1u);
    EXPECT_EQ(run.failed, 1u);
    EXPECT_EQ(run.completed, 3u);
    EXPECT_TRUE(run.complete());
    // The failure is a record, not just a counter: scenario, cause, and
    // the trial's own seed all land in the rendered error.
    ASSERT_EQ(agg->failures().size(), 1u);
    const runner::TrialFailure &failure = agg->failures().front();
    EXPECT_EQ(failure.trial, 2u);
    EXPECT_EQ(failure.status, runner::TrialStatus::kFailed);
    EXPECT_NE(failure.error.find("boom"), std::string::npos);
    EXPECT_NE(failure.error.find("scenario=flaky"), std::string::npos);
    // Only the three healthy trials contribute observations.
    ASSERT_NE(agg->value_stat("seed_unit"), nullptr);
    EXPECT_EQ(agg->value_stat("seed_unit")->count(), 3u);
}

TEST(Sweep, DerivedValuesAppearInJson)
{
    runner::Sweep sweep(synthetic_options(1));
    sweep.add_scenario("alpha", 2, synthetic_trial);
    runner::SweepRun run = sweep.run();
    runner::ResultSink &sink = run.sink;
    sink.set_derived("alpha", "twice_mean",
                     2.0 * sink.scenario("alpha").value_mean("seed_unit"));
    std::ostringstream os;
    sink.write_json(os);
    EXPECT_NE(os.str().find("\"twice_mean\""), std::string::npos);
}

TEST(ResultSink, ReadOnlyLookupsThrowNamingWhatIsMissing)
{
    runner::Sweep sweep(synthetic_options(1));
    sweep.add_scenario("alpha", 2, synthetic_trial);
    runner::SweepRun run = sweep.run();
    run.sink.set_derived("alpha", "twice_mean", 2.0);
    const runner::ResultSink &sink = run.sink;

    EXPECT_EQ(sink.at("alpha").trials(), 2u);
    EXPECT_EQ(sink.at("alpha").derived("twice_mean"), 2.0);
    try {
        sink.at("beta");
        FAIL() << "at() returned a scenario the sweep never ran";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("scenario=beta"),
                  std::string::npos)
            << e.what();
    }
    try {
        sink.at("alpha").derived("thrice_mean");
        FAIL() << "derived() returned a value never set";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("derived=thrice_mean"),
                  std::string::npos)
            << e.what();
    }
    // Unlike scenario(), a failed lookup adds nothing to the report.
    EXPECT_EQ(sink.scenarios().size(), 1u);
}

// ---------------------------------------------------------------------------
// CLI parsing
// ---------------------------------------------------------------------------

TEST(CliOptions, ParsesRunnerFlagsAndPositionals)
{
    const char *argv[] = {"bench",          "--jobs",   "4",
                          "--master-seed",  "0x10",     "--trials=9",
                          "--json-out",     "out.json", "--replay-trial",
                          "7",              "2.5"};
    runner::CliOptions opts = runner::CliOptions::parse(
        static_cast<int>(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(opts.sweep.jobs, 4u);
    EXPECT_EQ(opts.sweep.master_seed, 0x10u);
    EXPECT_EQ(opts.trials, 9u);
    EXPECT_EQ(opts.trials_or(6), 9u);
    EXPECT_EQ(opts.sweep.json_out, "out.json");
    ASSERT_TRUE(opts.sweep.replay_trial.has_value());
    EXPECT_EQ(*opts.sweep.replay_trial, 7u);
    ASSERT_EQ(opts.positional.size(), 1u);
    EXPECT_DOUBLE_EQ(opts.positional_double(0, 3.0), 2.5);
    EXPECT_DOUBLE_EQ(opts.positional_double(1, 3.0), 3.0);
}

TEST(CliOptions, ParsesFaultToleranceFlags)
{
    const char *argv[] = {"bench",
                          "--retries",
                          "2",
                          "--trial-timeout=5000",
                          "--json-out",
                          "out.json",
                          "--resume",
                          "--inject-fault",
                          "throw@alpha:3",
                          "--inject-fault=hang@beta:0"};
    runner::CliOptions opts = runner::CliOptions::parse(
        static_cast<int>(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(opts.sweep.retries, 2u);
    EXPECT_EQ(opts.sweep.trial_timeout, 5000u);
    EXPECT_TRUE(opts.sweep.resume);
    ASSERT_EQ(opts.sweep.faults.size(), 2u);
    EXPECT_EQ(opts.sweep.faults[0].kind, runner::FaultKind::kThrow);
    EXPECT_EQ(opts.sweep.faults[0].scenario, "alpha");
    EXPECT_EQ(opts.sweep.faults[0].trial, 3u);
    EXPECT_EQ(opts.sweep.faults[1].kind, runner::FaultKind::kHang);
    EXPECT_EQ(opts.sweep.faults[1].scenario, "beta");
    EXPECT_EQ(opts.sweep.faults[1].trial, 0u);
}

TEST(CliOptions, DefaultsLeaveBenchDefaultsAlone)
{
    const char *argv[] = {"bench"};
    runner::CliOptions opts =
        runner::CliOptions::parse(1, const_cast<char **>(argv));
    EXPECT_EQ(opts.trials_or(6), 6u);
    EXPECT_FALSE(opts.sweep.replay_trial.has_value());
    EXPECT_TRUE(opts.sweep.json_out.empty());
}

/** Parses @p args after a program name; a bad flag exits the process. */
void
parse_flags(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    (void)runner::CliOptions::parse(static_cast<int>(args.size()),
                                    const_cast<char **>(args.data()));
}

TEST(CliOptions, RejectsSignedOverflowingAndTruncatedFlagValues)
{
    using ::testing::ExitedWithCode;
    // strtoull would wrap "-1" to 2^64-1 (4294967295 worker threads).
    EXPECT_EXIT(parse_flags({"--jobs", "-1"}), ExitedWithCode(2),
                "bad value for --jobs");
    EXPECT_EXIT(parse_flags({"--retries=-2"}), ExitedWithCode(2),
                "bad value for --retries");
    EXPECT_EXIT(parse_flags({"--trials", " 3"}), ExitedWithCode(2),
                "bad value for --trials");
    // Past 2^64: strtoull saturates and sets ERANGE.
    EXPECT_EXIT(parse_flags({"--master-seed", "18446744073709551616"}),
                ExitedWithCode(2), "bad value for --master-seed");
    // Past 2^32 on a 32-bit knob: 4294967297 would truncate to 1 shard.
    EXPECT_EXIT(parse_flags({"--shard-index", "0", "--shard-count",
                             "4294967297", "--json-out", "x.json"}),
                ExitedWithCode(2), "bad value for --shard-count");
    EXPECT_EXIT(parse_flags({"--shards", "4294967296"}), ExitedWithCode(2),
                "bad value for --shards");
    // An empty inline value must not swallow the next argument (the
    // report would be written to a file named "--jobs").
    EXPECT_EXIT(parse_flags({"--json-out=", "--jobs", "1"}),
                ExitedWithCode(2), "--json-out needs a value");
    EXPECT_EXIT(parse_flags({"--master-seed=", "5"}), ExitedWithCode(2),
                "--master-seed needs a value");
}

TEST(CliOptions, RejectsNonNumericPositionals)
{
    for (const char *text : {"abc", "", "0.2s", "-1", "nan", "inf", "1e999"}) {
        runner::CliOptions opts;
        opts.positional = {text};
        EXPECT_THROW((void)opts.positional_double(0, 3.0), Error)
            << "'" << text << "'";
    }
    runner::CliOptions opts;
    opts.positional = {"0.2", "20000", "1e3"};
    EXPECT_DOUBLE_EQ(opts.positional_double(0, 3.0), 0.2);
    EXPECT_DOUBLE_EQ(opts.positional_double(1, 3.0), 20000.0);
    EXPECT_DOUBLE_EQ(opts.positional_double(2, 3.0), 1000.0);
}

// ---------------------------------------------------------------------------
// End-to-end: a Table-3-style detection sweep, parallel vs serial
// ---------------------------------------------------------------------------

/**
 * A shortened Table-3 trial: fresh machine, CLFLUSH double-sided attack
 * under ANVIL-baseline for 20 ms. Heavy enough to exercise the whole
 * stack (VM, caches, DRAM disturbance, detector, per-trial seeds), short
 * enough for CI.
 */
runner::TrialResult
detection_trial(const runner::TrialContext &ctx)
{
    mem::SystemConfig config;
    config.vm_seed = ctx.seed_for("vm");
    mem::MemorySystem machine(config);
    pmu::Pmu pmu(machine);

    mem::AddressSpace &attacker = machine.create_process();
    const std::uint64_t buffer_bytes = 16ULL << 20;
    const Addr buffer = attacker.mmap(buffer_bytes);
    attack::MemoryLayout layout(attacker, machine.dram().address_map(),
                                machine.hierarchy());
    layout.scan(buffer, buffer_bytes);
    const auto targets = layout.find_double_sided_targets(4);
    if (targets.empty())
        throw std::runtime_error("no double-sided target");

    detector::Anvil anvil(machine, pmu,
                          detector::AnvilConfig::baseline());
    anvil.set_ground_truth([] { return true; });
    anvil.start();

    // Attack begins at a seed-dependent window phase.
    machine.advance(us(100) + ctx.seed_for("phase") % us(5000));

    attack::ClflushDoubleSided hammer(machine, attacker.pid(),
                                      targets.front());
    const Tick start = machine.now();
    while (machine.now() < start + ms(20))
        hammer.step();

    runner::TrialResult r;
    r.set_counter("flips", machine.dram().flips().size());
    r.set_counter("detections", anvil.stats().detections);
    r.set_value("attack_ms", to_ms(machine.now() - start));
    if (!anvil.detections().empty()) {
        r.set_value("detect_ms",
                    to_ms(anvil.detections().front().time - start));
    }
    r.set_anvil(anvil.stats());
    r.set_dram(machine.dram().stats());
    return r;
}

std::string
run_detection_sweep_json(unsigned jobs)
{
    runner::SweepOptions opts;
    opts.name = "table3_style";
    opts.jobs = jobs;
    opts.master_seed = 0x5eed;
    runner::Sweep sweep(opts);
    sweep.add_scenario("clflush/phase-a", 2, detection_trial);
    sweep.add_scenario("clflush/phase-b", 2, detection_trial);
    const runner::SweepRun run = sweep.run();
    std::ostringstream os;
    run.sink.write_json(os);
    return os.str();
}

TEST(SweepEndToEnd, DetectionSweepParallelMatchesSerialByteForByte)
{
    const std::string serial = run_detection_sweep_json(1);
    const std::string parallel = run_detection_sweep_json(4);
    EXPECT_EQ(serial, parallel);
    // The sweep actually detected the attacks (sanity that the trials
    // are real, not vacuous).
    EXPECT_NE(serial.find("\"detections\""), std::string::npos);
}

}  // namespace
}  // namespace anvil
