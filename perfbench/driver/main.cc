/**
 * @file
 * perfbench-sweeps: times one catalog sweep end to end and layer by layer.
 *
 *   perfbench-sweeps --workload hammer|benign|zoo --seed N --seconds S
 *                    --trace 0|1 [--size full|tiny] [--expected-dir DIR]
 *                    [--out-dir DIR] [--commit LABEL] [--alter-expected]
 *   perfbench-sweeps --workload W --seed N [--size S] --record-expected
 *
 * A run builds its own runner::Sweep of the workload's cells (validated,
 * per-cell trial counts as make_sweep registers them) on one job, with a
 * TrialFn that times ScenarioBuilder::build(), run() and emit(). The
 * runner's pool, result sink and checkpoint journal are on the measured
 * path. One run makes three kinds of pass over the same sweep:
 *   1. an observed pass (an access observer attached; also the warm-up);
 *   2. untraced passes, repeated for --seconds: the end-to-end metrics are
 *      their medians;
 *   3. with --trace 1, one traced pass that records every trial's access
 *      stream and replays it through each layer on its own, giving the
 *      per-layer metrics.
 * Every pass must emit identical per-trial results (FNV-1a of the journal
 * record encoding). When expected digests are committed for the seed, the
 * results must also equal them; every differing trial counts as failed.
 * The last line of stdout is one JSON object with the verdict and the
 * metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "scenario/builder.hh"
#include "scenario/validate.hh"
#include "workloads.hh"

using namespace anvil;
using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0x5eed;  ///< the runner's default master seed
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string expected_dir = "perfbench/expected";
    std::string out_dir = ".bench_build/perfbench/out";
    std::string commit = "unknown";
    bool alter_expected = false;
    bool record_expected = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench-sweeps: " << error << "\n"
              << "usage: perfbench-sweeps --workload hammer|benign|zoo "
                 "--seed N --seconds S --trace 0|1\n"
                 "       [--size full|tiny] [--expected-dir DIR] "
                 "[--out-dir DIR] [--commit LABEL]\n"
                 "       [--alter-expected] [--record-expected]\n";
    std::exit(2);
}

Args
parse_args(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (flag == "--size") {
                const std::string size = value();
                if (size != "full" && size != "tiny")
                    usage("--size must be full or tiny");
                a.tiny = size == "tiny";
            } else if (flag == "--expected-dir")
                a.expected_dir = value();
            else if (flag == "--out-dir")
                a.out_dir = value();
            else if (flag == "--commit")
                a.commit = value();
            else if (flag == "--alter-expected")
                a.alter_expected = true;
            else if (flag == "--record-expected")
                a.record_expected = true;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------------
// One pass over the sweep
// ---------------------------------------------------------------------------

enum class PassKind { kUntraced, kObserved, kTraced };

/** What one trial body measured. */
struct TrialRecord {
    double body_s = 0.0;  ///< build + run + emit (+ probes)
    double build_s = 0.0;
    double run_s = 0.0;
    LayerCounts counts;   ///< counter deltas over run()
    ReplayStats replay;
    std::uint64_t stream_digest = 0;
};

struct Pass {
    double wall_s = 0.0;   ///< Sweep::run + finalize + report write
    double sweep_s = 0.0;  ///< Sweep::run alone
    std::vector<runner::TrialSpec> plan;
    std::vector<TrialRecord> trials;  ///< by global index
    std::vector<std::uint64_t> digests;
    std::vector<bool> ok;
    runner::ResultSink sink;

    double
    sum(double TrialRecord::*field) const
    {
        double s = 0.0;
        for (const TrialRecord &t : trials)
            s += t.*field;
        return s;
    }

    std::uint64_t
    accesses() const
    {
        std::uint64_t n = 0;
        for (const TrialRecord &t : trials)
            n += t.counts.accesses;
        return n;
    }
};

/** Shared by the TrialFn calls of one pass (one job: no contention). */
struct PassState {
    PassKind kind = PassKind::kUntraced;
    std::vector<TrialRecord> trials;
    SpanLog *spans = nullptr;
    std::size_t sweep_span = SpanLog::kNoParent;
};

/** Opens/closes a span when a span log is present. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::size_t parent,
               std::uint64_t id)
        : log_(log),
          index_(log != nullptr ? log->open(name, parent, id)
                                : SpanLog::kNoParent)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanLog *log_;
    std::size_t index_;
};

runner::TrialResult
run_trial(const scenario::ScenarioSpec &cell, const runner::TrialContext &ctx,
          PassState &st)
{
    const std::uint64_t id = ctx.spec().global_index;
    TrialRecord &rec = st.trials.at(id);
    const Clock::time_point t0 = Clock::now();
    ScopedSpan trial(st.spans, "trial", st.sweep_span, id);

    scenario::ScenarioBuilder builder(cell, ctx);
    scenario::Execution *e = nullptr;
    {
        ScopedSpan span(st.spans, "build", trial.index(), id);
        e = &builder.build();
    }
    const Clock::time_point t1 = Clock::now();

    std::vector<RecordedAccess> stream;
    rec.stream_digest = fnv1a(nullptr, 0);
    if (st.kind == PassKind::kTraced)
        record_accesses(*e, stream);
    else if (st.kind == PassKind::kObserved)
        digest_accesses(*e, rec.stream_digest);
    const LayerCounts before = LayerCounts::read(*e);

    const Clock::time_point t2 = Clock::now();
    {
        ScopedSpan span(st.spans, "run", trial.index(), id);
        builder.run();
    }
    const Clock::time_point t3 = Clock::now();
    LayerCounts::read(*e).add_delta(before, rec.counts);

    runner::TrialResult result;
    {
        ScopedSpan span(st.spans, "emit", trial.index(), id);
        result = builder.emit();
    }

    rec.build_s = seconds_between(t0, t1);
    rec.run_s = seconds_between(t2, t3);
    if (st.kind == PassKind::kTraced) {
        for (const RecordedAccess &a : stream)
            rec.stream_digest =
                fold_access(rec.stream_digest, a.pa, a.latency, a.source);
        rec.replay = replay(*e, stream, *st.spans, trial.index(), id);
    }
    rec.body_s = seconds_between(t0, Clock::now());
    return result;
}

Pass
run_pass(const Workload &w, std::uint64_t seed, PassKind kind,
         const std::string &json_out, SpanLog *spans)
{
    scenario::validate(w.spec);
    runner::SweepOptions options;
    options.name = w.spec.name;
    options.jobs = 1;
    options.master_seed = seed;
    options.json_out = json_out;
    runner::Sweep sweep(options);

    PassState st;
    st.kind = kind;
    st.spans = spans;
    for (const scenario::ScenarioSpec &cell : w.spec.cells) {
        // make_sweep's registration at --trials 1: a cell's fixed count
        // wins, every other cell runs one trial.
        const std::uint64_t trials =
            cell.fixed_trials != 0 ? cell.fixed_trials : 1;
        const scenario::ScenarioSpec *c = &cell;
        sweep.add_scenario(cell.name, trials,
                           [c, &st](const runner::TrialContext &ctx) {
                               return run_trial(*c, ctx, st);
                           });
    }

    Pass p;
    p.plan = sweep.plan_specs();
    st.trials.resize(p.plan.size());

    const Clock::time_point t0 = Clock::now();
    runner::SweepRun run;
    {
        ScopedSpan span(spans, "sweep", SpanLog::kNoParent,
                        SpanLog::kSweepId);
        st.sweep_span = span.index();
        run = sweep.run();
        p.sweep_s = seconds_between(t0, Clock::now());
        if (w.spec.finalize)
            w.spec.finalize(run.sink);
        if (runner::finish_sweep(run, options) == runner::kExitJsonError)
            throw std::runtime_error("cannot write the sweep report " +
                                     json_out);
    }
    p.wall_s = seconds_between(t0, Clock::now());

    for (std::size_t i = 0; i < p.plan.size(); ++i) {
        const std::string payload =
            runner::encode_journal_payload(p.plan[i], run.outcomes[i]);
        p.digests.push_back(fnv1a(payload.data(), payload.size()));
        p.ok.push_back(run.outcomes[i].ok());
    }
    p.trials = std::move(st.trials);
    p.sink = std::move(run.sink);
    return p;
}

// ---------------------------------------------------------------------------
// Expected results
// ---------------------------------------------------------------------------

std::string
expected_path(const Args &a)
{
    return a.expected_dir + "/" + a.workload + (a.tiny ? "-tiny" : "") +
           ".txt";
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The committed per-trial digests for @p seed, if any. */
std::optional<std::vector<std::uint64_t>>
load_expected(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t line_seed = 0;
        if (!(fields >> line_seed) || line_seed != seed)
            continue;
        std::vector<std::uint64_t> digests;
        std::string d;
        while (fields >> d)
            digests.push_back(std::stoull(d, nullptr, 16));
        return digests;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit,
           const std::string &note = "")
    {
        char line[160];
        std::snprintf(line, sizeof line, "metric %-34s %.6g %s", name.c_str(),
                      value, unit.c_str());
        std::cout << line << (note.empty() ? "" : "  (" + note + ")")
                  << "\n";
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", value);
        json_ += std::string(json_.empty() ? "" : ", ") + "\"" + name +
                 "\": {\"value\": " + num + ", \"unit\": \"" + unit + "\"}";
    }

    void
    finish(bool correct, std::size_t attempted, std::size_t failed) const
    {
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted
                  << ", \"failed\": " << failed << ", \"metrics\": {"
                  << json_ << "}}" << std::endl;
    }

  private:
    std::string json_;
};

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Mean over @p pairs of host ns per simulated access, cell − base. */
double
pair_delta_ns(const Pass &p, const std::vector<CellPair> &pairs)
{
    if (pairs.empty())
        return 0.0;
    std::map<std::string, std::pair<double, double>> cells;  // run_s, acc
    for (std::size_t i = 0; i < p.plan.size(); ++i) {
        auto &c = cells[p.plan[i].scenario];
        c.first += p.trials[i].run_s;
        c.second += static_cast<double>(p.trials[i].counts.accesses);
    }
    const auto ns_per_access = [&](const std::string &name) {
        const auto &c = cells[name];
        return ratio(c.first * 1e9, c.second);
    };
    double sum = 0.0;
    for (const CellPair &pair : pairs)
        sum += ns_per_access(pair.cell) - ns_per_access(pair.base);
    return sum / static_cast<double>(pairs.size());
}

template <typename F>
double
median_over(const std::vector<Pass> &passes, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return median(v);
}

void
report_end_to_end(Report &r, const std::vector<Pass> &iters, double rss)
{
    r.metric("wall_s", median_over(iters, [](const Pass &p) {
                 return p.wall_s;
             }),
             "s");
    r.metric("setup_s", median_over(iters, [](const Pass &p) {
                 return p.sum(&TrialRecord::build_s);
             }),
             "s");
    r.metric("sim_accesses_per_s", median_over(iters, [](const Pass &p) {
                 return ratio(static_cast<double>(p.accesses()),
                              p.sum(&TrialRecord::run_s));
             }),
             "acc/s");
    r.metric("peak_rss_mb", rss, "MiB");
}

void
report_per_layer(Report &r, const Workload &w, const std::vector<Pass> &iters,
                 const Pass &traced, const SpanLog &spans)
{
    const Pass &first = iters.front();
    LayerCounts c;
    ReplayStats rs;
    for (const TrialRecord &t : first.trials)
        t.counts.add_delta(LayerCounts{}, c);
    for (const TrialRecord &t : traced.trials)
        rs += t.replay;
    const double run_s = median_over(iters, [](const Pass &p) {
        return p.sum(&TrialRecord::run_s);
    });
    const double acc = static_cast<double>(c.accesses);

    r.metric("scenario.build_s", median_over(iters, [](const Pass &p) {
                 return p.sum(&TrialRecord::build_s);
             }),
             "s");
    r.metric("scenario.run_s", run_s, "s");
    r.metric("runner.trials", static_cast<double>(first.plan.size()),
             "count");
    r.metric("runner.overhead_s", median_over(iters, [](const Pass &p) {
                 return p.sweep_s - p.sum(&TrialRecord::body_s);
             }),
             "s");

    const auto approx = [](std::uint64_t match, std::uint64_t calls) {
        if (match == calls)
            return std::string();
        char note[80];
        std::snprintf(note, sizeof note, "approximate: replay match %.9f",
                      ratio(static_cast<double>(match),
                            static_cast<double>(calls)));
        return std::string(note);
    };
    const double translate_s = spans.self_seconds("replay.translate");
    const double cache_s = spans.self_seconds("replay.cache");
    const double dram_s = spans.self_seconds("replay.dram");
    const std::string mem_note = approx(rs.translate_match, rs.translate_calls);
    const std::string cache_note = approx(rs.cache_match, rs.cache_calls);
    const std::string dram_note = approx(rs.dram_match, rs.dram_calls);

    r.metric("mem.accesses", acc, "count");
    r.metric("mem.tlb_hit_ratio",
             ratio(static_cast<double>(c.tlb_hits),
                   static_cast<double>(c.tlb_hits + c.tlb_misses)),
             "ratio");
    r.metric("mem.translate_ns",
             ratio(translate_s * 1e9, static_cast<double>(rs.translate_calls)),
             "ns", mem_note);
    r.metric("mem.share", ratio(translate_s, run_s), "ratio", mem_note);

    const auto hit_ratio = [](const cache::CacheStats &s) {
        return ratio(static_cast<double>(s.hits),
                     static_cast<double>(s.accesses));
    };
    r.metric("cache.l1_hit_ratio", hit_ratio(c.l1), "ratio");
    r.metric("cache.l2_hit_ratio", hit_ratio(c.l2), "ratio");
    r.metric("cache.llc_miss_ratio",
             ratio(static_cast<double>(c.llc.misses),
                   static_cast<double>(c.llc.accesses)),
             "ratio");
    r.metric("cache.fills_per_access",
             ratio(static_cast<double>(c.l1.fills + c.l2.fills + c.llc.fills),
                   acc),
             "ratio");
    r.metric("cache.evictions_per_access",
             ratio(static_cast<double>(c.l1.evictions + c.l2.evictions +
                                       c.llc.evictions),
                   acc),
             "ratio");
    r.metric("cache.invalidations",
             static_cast<double>(c.l1.invalidations + c.l2.invalidations +
                                 c.llc.invalidations),
             "count");
    r.metric("cache.access_ns",
             ratio(cache_s * 1e9, static_cast<double>(rs.cache_calls)), "ns",
             cache_note);
    r.metric("cache.share", ratio(cache_s, run_s), "ratio", cache_note);
    r.metric("cache.replay_match",
             ratio(static_cast<double>(rs.cache_match),
                   static_cast<double>(rs.cache_calls)),
             "ratio");

    r.metric("dram.accesses", static_cast<double>(c.dram.accesses), "count");
    r.metric("dram.row_hit_ratio",
             ratio(static_cast<double>(c.dram.row_hits),
                   static_cast<double>(c.dram.accesses)),
             "ratio");
    r.metric("dram.selective_refreshes",
             static_cast<double>(c.dram.selective_refreshes), "count");
    r.metric("dram.flips", static_cast<double>(c.flips), "count");
    r.metric("dram.access_ns",
             ratio(dram_s * 1e9, static_cast<double>(rs.dram_calls)), "ns",
             dram_note);
    r.metric("dram.share", ratio(dram_s, run_s), "ratio", dram_note);
    r.metric("dram.replay_match",
             ratio(static_cast<double>(rs.dram_match),
                   static_cast<double>(rs.dram_calls)),
             "ratio");
    r.metric("dram.refresh_delta_ns", median_over(iters, [&](const Pass &p) {
                 return pair_delta_ns(p, w.refresh_pairs);
             }),
             "ns", w.refresh_pairs.empty() ? "no paired cells" : "");

    r.metric("pmu.llc_misses", static_cast<double>(c.pmu_llc_misses),
             "count");
    r.metric("pmu.loads_retired", static_cast<double>(c.pmu_loads), "count");
    r.metric("pmu.stores_retired", static_cast<double>(c.pmu_stores),
             "count");

    r.metric("anvil.stage1_windows",
             static_cast<double>(c.anvil.stage1_windows), "count");
    r.metric("anvil.stage2_windows",
             static_cast<double>(c.anvil.stage2_windows), "count");
    r.metric("anvil.detections", static_cast<double>(c.anvil.detections),
             "count");
    r.metric("anvil.selective_refreshes",
             static_cast<double>(c.anvil.selective_refreshes), "count");
    r.metric("anvil.delta_ns", median_over(iters, [&](const Pass &p) {
                 return pair_delta_ns(p, w.anvil_pairs);
             }),
             "ns", w.anvil_pairs.empty() ? "no paired cells" : "");

    r.metric("mitigations.activations_observed",
             static_cast<double>(c.mitigation.activations_observed), "count");
    r.metric("mitigations.neighbor_refreshes",
             static_cast<double>(c.mitigation.neighbor_refreshes), "count");
    r.metric("mitigations.table_evictions",
             static_cast<double>(c.mitigation.table_evictions), "count");
    r.metric("mitigations.delta_ns", median_over(iters, [&](const Pass &p) {
                 return pair_delta_ns(p, w.mitigation_pairs);
             }),
             "ns", w.mitigation_pairs.empty() ? "no paired cells" : "");

    r.metric("other.share",
             1.0 - ratio(translate_s, run_s) - ratio(cache_s, run_s) -
                 ratio(dram_s, run_s),
             "ratio");
    r.metric("trace.overhead",
             ratio(traced.sum(&TrialRecord::run_s), run_s) - 1.0, "ratio");
}

int
run(const Args &a)
{
    Workload w;
    try {
        w = make_workload(a.workload, a.tiny, a.seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    std::filesystem::create_directories(a.out_dir);
    const std::string json_out = a.out_dir + "/" + a.workload + ".json";

    if (a.record_expected) {
        const Pass p = run_pass(w, a.seed, PassKind::kUntraced, json_out,
                                nullptr);
        std::cout << a.seed;
        for (std::uint64_t d : p.digests)
            std::cout << " " << hex(d);
        std::cout << std::endl;
        return 0;
    }

    std::cout << "host: commit=" << a.commit
              << " nproc=" << std::thread::hardware_concurrency()
              << " cpu=\"" << cpu_model() << "\" build=" << PERFBENCH_BUILD_LABEL
              << "\n";
    std::cout << "workload: " << w.name << " (sweep " << w.sweep << ", "
              << (a.tiny ? "tiny" : "full") << " size) seed=" << a.seed
              << " jobs=1 trace=" << (a.trace ? 1 : 0) << "\n";

    // The observed pass doubles as the warm-up of the timed passes.
    const Pass observed =
        run_pass(w, a.seed, PassKind::kObserved, json_out, nullptr);
    std::vector<Pass> iters;
    const Clock::time_point start = Clock::now();
    do {
        iters.push_back(
            run_pass(w, a.seed, PassKind::kUntraced, json_out, nullptr));
    } while (seconds_between(start, Clock::now()) < a.seconds);
    const double rss = peak_rss_mib();

    const Clock::time_point origin = Clock::now();
    SpanLog spans(origin);
    std::optional<Pass> traced;
    if (a.trace) {
        traced = run_pass(w, a.seed, PassKind::kTraced, json_out, &spans);
        const std::string path = a.out_dir + "/" + a.workload + "-spans.jsonl";
        std::ofstream out(path);
        spans.write_jsonl(out);
        std::cout << "spans: " << path << "\n";
    }

    // Correctness: every pass agrees trial by trial, and with the committed
    // digests when the seed has them.
    const Pass &ref = iters.front();
    const std::size_t n = ref.digests.size();
    std::vector<bool> wrong(n, false);
    const auto check_pass = [&](const Pass &p) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!p.ok[i] || p.digests[i] != ref.digests[i])
                wrong[i] = true;
        }
    };
    check_pass(observed);
    for (const Pass &p : iters)
        check_pass(p);
    if (traced) {
        check_pass(*traced);
        for (std::size_t i = 0; i < n; ++i) {
            if (traced->trials[i].stream_digest !=
                observed.trials[i].stream_digest)
                wrong[i] = true;
        }
    }
    std::optional<std::vector<std::uint64_t>> expected =
        load_expected(expected_path(a), a.seed);
    if (expected && a.alter_expected && !expected->empty())
        expected->front() ^= 1;
    if (expected) {
        for (std::size_t i = 0; i < n; ++i) {
            if (i >= expected->size() || (*expected)[i] != ref.digests[i])
                wrong[i] = true;
        }
    }
    const std::size_t failed =
        static_cast<std::size_t>(std::count(wrong.begin(), wrong.end(), true));
    const bool size_ok = !expected || expected->size() == n;
    const bool correct = failed == 0 && size_ok;

    std::cout << "correctness: " << n << " trials, " << failed
              << " failed or wrong across passes (observed, "
              << iters.size() << " untraced" << (traced ? ", traced" : "")
              << "); "
              << (expected ? "expected digests for seed " +
                                 std::to_string(a.seed) + " " +
                                 (size_ok ? "compared" : "have the wrong size")
                           : std::string("no expected digests for this "
                                         "seed (pass agreement only)"))
              << "\n";
    for (std::size_t i = 0; i < n; ++i) {
        if (wrong[i])
            std::cout << "  wrong: trial #" << i << " ("
                      << ref.plan[i].scenario << "/" << ref.plan[i].trial
                      << ") digest " << hex(ref.digests[i]) << "\n";
    }
    std::cout << "metric " << "failed_trial_ratio" << " "
              << ratio(static_cast<double>(failed), static_cast<double>(n))
              << " ratio\n";
    print_model_error(w, ref.sink, std::cout);
    std::cout << "untraced passes: " << iters.size() << ", wall_s";
    for (const Pass &p : iters)
        std::cout << " " << p.wall_s;
    std::cout << " (medians reported)\n";

    Report r;
    if (a.trace)
        report_per_layer(r, w, iters, *traced, spans);
    else
        report_end_to_end(r, iters, rss);
    r.finish(correct, n, failed);
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args a = parse_args(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench-sweeps: " << e.what() << "\n";
        return 1;
    }
}
