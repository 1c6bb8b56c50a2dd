#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "runner/options.hh"
#include "runner/trial.hh"
#include "scenario/registry.hh"
#include "workload/profile.hh"

namespace perfbench {

using namespace anvil;

namespace {

/// fig3_overhead op count per cell (the catalog default is 4M).
constexpr std::uint64_t kBenignOps = 250000;
constexpr std::uint64_t kTinyBenignOps = 20000;
/// mitigation_matrix thrash-cell mcf ops (the catalog runs 300K).
constexpr std::uint64_t kThrashOps = 100000;

scenario::SweepSpec
catalog_sweep(const std::string &name, std::vector<std::string> positional)
{
    runner::CliOptions cli;
    cli.positional = std::move(positional);
    return scenario::paper_registry().at(name).make(cli);
}

Workload
hammer(bool tiny)
{
    Workload w{"hammer", "table3_detection",
               catalog_sweep("table3_detection", {}), {}, {}, {}};
    if (tiny) {
        for (scenario::ScenarioSpec &cell : w.spec.cells)
            cell.run.duration = ms(16);
    }
    return w;
}

Workload
benign(bool tiny, std::uint64_t seed)
{
    const std::uint64_t ops = tiny ? kTinyBenignOps : kBenignOps;
    Workload w{"benign", "fig3_overhead",
               catalog_sweep("fig3_overhead", {std::to_string(ops)}), {}, {},
               {}};
    // The catalog pins one layout for every cell so the three settings of
    // a profile see identical inputs. Keep that pairing, but draw the
    // shared layout from the benchmark seed.
    for (scenario::ScenarioSpec &cell : w.spec.cells) {
        const std::string profile = cell.name.substr(0, cell.name.find('/'));
        cell.system.vm_seed = runner::sub_seed(seed, "vm/" + profile);
    }
    for (const workload::SpecProfile &p : workload::spec2006_int()) {
        w.anvil_pairs.push_back({p.name + "/anvil", p.name + "/base"});
        w.refresh_pairs.push_back(
            {p.name + "/double-refresh", p.name + "/base"});
    }
    return w;
}

Workload
zoo(bool tiny)
{
    Workload w{"zoo", "mitigation_matrix",
               catalog_sweep("mitigation_matrix", {}), {}, {}, {}};
    // Sized to a few seconds per sweep: the clflush-free column (the
    // eviction-set path, which hammer already covers) is left out and the
    // thrash cells run a third of the catalog's fixed work.
    std::erase_if(w.spec.cells, [](const scenario::ScenarioSpec &cell) {
        return cell.name.ends_with("/clflush-free");
    });
    for (scenario::ScenarioSpec &cell : w.spec.cells) {
        if (cell.run.mode == scenario::RunMode::kInterleaveUntilOps)
            cell.run.ops = tiny ? 20000 : kThrashOps;
        else if (tiny)
            cell.system.dram.refresh_period = ms(8);
    }
    for (const scenario::ScenarioSpec &cell : w.spec.cells) {
        const std::size_t slash = cell.name.find('/');
        if (cell.name.compare(0, slash, "none") != 0)
            w.mitigation_pairs.push_back(
                {cell.name, "none" + cell.name.substr(slash)});
    }
    return w;
}

}  // namespace

Workload
make_workload(const std::string &name, bool tiny, std::uint64_t seed)
{
    if (name == "hammer")
        return hammer(tiny);
    if (name == "benign")
        return benign(tiny, seed);
    if (name == "zoo")
        return zoo(tiny);
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected hammer, benign or zoo)");
}

void
print_model_error(const Workload &w, const runner::ResultSink &sink,
                  std::ostream &os)
{
    char line[256];
    if (w.name == "hammer") {
        for (const runner::ScenarioAggregate &agg : sink.scenarios()) {
            std::snprintf(line, sizeof line,
                          "model-error: %-26s avg_detect_ms %8.3f ms "
                          "(paper Table 3: 12.3-35.3 ms)\n",
                          agg.name().c_str(),
                          agg.value_mean("detect_ms", -1.0));
            os << line;
        }
    } else if (w.name == "benign") {
        double sum = 0.0;
        double peak = 0.0;
        std::size_t n = 0;
        for (const CellPair &p : w.anvil_pairs) {
            const runner::ScenarioAggregate *cell = sink.find(p.cell);
            const runner::ScenarioAggregate *base = sink.find(p.base);
            if (cell == nullptr || base == nullptr ||
                base->value_mean("run_ms") <= 0.0)
                continue;
            const double slowdown =
                cell->value_mean("run_ms") / base->value_mean("run_ms") - 1.0;
            sum += slowdown;
            peak = n == 0 ? slowdown : std::max(peak, slowdown);
            ++n;
        }
        std::snprintf(line, sizeof line,
                      "model-error: anvil slowdown mean %.3f%% (paper Fig. "
                      "3: 1.17%%), peak %.3f%% (paper: 3.18%%)\n",
                      n != 0 ? 100.0 * sum / static_cast<double>(n) : 0.0,
                      100.0 * peak);
        os << line;
    } else {
        os << "model-error: no paper reference values for " << w.sweep
           << "\n";
    }
}

}  // namespace perfbench
