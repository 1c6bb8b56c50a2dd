/**
 * @file
 * The benchmark's three workloads, each a registered catalog sweep at a
 * fixed size:
 *   - hammer: table3_detection — CLFLUSH and CLFLUSH-free double-sided
 *     attacks under light and heavy load with ANVIL on;
 *   - benign: fig3_overhead — 12 SPEC-int profiles × {base, anvil,
 *     double-refresh} over a fixed op count;
 *   - zoo: mitigation_matrix — every tracker against four attacks plus
 *     the tracker-thrash cell on the next-generation module.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "runner/result_sink.hh"
#include "scenario/spec.hh"

namespace perfbench {

/** Two cells that differ in exactly one layer: cell − base isolates it. */
struct CellPair {
    std::string cell;
    std::string base;
};

struct Workload {
    std::string name;   ///< benchmark workload name
    std::string sweep;  ///< catalog sweep it instantiates
    anvil::scenario::SweepSpec spec;
    std::vector<CellPair> anvil_pairs;       ///< detector on vs off
    std::vector<CellPair> refresh_pairs;     ///< 32 ms vs 64 ms refresh
    std::vector<CellPair> mitigation_pairs;  ///< tracker vs none
};

/**
 * Instantiates workload @p name at the full or the tiny (self-test) size
 * for benchmark seed @p seed. @throw std::invalid_argument when unknown.
 */
Workload make_workload(const std::string &name, bool tiny,
                       std::uint64_t seed);

/**
 * Prints the simulated headline results beside the paper's values
 * (informational; never gated).
 */
void print_model_error(const Workload &w, const anvil::runner::ResultSink &sink,
                       std::ostream &os);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HH
