/**
 * @file
 * Measurement probes the benchmark attaches to one trial from outside
 * the simulator: counter snapshots of every layer, an access-stream
 * recorder hooked in through MemorySystem::add_observer, a replay of the
 * recorded stream through each layer's public entry point on its own,
 * and an in-memory span log.
 */
#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "anvil/anvil.hh"
#include "cache/cache.hh"
#include "dram/dram_system.hh"
#include "mitigations/mitigation.hh"
#include "scenario/builder.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Cumulative public counters of every simulated layer at one instant. */
struct LayerCounts {
    std::uint64_t accesses = 0;  ///< Σ AddressSpace::accesses()
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    anvil::cache::CacheStats l1;
    anvil::cache::CacheStats l2;
    anvil::cache::CacheStats llc;  ///< summed over slices
    anvil::dram::DramSystem::Stats dram;
    std::uint64_t flips = 0;
    std::uint64_t pmu_llc_misses = 0;
    std::uint64_t pmu_loads = 0;
    std::uint64_t pmu_stores = 0;
    anvil::detector::AnvilStats anvil;
    anvil::mitigations::MitigationStats mitigation;

    /** Reads every counter of @p e. */
    static LayerCounts read(anvil::scenario::Execution &e);

    /** this − @p before, field by field; adds into @p total. */
    void add_delta(const LayerCounts &before, LayerCounts &total) const;
};

/** Per-layer result of replaying one recorded access stream. */
struct ReplayStats {
    std::uint64_t translate_calls = 0;
    std::uint64_t translate_match = 0;
    std::uint64_t cache_calls = 0;  ///< accesses replayed (flushes excluded)
    std::uint64_t cache_match = 0;
    std::uint64_t dram_calls = 0;
    std::uint64_t dram_match = 0;

    ReplayStats &operator+=(const ReplayStats &o);
};

/** One completed simulated access, as much as the replay needs. */
struct RecordedAccess {
    anvil::Addr va = 0;
    anvil::Addr pa = 0;
    anvil::Tick complete_time = 0;
    anvil::Tick latency = 0;
    anvil::Pid pid = 0;
    anvil::AccessType type = anvil::AccessType::kLoad;
    anvil::DataSource source = anvil::DataSource::kL1;
    bool llc_miss = false;
};

/**
 * Named, timed intervals kept in memory. Every span of a trial carries
 * the trial's global index as its id; the sweep span has kSweepId. Safe
 * to call from the runner's worker thread.
 */
class SpanLog
{
  public:
    static constexpr std::uint64_t kSweepId = ~0ULL;
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Opens a span; returns its index (the parent handle of children). */
    std::size_t open(std::string name, std::size_t parent,
                     std::uint64_t id);
    void close(std::size_t index);

    /** Σ self time (duration minus children) of spans named @p name. */
    double self_seconds(const std::string &name) const;

    /** One JSON object per line: name, id, parent, start/end ns, self ns. */
    void write_jsonl(std::ostream &os) const;

  private:
    struct Span {
        std::string name;
        std::uint64_t id = 0;
        std::size_t parent = kNoParent;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };
    std::vector<std::int64_t> self_ns() const;
    std::int64_t now_ns() const;

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Attaches a recorder of every completed access to @p e's machine. The
 * returned vector is filled while the trial runs; it must outlive the run.
 */
void record_accesses(anvil::scenario::Execution &e,
                     std::vector<RecordedAccess> &out);

/** Folds one access (physical address, latency, source) into @p h. */
std::uint64_t fold_access(std::uint64_t h, anvil::Addr pa,
                          anvil::Tick latency, anvil::DataSource source);

/**
 * Attaches an observer that folds every completed access into @p digest
 * with fold_access — an observed run that keeps no stream.
 */
void digest_accesses(anvil::scenario::Execution &e, std::uint64_t &digest);

/**
 * Replays @p stream through each layer on its own, one span per layer
 * under @p parent:
 *   - replay.translate: AddressSpace::translate on the trial's own spaces;
 *   - replay.cache: a fresh CacheHierarchy of the same geometry, with a
 *     clflush(pa) before every recorded LLC miss so flush-driven misses
 *     reproduce;
 *   - replay.dram: a fresh DramSystem, one access per recorded LLC miss
 *     issued at complete_time − latency.
 * A call matches when it reproduces the recorded physical address, data
 * source, or DRAM latency. ANVIL's selective refreshes and tracker hooks
 * are not replayed, so their effect shows up as mismatches.
 */
ReplayStats replay(anvil::scenario::Execution &e,
                   const std::vector<RecordedAccess> &stream, SpanLog &spans,
                   std::size_t parent, std::uint64_t id);

/** FNV-1a 64 over @p size bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_HH
