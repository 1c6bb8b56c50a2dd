#include "cache/hierarchy.hh"

#include <bit>
#include <cassert>
#include <string>

#include "common/bits.hh"

namespace anvil::cache {

namespace {

/**
 * Slice-selection hash. Each slice-index bit is the parity of the physical
 * address ANDed with a per-bit mask, following the style of the
 * reverse-engineered Intel complex-addressing functions (Hund et al.,
 * referenced by the paper as [12]).
 */
constexpr std::uint64_t kSliceMasks[3] = {
    0x1B5F575440ULL,
    0x2EB5FAA880ULL,
    0x3CCCC93100ULL,
};

}  // namespace

std::uint32_t
llc_slice_of(Addr pa, std::uint32_t slices)
{
    assert(is_pow2(slices) && "slice count must be 2^k");
    assert(slices <= kMaxLlcSlices && "at most 3 slice-hash bits defined");
    std::uint32_t slice = 0;
    const int bits = std::countr_zero(slices);
    for (int b = 0; b < bits; ++b) {
        const auto parity =
            static_cast<std::uint32_t>(std::popcount(pa & kSliceMasks[b]) &
                                       1);
        slice |= parity << b;
    }
    return slice;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      rng_(config.rng_seed),
      core_{{Cache("L1", config_.l1_sets, config_.l1_ways, config_.l1_policy,
                   &rng_),
             std::vector<std::uint32_t>(std::size_t{config_.l1_sets} *
                                        config_.l1_ways)},
            {Cache("L2", config_.l2_sets, config_.l2_ways, config_.l2_policy,
                   &rng_),
             std::vector<std::uint32_t>(std::size_t{config_.l2_sets} *
                                        config_.l2_ways)}},
      core_valid_(std::size_t{config_.llc_slices} *
                  config_.llc_sets_per_slice * config_.llc_ways)
{
    // The way field of a core-valid byte is 7 bits wide.
    assert(config_.l1_ways <= kWayMask + 1 && config_.l2_ways <= kWayMask + 1);
    llc_.reserve(config_.llc_slices);
    for (std::uint32_t s = 0; s < config_.llc_slices; ++s) {
        llc_.emplace_back("LLC.slice" + std::to_string(s),
                          config_.llc_sets_per_slice, config_.llc_ways,
                          config_.llc_policy, &rng_);
    }
}

std::uint32_t
CacheHierarchy::llc_slice(Addr pa) const
{
    return llc_slice_of(pa, config_.llc_slices);
}

std::uint32_t
CacheHierarchy::llc_set(Addr pa) const
{
    return static_cast<std::uint32_t>((pa >> kLineShift) &
                                      (config_.llc_sets_per_slice - 1));
}

void
CacheHierarchy::fill_core(CoreLevel level, Addr pa, std::uint32_t slot)
{
    CoreCache &core = core_[level];
    const std::uint32_t set = core.cache.set_index(pa);
    const Cache::Fill fill = core.cache.fill(set, pa);
    std::uint32_t &way_slot =
        core.llc_slot[std::size_t{set} * core.cache.ways() + fill.way];
    if (fill.evicted)
        core_valid_[way_slot][level] = 0;
    way_slot = slot;
    core_valid_[slot][level] = static_cast<std::uint8_t>(kPresent | fill.way);
}

int
CacheHierarchy::invalidate_core(Addr line, std::uint32_t slot)
{
    int found = 0;
    for (const CoreLevel level : {kL1, kL2}) {
        std::uint8_t &valid = core_valid_[slot][level];
        if (valid & kPresent) {
            Cache &cache = core_[level].cache;
            cache.invalidate_way(cache.set_index(line), valid & kWayMask);
            valid = 0;
            ++found;
        }
    }
    return found;
}

CacheHierarchy::Result
CacheHierarchy::access(Addr pa, AccessType type)
{
    (void)type;  // loads and stores are symmetric in the tag-store model
    Cache &l1 = core_[kL1].cache;
    Cache &l2 = core_[kL2].cache;
    const std::uint32_t s = llc_slice(pa);
    Cache &slice = llc_[s];
    const std::uint32_t set = slice.set_index(pa);
    Result result;

    const std::optional<std::uint32_t> way = slice.way_of(set, pa);
    if (!way) {
        // Miss to DRAM. By inclusion L1 and L2 miss too. Fill all levels,
        // LLC first; a line the LLC evicts leaves the core caches.
        l1.miss();
        l2.miss();
        slice.miss();
        const Cache::Fill fill = slice.fill(set, pa);
        const std::uint32_t slot = slot_of(s, set, fill.way);
        if (fill.evicted)
            invalidate_core(fill.evicted_line, slot);
        fill_core(kL2, pa, slot);
        fill_core(kL1, pa, slot);
        result.source = DataSource::kDram;
        result.latency = config_.llc_latency;  // DRAM latency added by caller
        result.llc_miss = true;
        return result;
    }

    const std::uint32_t slot = slot_of(s, set, *way);
    const std::array<std::uint8_t, 2> valid = core_valid_[slot];
    if (valid[kL1] & kPresent) {
        l1.hit(l1.set_index(pa), valid[kL1] & kWayMask);
        result.source = DataSource::kL1;
        result.latency = config_.l1_latency;
        return result;
    }
    l1.miss();
    if (valid[kL2] & kPresent) {
        l2.hit(l2.set_index(pa), valid[kL2] & kWayMask);
        fill_core(kL1, pa, slot);
        result.source = DataSource::kL2;
        result.latency = config_.l2_latency;
        return result;
    }
    l2.miss();
    slice.hit(set, *way);
    fill_core(kL2, pa, slot);
    fill_core(kL1, pa, slot);
    result.source = DataSource::kLlc;
    result.latency = config_.llc_latency;
    return result;
}

int
CacheHierarchy::clflush(Addr pa)
{
    const std::uint32_t s = llc_slice(pa);
    Cache &slice = llc_[s];
    const std::uint32_t set = slice.set_index(pa);
    const std::optional<std::uint32_t> way = slice.way_of(set, pa);
    if (!way)
        return 0;  // by inclusion, in no core cache either
    const int found = invalidate_core(line_of(pa), slot_of(s, set, *way));
    slice.invalidate_way(set, *way);
    return found + 1;
}

bool
CacheHierarchy::present_anywhere(Addr pa) const
{
    return llc_[llc_slice(pa)].contains(pa);
}

CacheStats
CacheHierarchy::llc_stats() const
{
    CacheStats total;
    for (const auto &slice : llc_) {
        const CacheStats &s = slice.stats();
        total.accesses += s.accesses;
        total.hits += s.hits;
        total.misses += s.misses;
        total.fills += s.fills;
        total.evictions += s.evictions;
        total.invalidations += s.invalidations;
    }
    return total;
}

void
CacheHierarchy::reset_stats()
{
    for (auto &core : core_)
        core.cache.reset_stats();
    for (auto &slice : llc_)
        slice.reset_stats();
}

}  // namespace anvil::cache
