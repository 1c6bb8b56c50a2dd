#include "reference_hierarchy.hh"

#include <string>

namespace anvil::cache {

ReferenceHierarchy::ReferenceHierarchy(const HierarchyConfig &config)
    : config_(config),
      rng_(config.rng_seed),
      l1_("L1", config_.l1_sets, config_.l1_ways, config_.l1_policy, &rng_),
      l2_("L2", config_.l2_sets, config_.l2_ways, config_.l2_policy, &rng_)
{
    llc_.reserve(config_.llc_slices);
    for (std::uint32_t s = 0; s < config_.llc_slices; ++s) {
        llc_.emplace_back("LLC.slice" + std::to_string(s),
                          config_.llc_sets_per_slice, config_.llc_ways,
                          config_.llc_policy, &rng_);
    }
}

CacheHierarchy::Result
ReferenceHierarchy::access(Addr pa, AccessType type)
{
    (void)type;
    CacheHierarchy::Result result;

    if (l1_.access(pa)) {
        result.source = DataSource::kL1;
        result.latency = config_.l1_latency;
        return result;
    }
    if (l2_.access(pa)) {
        l1_.fill(pa);
        result.source = DataSource::kL2;
        result.latency = config_.l2_latency;
        return result;
    }

    Cache &slice = llc_[llc_slice_of(pa, config_.llc_slices)];
    if (slice.access(pa)) {
        l2_.fill(pa);
        l1_.fill(pa);
        result.source = DataSource::kLlc;
        result.latency = config_.llc_latency;
        return result;
    }

    // Miss to DRAM: fill all levels (LLC first, maintaining inclusion).
    if (auto evicted = slice.fill(pa)) {
        // A line leaving the LLC leaves the core caches too.
        l1_.invalidate(*evicted);
        l2_.invalidate(*evicted);
    }
    l2_.fill(pa);
    l1_.fill(pa);
    result.source = DataSource::kDram;
    result.latency = config_.llc_latency;
    result.llc_miss = true;
    return result;
}

int
ReferenceHierarchy::clflush(Addr pa)
{
    int found = 0;
    found += l1_.invalidate(pa) ? 1 : 0;
    found += l2_.invalidate(pa) ? 1 : 0;
    found += llc_[llc_slice_of(pa, config_.llc_slices)].invalidate(pa) ? 1
                                                                       : 0;
    return found;
}

}  // namespace anvil::cache
