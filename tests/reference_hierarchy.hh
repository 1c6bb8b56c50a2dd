/**
 * @file
 * Reference cache hierarchy: the three-scan form of CacheHierarchy.
 *
 * Every access probes L1, then L2, then the LLC slice by tag, and every
 * LLC eviction probes L1 and L2 again to back-invalidate. The production
 * CacheHierarchy (src/cache/hierarchy.hh) scans only the LLC slice and
 * reads L1/L2 residency from core-valid bits; `hierarchy_equivalence_test`
 * checks that it reproduces this form's results, statistics and contents
 * exactly.
 */
#ifndef ANVIL_TESTS_REFERENCE_HIERARCHY_HH
#define ANVIL_TESTS_REFERENCE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace anvil::cache {

/** Inclusive L1/L2/LLC with the same geometry, policies and RNG use. */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &config);

    /** Performs one load/store, handling all fills and inclusions. */
    CacheHierarchy::Result access(Addr pa, AccessType type);

    /**
     * CLFLUSH: evicts the line containing @p pa from every level.
     * @return number of levels the line was found in.
     */
    int clflush(Addr pa);

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc(std::uint32_t slice) const { return llc_[slice]; }

  private:
    HierarchyConfig config_;
    Rng rng_;
    Cache l1_;
    Cache l2_;
    std::vector<Cache> llc_;
};

}  // namespace anvil::cache

#endif  // ANVIL_TESTS_REFERENCE_HIERARCHY_HH
