/**
 * @file
 * Differential test: the core-valid-bit CacheHierarchy (one LLC tag scan
 * per access) against the three-scan ReferenceHierarchy
 * (reference_hierarchy.hh). Randomized loads, stores and CLFLUSHes drive
 * both in lockstep; every result, every CLFLUSH level count, every
 * level's statistics and every set's contents must agree, for all six
 * replacement policies on a tiny geometry (frequent LLC evictions and
 * back-invalidations) and on the default Sandy Bridge geometry.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "reference_hierarchy.hh"

namespace anvil::cache {
namespace {

constexpr std::uint64_t kTraceSeed = 0x5107C0DEULL;

enum class Geometry { kTiny, kSandyBridge };

/**
 * Tiny: every level uses @p policy. The 2-way LLC evicts and
 * back-invalidates on most fills, and each L1/L2 set covers several LLC
 * sets, so L1 and L2 evict too (and, under kRandom, draw the shared RNG
 * in fill order).
 * Sandy Bridge: the default geometry with @p policy in the LLC.
 */
HierarchyConfig
make_config(Geometry geometry, ReplPolicy policy)
{
    HierarchyConfig config;
    config.llc_policy = policy;
    if (geometry == Geometry::kSandyBridge) {
        // Tree-PLRU needs 2^k ways; its 12-way tree is degenerate.
        if (policy == ReplPolicy::kTreePlru)
            config.llc_ways = 16;
        return config;
    }
    config.l1_sets = 2;
    config.l1_ways = 2;
    config.l1_policy = policy;
    config.l2_sets = 4;
    config.l2_ways = 2;
    config.l2_policy = policy;
    config.llc_slices = 2;
    config.llc_sets_per_slice = 8;
    config.llc_ways = 2;
    return config;
}

/**
 * Lines that crowd a few LLC sets: @p sets set indices (of
 * @p sets_per_slice) times @p tags tags each, so each set sees several
 * times its ways and L1/L2 sets conflict too.
 */
std::vector<Addr>
line_pool(std::uint32_t sets_per_slice, std::uint32_t sets,
          std::uint32_t tags, Rng &rng)
{
    std::vector<Addr> pool;
    for (std::uint32_t i = 0; i < sets; ++i) {
        const Addr set = rng.next_below(sets_per_slice);
        for (std::uint32_t t = 0; t < tags; ++t) {
            const Addr tag = rng.next_below(1u << 16);
            pool.push_back(((tag * sets_per_slice) + set) * kLineBytes +
                           rng.next_below(kLineBytes));
        }
    }
    return pool;
}

bool
same_stats(const CacheStats &a, const CacheStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.fills == b.fills &&
           a.evictions == b.evictions && a.invalidations == b.invalidations;
}

void
expect_same_contents(const Cache &got, const Cache &want, std::uint32_t op)
{
    ASSERT_EQ(got.sets(), want.sets());
    for (std::uint32_t set = 0; set < got.sets(); ++set) {
        ASSERT_EQ(got.lines_in_set(set), want.lines_in_set(set))
            << got.name() << " set " << set << " after op " << op;
    }
}

class HierarchyEquivalence
    : public ::testing::TestWithParam<std::tuple<Geometry, ReplPolicy>>
{
};

TEST_P(HierarchyEquivalence, MatchesThreeScanReference)
{
    const auto [geometry, policy] = GetParam();
    const HierarchyConfig config = make_config(geometry, policy);
    CacheHierarchy hierarchy(config);
    ReferenceHierarchy reference(config);

    const bool tiny = geometry == Geometry::kTiny;
    Rng trace(kTraceSeed ^ static_cast<std::uint64_t>(policy));
    const std::vector<Addr> pool =
        tiny ? line_pool(config.llc_sets_per_slice, 8, 12, trace)
             : line_pool(config.llc_sets_per_slice, 6, 48, trace);
    const std::uint32_t ops = tiny ? 40000 : 60000;
    const std::uint32_t check_every = tiny ? 97 : 9973;

    std::vector<Addr> recent(8, pool.front());
    std::uint64_t kinds[3] = {0, 0, 0};  // loads/stores, reuses, flushes
    for (std::uint32_t op = 0; op < ops; ++op) {
        const std::uint64_t roll = trace.next_below(100);
        if (roll < 10) {
            // CLFLUSH, half the time of a recently used line.
            const Addr pa = trace.next_bool(0.5)
                                ? recent[trace.next_below(recent.size())]
                                : pool[trace.next_below(pool.size())];
            ASSERT_EQ(hierarchy.clflush(pa), reference.clflush(pa))
                << "clflush at op " << op;
            ++kinds[2];
        } else {
            // Reuse of a recent line (L1/L2 hits), else a pool line.
            const bool reuse = roll < 40;
            const Addr pa = reuse ? recent[trace.next_below(recent.size())]
                                  : pool[trace.next_below(pool.size())];
            const AccessType type = trace.next_bool(0.3) ? AccessType::kStore
                                                         : AccessType::kLoad;
            const CacheHierarchy::Result got = hierarchy.access(pa, type);
            const CacheHierarchy::Result want = reference.access(pa, type);
            ASSERT_EQ(got.source, want.source) << "access at op " << op;
            ASSERT_EQ(got.latency, want.latency) << "access at op " << op;
            ASSERT_EQ(got.llc_miss, want.llc_miss) << "access at op " << op;
            recent[op % recent.size()] = pa;
            ++kinds[reuse ? 1 : 0];
        }

        ASSERT_TRUE(same_stats(hierarchy.l1().stats(), reference.l1().stats()))
            << "L1 stats after op " << op;
        ASSERT_TRUE(same_stats(hierarchy.l2().stats(), reference.l2().stats()))
            << "L2 stats after op " << op;
        for (std::uint32_t s = 0; s < config.llc_slices; ++s) {
            ASSERT_TRUE(same_stats(hierarchy.llc(s).stats(),
                                   reference.llc(s).stats()))
                << "LLC slice " << s << " stats after op " << op;
        }
        if (op % check_every == 0 || op + 1 == ops) {
            expect_same_contents(hierarchy.l1(), reference.l1(), op);
            expect_same_contents(hierarchy.l2(), reference.l2(), op);
            for (std::uint32_t s = 0; s < config.llc_slices; ++s)
                expect_same_contents(hierarchy.llc(s), reference.llc(s), op);
            if (HasFatalFailure())
                return;
        }
    }

    // The trace reached every path: core-cache hits, evictions at every
    // level, LLC evictions that back-invalidate, and CLFLUSHes.
    EXPECT_GT(kinds[0], 0u);
    EXPECT_GT(kinds[1], 0u);
    EXPECT_GT(kinds[2], 0u);
    EXPECT_GT(hierarchy.l1().stats().hits, 0u);
    EXPECT_GT(hierarchy.l2().stats().hits, 0u);
    EXPECT_GT(hierarchy.l1().stats().evictions, 0u);
    EXPECT_GT(hierarchy.l2().stats().evictions, 0u);
    EXPECT_GT(hierarchy.llc_stats().evictions, 0u);
    EXPECT_GT(hierarchy.l1().stats().invalidations +
                  hierarchy.l2().stats().invalidations,
              0u);
}

std::string
case_name(const ::testing::TestParamInfo<std::tuple<Geometry, ReplPolicy>>
              &info)
{
    const auto [geometry, policy] = info.param;
    return std::string(geometry == Geometry::kTiny ? "tiny_" : "sandybridge_") +
           to_string(policy);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, HierarchyEquivalence,
    ::testing::Combine(::testing::Values(Geometry::kTiny,
                                         Geometry::kSandyBridge),
                       ::testing::Values(ReplPolicy::kLru,
                                         ReplPolicy::kBitPlru,
                                         ReplPolicy::kNru,
                                         ReplPolicy::kTreePlru,
                                         ReplPolicy::kSrrip,
                                         ReplPolicy::kRandom)),
    case_name);

}  // namespace
}  // namespace anvil::cache
