/**
 * @file
 * Three-level cache hierarchy modelled on the paper's evaluation platform
 * (Intel i5-2540M, Sandy Bridge): private L1/L2 and a shared, inclusive,
 * physically indexed, sliced last-level cache with 12 ways.
 *
 * "On our Intel Sandy Bridge machine, bits 6 to 16 of the physical
 * addresses are used to map to last-level cache sets. Furthermore, the
 * last-level cache is organized into slices, with one slice per processor
 * core." (Section 2.2). With 2 slices of 2048 sets each, the per-slice set
 * index is bits 6..16 and the slice is selected by a hash of the upper
 * address bits.
 *
 * Like Sandy Bridge, the inclusive LLC keeps "core-valid bits": each LLC
 * line records whether, and in which way, L1 and L2 hold it. An access
 * therefore scans only its LLC slice's tags; L1/L2 residency and
 * back-invalidation read those bits instead of probing the core caches.
 */
#ifndef ANVIL_CACHE_HIERARCHY_HH
#define ANVIL_CACHE_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace anvil::cache {

/// Most LLC slices the slice hash can address (three hash bits).
inline constexpr std::uint32_t kMaxLlcSlices = 8;

/**
 * LLC slice the line containing @p pa maps to, of @p slices.
 * @pre @p slices is a power of two, at most kMaxLlcSlices.
 */
std::uint32_t llc_slice_of(Addr pa, std::uint32_t slices);

/** Configuration of the full hierarchy. */
struct HierarchyConfig {
    // L1D: 32 KB, 8-way.
    std::uint32_t l1_sets = 64;
    std::uint32_t l1_ways = 8;
    Cycles l1_latency = 4;
    ReplPolicy l1_policy = ReplPolicy::kTreePlru;

    // L2: 256 KB, 8-way.
    std::uint32_t l2_sets = 512;
    std::uint32_t l2_ways = 8;
    Cycles l2_latency = 12;
    ReplPolicy l2_policy = ReplPolicy::kTreePlru;

    // LLC: 3 MB total = 2 slices x 2048 sets x 12 ways x 64 B.
    std::uint32_t llc_slices = 2;
    std::uint32_t llc_sets_per_slice = 2048;
    std::uint32_t llc_ways = 12;
    /// "Access to the last-level cache on Sandy Bridge takes 26 to 31
    /// cycles" — the paper's cost model uses 29.
    Cycles llc_latency = 29;
    ReplPolicy llc_policy = ReplPolicy::kBitPlru;

    std::uint64_t rng_seed = 0xCACE5EEDULL;

    std::uint64_t
    llc_size_bytes() const
    {
        return static_cast<std::uint64_t>(llc_slices) * llc_sets_per_slice *
               llc_ways * kLineBytes;
    }
};

/**
 * The hierarchy. Timing is expressed in core cycles up to and including the
 * LLC lookup; a miss reports DataSource::kDram and the memory system adds
 * the DRAM latency on top.
 */
class CacheHierarchy
{
  public:
    /** Outcome of a hierarchy lookup (fills already performed). */
    struct Result {
        DataSource source = DataSource::kL1;
        Cycles latency = 0;  ///< on-chip portion only
        bool llc_miss = false;
    };

    explicit CacheHierarchy(const HierarchyConfig &config);

    /** Performs one load/store, handling all fills and inclusions. */
    Result access(Addr pa, AccessType type);

    /**
     * CLFLUSH: evicts the line containing @p pa from every level.
     * @return number of levels the line was found in.
     */
    int clflush(Addr pa);

    /**
     * True if the line is present at any level (for tests): by inclusion,
     * whether the LLC holds it.
     */
    bool present_anywhere(Addr pa) const;

    /** LLC slice index the address maps to. */
    std::uint32_t llc_slice(Addr pa) const;

    /** Set index within its LLC slice. */
    std::uint32_t llc_set(Addr pa) const;

    const Cache &l1() const { return core_[kL1].cache; }
    const Cache &l2() const { return core_[kL2].cache; }
    const Cache &llc(std::uint32_t slice) const { return llc_[slice]; }
    const HierarchyConfig &config() const { return config_; }

    /** Aggregate LLC stats across slices. */
    CacheStats llc_stats() const;

    void reset_stats();

  private:
    /// Core-valid byte of one LLC line for one core cache: kPresent | way.
    static constexpr std::uint8_t kPresent = 0x80;
    static constexpr std::uint8_t kWayMask = 0x7f;

    /** A private core cache and, per way, the LLC slot of its line. */
    struct CoreCache {
        Cache cache;
        std::vector<std::uint32_t> llc_slot;  ///< [set * ways + way]
    };
    enum CoreLevel : std::size_t { kL1 = 0, kL2 = 1 };

    /** Slot of an LLC way: (slice * sets + set) * ways + way. */
    std::uint32_t
    slot_of(std::uint32_t slice, std::uint32_t set, std::uint32_t way) const
    {
        return (slice * config_.llc_sets_per_slice + set) * config_.llc_ways +
               way;
    }

    /**
     * Fills the line at LLC slot @p slot into core cache @p level and sets
     * its core-valid byte; clears the byte of the line it evicts.
     */
    void fill_core(CoreLevel level, Addr pa, std::uint32_t slot);

    /**
     * Invalidates the line at LLC slot @p slot (base address @p line) in
     * every core cache whose core-valid byte is set, L1 first.
     * @return number of core caches that held it.
     */
    int invalidate_core(Addr line, std::uint32_t slot);

    HierarchyConfig config_;
    Rng rng_;
    CoreCache core_[2];  ///< indexed by CoreLevel
    std::vector<Cache> llc_;
    /// Per LLC slot, the core-valid bytes, indexed by CoreLevel. Exact
    /// for every valid LLC line: a resident LLC line never changes slot,
    /// and leaving the LLC invalidates it in the core caches first.
    std::vector<std::array<std::uint8_t, 2>> core_valid_;
};

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_HIERARCHY_HH
