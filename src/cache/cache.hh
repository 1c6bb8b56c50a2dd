/**
 * @file
 * A single set-associative cache level (tag store only — the simulator
 * models placement/replacement behaviour and timing, not data contents).
 */
#ifndef ANVIL_CACHE_CACHE_HH
#define ANVIL_CACHE_CACHE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/flat_replacement.hh"
#include "cache/replacement.hh"
#include "common/types.hh"

namespace anvil::cache {

inline constexpr std::uint32_t kLineBytes = 64;
inline constexpr std::uint32_t kLineShift = 6;

/// Physical memory the 32-bit line-index tags can address (256 GiB);
/// scenario validation rejects larger DRAM geometries.
inline constexpr std::uint64_t kTagAddressableBytes = std::uint64_t{1}
                                                      << (32 + kLineShift);

/** Truncates an address to its cache-line base address. */
constexpr Addr
line_of(Addr pa)
{
    return pa & ~static_cast<Addr>(kLineBytes - 1);
}

/** Per-cache hit/miss/eviction counters. */
struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;

    void
    reset()
    {
        *this = CacheStats();
    }
};

/// Most ways a set can have: its valid bits are one 64-bit word.
inline constexpr std::uint32_t kMaxWays = 64;

/**
 * Tag store of one cache (or one LLC slice).
 *
 * Lookup and fill are split so a hierarchy can implement inclusion. The
 * way-level interface (way_of, hit, miss, fill(set, pa), invalidate_way)
 * lets a caller that already knows where a line sits skip the tag scan;
 * the address-level calls (access, contains, fill(pa), invalidate) are
 * built on it. Physical addresses must lie below kTagAddressableBytes.
 */
class Cache
{
  public:
    /** Outcome of a fill: where the line went and what it displaced. */
    struct Fill {
        Addr evicted_line;  ///< base address of the evicted line, if any
        std::uint32_t way;
        bool evicted;
    };

    /**
     * @param name        for stats / debugging ("L1", "LLC.slice0", ...)
     * @param sets        number of sets (power of two)
     * @param ways        associativity, at most kMaxWays
     * @param policy      replacement policy for every set
     * @param rng         used by the random policy (may be nullptr)
     */
    Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
          ReplPolicy policy, Rng *rng);

    /** Set index the line containing @p pa maps to. */
    std::uint32_t
    set_index(Addr pa) const
    {
        return static_cast<std::uint32_t>((pa >> kLineShift) & (sets_ - 1));
    }

    /**
     * The tag scan: the way of @p set holding the line containing @p pa,
     * if any (no state update).
     */
    std::optional<std::uint32_t> way_of(std::uint32_t set, Addr pa) const;

    /** Counts a hit on @p way of @p set and updates its replacement state. */
    void
    hit(std::uint32_t set, std::uint32_t way)
    {
        ++stats_.accesses;
        ++stats_.hits;
        repl_.on_access(set, way);
    }

    /** Counts a miss. */
    void
    miss()
    {
        ++stats_.accesses;
        ++stats_.misses;
    }

    /**
     * Installs the line containing @p pa in @p set: an invalid way if
     * there is one (lowest index first), else the policy's victim.
     * @pre the line is not already present; @p set is its set_index().
     */
    Fill fill(std::uint32_t set, Addr pa);

    /** Removes the (valid) line in @p way of @p set. */
    void invalidate_way(std::uint32_t set, std::uint32_t way);

    /**
     * Probes for the line containing @p pa; updates replacement state and
     * counters on a hit.
     * @return true on hit.
     */
    bool access(Addr pa);

    /** True if the line containing @p pa is present (no state update). */
    bool contains(Addr pa) const;

    /**
     * Installs the line containing @p pa.
     * @return the base address of the line evicted to make room, if any.
     * @pre the line is not already present.
     */
    std::optional<Addr> fill(Addr pa);

    /**
     * Removes the line containing @p pa if present.
     * @return true if a line was invalidated.
     */
    bool invalidate(Addr pa);

    /** Lines currently valid in @p set (for tests/telemetry). */
    std::vector<Addr> lines_in_set(std::uint32_t set) const;

    const CacheStats &stats() const { return stats_; }
    void reset_stats() { stats_.reset(); }

    const std::string &name() const { return name_; }
    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint64_t size_bytes() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_ * kLineBytes;
    }

  private:
    /** The stored tag of @p pa: its line index. */
    static std::uint32_t
    tag_of(Addr pa)
    {
        return static_cast<std::uint32_t>(pa >> kLineShift);
    }

    /** The base address of the line a tag names. */
    static Addr
    line_of_tag(std::uint32_t tag)
    {
        return static_cast<Addr>(tag) << kLineShift;
    }

    std::string name_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t full_mask_;  ///< all @c ways_ low bits set
    /// Packed tag store, [set * ways_ + way], each tag the 32-bit line
    /// index pa >> kLineShift; an entry is meaningful only while its bit
    /// in valid_bits_ is set. Tags-only layout keeps a whole 12-way set's
    /// tags in one host cache line for the probe scan.
    std::vector<std::uint32_t> tags_;
    /// Per-set bitmask of valid ways: probes iterate its set bits,
    /// fill() finds the first free way with one bit operation.
    std::vector<std::uint64_t> valid_bits_;
    ReplacementEngine repl_;   ///< flat per-set replacement state
    CacheStats stats_;
};

// The tag scan and the fill are on every simulated access; defined here
// so they inline into the hierarchy.

inline std::optional<std::uint32_t>
Cache::way_of(std::uint32_t set, Addr pa) const
{
    const std::uint32_t tag = tag_of(pa);
    const std::uint32_t *tags = &tags_[static_cast<std::size_t>(set) * ways_];
    std::uint64_t m = valid_bits_[set];
    if (m == full_mask_) {
        // Full set (the steady state): a plain counted scan over the
        // packed tags, with no validity filtering in the loop.
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == tag)
                return w;
        }
        return std::nullopt;
    }
    while (m != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        if (tags[w] == tag)
            return w;
        m &= m - 1;
    }
    return std::nullopt;
}

inline Cache::Fill
Cache::fill(std::uint32_t set, Addr pa)
{
    assert(pa < kTagAddressableBytes && "address beyond the 32-bit tags");
    assert(set == set_index(pa));
    assert(!way_of(set, pa) && "fill of already-present line");
    const std::size_t base = static_cast<std::size_t>(set) * ways_;

    ++stats_.fills;

    // Prefer an invalid way (lowest index first, like a scan would).
    const std::uint64_t valid = valid_bits_[set];
    if (valid != full_mask_) {
        const auto w = static_cast<std::uint32_t>(std::countr_one(valid));
        tags_[base + w] = tag_of(pa);
        valid_bits_[set] = valid | (std::uint64_t{1} << w);
        repl_.on_fill(set, w);
        return {0, w, false};
    }

    const std::uint32_t w = repl_.victim_and_fill(set);
    assert(w < ways_);
    const std::uint32_t evicted = tags_[base + w];
    tags_[base + w] = tag_of(pa);
    ++stats_.evictions;
    return {line_of_tag(evicted), w, true};
}

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_CACHE_HH
