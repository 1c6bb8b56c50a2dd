/**
 * @file
 * A single set-associative cache level (tag store only — the simulator
 * models placement/replacement behaviour and timing, not data contents).
 */
#ifndef ANVIL_CACHE_CACHE_HH
#define ANVIL_CACHE_CACHE_HH

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

/**
 * Tag store of one cache (or one LLC slice).
 *
 * Lookup and fill are split so a hierarchy can implement inclusive /
 * exclusive policies: access() probes (and updates replacement state on a
 * hit); fill() installs a line, returning any line evicted to make room.
 * Physical addresses must lie below kTagAddressableBytes.
 */
class Cache
{
  public:
    /**
     * @param name        for stats / debugging ("L1", "LLC.slice0", ...)
     * @param sets        number of sets (power of two)
     * @param ways        associativity
     * @param policy      replacement policy for every set
     * @param rng         used by the random policy (may be nullptr)
     */
    Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
          ReplPolicy policy, Rng *rng);

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

    /** Set index the line containing @p pa maps to. */
    std::uint32_t set_index(Addr pa) const;

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
    /** Finds the way holding @p tag in @p set, or nullopt. */
    std::optional<std::uint32_t> find(std::uint32_t set,
                                      std::uint32_t tag) const;

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

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_CACHE_HH
