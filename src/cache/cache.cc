#include "cache/cache.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace anvil::cache {
namespace {

/** The stored tag of @p pa: its line index. */
std::uint32_t
tag_of(Addr pa)
{
    return static_cast<std::uint32_t>(pa >> kLineShift);
}

/** The base address of the line a tag names. */
Addr
line_of_tag(std::uint32_t tag)
{
    return static_cast<Addr>(tag) << kLineShift;
}

}  // namespace

Cache::Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
             ReplPolicy policy, Rng *rng)
    : name_(std::move(name)),
      sets_(sets),
      ways_(ways),
      full_mask_(low_mask(ways)),
      repl_(policy, sets, ways, rng)
{
    assert(is_pow2(sets) && "sets must be 2^k");
    assert(ways > 0 && ways <= 64);
    tags_.resize(static_cast<std::size_t>(sets_) * ways_, 0);
    valid_bits_.resize(sets_, 0);
}

std::uint32_t
Cache::set_index(Addr pa) const
{
    return static_cast<std::uint32_t>((pa >> kLineShift) & (sets_ - 1));
}

std::optional<std::uint32_t>
Cache::find(std::uint32_t set, std::uint32_t tag) const
{
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

bool
Cache::access(Addr pa)
{
    const std::uint32_t set = set_index(pa);
    ++stats_.accesses;
    if (auto way = find(set, tag_of(pa))) {
        ++stats_.hits;
        repl_.on_access(set, *way);
        return true;
    }
    ++stats_.misses;
    return false;
}

bool
Cache::contains(Addr pa) const
{
    return find(set_index(pa), tag_of(pa)).has_value();
}

std::optional<Addr>
Cache::fill(Addr pa)
{
    assert(pa < kTagAddressableBytes && "address beyond the 32-bit tags");
    const std::uint32_t tag = tag_of(pa);
    const std::uint32_t set = set_index(pa);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    assert(!find(set, tag) && "fill of already-present line");

    ++stats_.fills;

    // Prefer an invalid way (lowest index first, like a scan would).
    const std::uint64_t valid = valid_bits_[set];
    if (valid != full_mask_) {
        const auto w = static_cast<std::uint32_t>(std::countr_one(valid));
        tags_[base + w] = tag;
        valid_bits_[set] = valid | (std::uint64_t{1} << w);
        repl_.on_fill(set, w);
        return std::nullopt;
    }

    const std::uint32_t w = repl_.victim_and_fill(set);
    assert(w < ways_);
    const std::uint32_t evicted = tags_[base + w];
    tags_[base + w] = tag;
    ++stats_.evictions;
    return line_of_tag(evicted);
}

bool
Cache::invalidate(Addr pa)
{
    const std::uint32_t set = set_index(pa);
    if (auto w = find(set, tag_of(pa))) {
        valid_bits_[set] &= ~(std::uint64_t{1} << *w);
        repl_.on_invalidate(set, *w);
        ++stats_.invalidations;
        return true;
    }
    return false;
}

std::vector<Addr>
Cache::lines_in_set(std::uint32_t set) const
{
    std::vector<Addr> lines;
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    std::uint64_t m = valid_bits_[set];
    while (m != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        lines.push_back(line_of_tag(tags_[base + w]));
        m &= m - 1;
    }
    return lines;
}

}  // namespace anvil::cache
