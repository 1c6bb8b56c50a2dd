#include "cache/cache.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace anvil::cache {

Cache::Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
             ReplPolicy policy, Rng *rng)
    : name_(std::move(name)),
      sets_(sets),
      ways_(ways),
      full_mask_(low_mask(ways)),
      repl_(policy, sets, ways, rng)
{
    assert(is_pow2(sets) && "sets must be 2^k");
    assert(ways > 0 && ways <= kMaxWays);
    tags_.resize(static_cast<std::size_t>(sets_) * ways_, 0);
    valid_bits_.resize(sets_, 0);
}

void
Cache::invalidate_way(std::uint32_t set, std::uint32_t way)
{
    assert((valid_bits_[set] >> way) & 1);
    valid_bits_[set] &= ~(std::uint64_t{1} << way);
    repl_.on_invalidate(set, way);
    ++stats_.invalidations;
}

bool
Cache::access(Addr pa)
{
    const std::uint32_t set = set_index(pa);
    if (auto way = way_of(set, pa)) {
        hit(set, *way);
        return true;
    }
    miss();
    return false;
}

bool
Cache::contains(Addr pa) const
{
    return way_of(set_index(pa), pa).has_value();
}

std::optional<Addr>
Cache::fill(Addr pa)
{
    const Fill f = fill(set_index(pa), pa);
    return f.evicted ? std::optional<Addr>(f.evicted_line) : std::nullopt;
}

bool
Cache::invalidate(Addr pa)
{
    const std::uint32_t set = set_index(pa);
    if (auto way = way_of(set, pa)) {
        invalidate_way(set, *way);
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
