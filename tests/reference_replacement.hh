/**
 * @file
 * Reference replacement policies: one heap object per cache set, every
 * touch through a vtable.
 *
 * The flat engines in src/cache/flat_replacement.hh are the production
 * implementation; `replacement_equivalence_test` checks that they
 * reproduce these victim/eviction sequences bit-exactly, and
 * `cache_test` pins each policy's behaviour on this simple form.
 */
#ifndef ANVIL_TESTS_REFERENCE_REPLACEMENT_HH
#define ANVIL_TESTS_REFERENCE_REPLACEMENT_HH

#include <cstdint>
#include <memory>

#include "cache/replacement.hh"
#include "common/rng.hh"

namespace anvil::cache {

/**
 * Replacement state for one cache set.
 *
 * The owning cache guarantees that victim() is only called when every way
 * is valid (invalid ways are filled first).
 */
class SetPolicy
{
  public:
    virtual ~SetPolicy() = default;

    /** A hit touched @p way. */
    virtual void on_access(std::uint32_t way) = 0;

    /** A new line was installed in @p way. */
    virtual void on_fill(std::uint32_t way) = 0;

    /** The line in @p way was invalidated. */
    virtual void on_invalidate(std::uint32_t way) = 0;

    /** Chooses the way to evict. */
    virtual std::uint32_t victim() = 0;
};

/**
 * Creates per-set policy state.
 * @param rng used only by kRandom; may be nullptr for other policies.
 */
std::unique_ptr<SetPolicy> make_set_policy(ReplPolicy policy,
                                           std::uint32_t ways, Rng *rng);

}  // namespace anvil::cache

#endif  // ANVIL_TESTS_REFERENCE_REPLACEMENT_HH
