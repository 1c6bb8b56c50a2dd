/**
 * @file
 * Cache replacement policies.
 *
 * The CLFLUSH-free rowhammer attack (paper Section 2.2) works by driving
 * the aggressor address to the least-recently-used position of the LLC's
 * replacement state. The paper reverse-engineered Sandy Bridge's policy as
 * Bit-PLRU ("similar to Not Recently Used"); we implement that policy
 * exactly as described, plus true LRU, NRU, Tree-PLRU, SRRIP, and Random
 * for comparison and ablation.
 *
 * The engines live in flat_replacement.hh. Their per-set virtual-dispatch
 * reference, which they must reproduce bit-exactly, is test code
 * (tests/reference_replacement.hh).
 */
#ifndef ANVIL_CACHE_REPLACEMENT_HH
#define ANVIL_CACHE_REPLACEMENT_HH

#include <string>

namespace anvil::cache {

/** Replacement policy selector. */
enum class ReplPolicy {
    kLru,      ///< true least-recently-used
    kBitPlru,  ///< MRU-bit pseudo-LRU (Sandy Bridge LLC, per the paper)
    kNru,      ///< not-recently-used
    kTreePlru, ///< binary-tree pseudo-LRU
    kSrrip,    ///< static re-reference interval prediction (2-bit)
    kRandom,   ///< uniform random victim
};

/** Parses "lru" / "bitplru" / ... (case-sensitive). */
ReplPolicy parse_policy(const std::string &name);

/** Name of a policy value. */
const char *to_string(ReplPolicy policy);

}  // namespace anvil::cache

#endif  // ANVIL_CACHE_REPLACEMENT_HH
