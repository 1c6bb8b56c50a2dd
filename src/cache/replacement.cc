#include "cache/replacement.hh"

#include <stdexcept>

namespace anvil::cache {

ReplPolicy
parse_policy(const std::string &name)
{
    if (name == "lru") return ReplPolicy::kLru;
    if (name == "bitplru") return ReplPolicy::kBitPlru;
    if (name == "nru") return ReplPolicy::kNru;
    if (name == "treeplru") return ReplPolicy::kTreePlru;
    if (name == "srrip") return ReplPolicy::kSrrip;
    if (name == "random") return ReplPolicy::kRandom;
    throw std::invalid_argument("unknown replacement policy: " + name);
}

const char *
to_string(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::kLru: return "lru";
      case ReplPolicy::kBitPlru: return "bitplru";
      case ReplPolicy::kNru: return "nru";
      case ReplPolicy::kTreePlru: return "treeplru";
      case ReplPolicy::kSrrip: return "srrip";
      case ReplPolicy::kRandom: return "random";
    }
    return "?";
}

}  // namespace anvil::cache
