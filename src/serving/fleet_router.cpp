#include "serving/fleet_router.h"

#include <stdexcept>

#include "common/env.h"

namespace vlacnn::serving {

RouterSpec::Kind router_kind_from_string(const std::string& s) {
  if (s == "rr") return RouterSpec::Kind::kRoundRobin;
  if (s == "jsq") return RouterSpec::Kind::kJoinShortestQueue;
  if (s == "p2c") return RouterSpec::Kind::kPowerOfTwo;
  throw std::invalid_argument("unknown router policy '" + s +
                              "' (expected rr, jsq, or p2c)");
}

std::uint64_t default_fleet_seed() {
  return env_uint("VLACNN_FLEET_SEED").value_or(1);
}

RoundRobinRouter::RoundRobinRouter(std::size_t num_models)
    : next_(num_models, 0) {}

int RoundRobinRouter::route(int model, const std::vector<int>& hosts,
                            const std::vector<std::uint64_t>&) {
  const std::uint64_t k = next_[static_cast<std::size_t>(model)]++;
  return hosts[static_cast<std::size_t>(k % hosts.size())];
}

int JoinShortestQueueRouter::route(int, const std::vector<int>& hosts,
                                   const std::vector<std::uint64_t>& out) {
  int best = hosts[0];
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const int c = hosts[i];
    if (out[static_cast<std::size_t>(c)] <
        out[static_cast<std::size_t>(best)]) {
      best = c;  // hosts is ascending, so ties keep the lowest chip index
    }
  }
  return best;
}

PowerOfTwoRouter::PowerOfTwoRouter(std::uint64_t seed) : rng_(seed) {}

int PowerOfTwoRouter::route(int, const std::vector<int>& hosts,
                            const std::vector<std::uint64_t>& out) {
  const std::size_t n = hosts.size();
  if (n == 1) return hosts[0];
  // Two distinct draws: the second samples from the n-1 remaining slots.
  const std::size_t a = static_cast<std::size_t>(rng_.next_below(n));
  std::size_t b = static_cast<std::size_t>(rng_.next_below(n - 1));
  if (b >= a) ++b;
  const std::uint64_t la = out[static_cast<std::size_t>(hosts[a])];
  const std::uint64_t lb = out[static_cast<std::size_t>(hosts[b])];
  if (la < lb) return hosts[a];
  if (lb < la) return hosts[b];
  return (rng_.next_u64() & 1) ? hosts[b] : hosts[a];  // seeded coin on ties
}

std::unique_ptr<FleetRouter> make_router(const RouterSpec& spec,
                                         std::size_t num_models) {
  switch (spec.kind) {
    case RouterSpec::Kind::kRoundRobin:
      return std::make_unique<RoundRobinRouter>(num_models);
    case RouterSpec::Kind::kJoinShortestQueue:
      return std::make_unique<JoinShortestQueueRouter>();
    case RouterSpec::Kind::kPowerOfTwo:
      return std::make_unique<PowerOfTwoRouter>(spec.seed);
  }
  throw std::logic_error("unreachable router kind");
}

}  // namespace vlacnn::serving
