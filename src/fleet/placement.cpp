#include "lpvs/fleet/placement.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lpvs::fleet {
namespace {

/// splitmix64 finalizer over the combined (user, server) key — the same
/// stream-derivation discipline as common::Rng seeding, collapsed to one
/// 64-bit output per pair.
std::uint64_t mix(std::uint64_t user_key, std::uint64_t server_id) {
  std::uint64_t z = user_key * 0x9E3779B97F4A7C15ULL ^
                    (server_id + 1) * 0xC2B2AE3D27D4EB4FULL;
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool id_less(const ServerInfo& a, const ServerInfo& b) { return a.id < b.id; }

}  // namespace

Placement::Placement(std::vector<ServerInfo> servers)
    : servers_(std::move(servers)) {
  std::sort(servers_.begin(), servers_.end(), id_less);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    assert(servers_[i].capacity_weight > 0.0);
    assert(i == 0 || servers_[i - 1].id != servers_[i].id);
  }
}

double Placement::score(std::uint64_t user_key, const ServerInfo& server) {
  // Map the hash into (0, 1): +1 keeps ln() away from exactly zero.
  const double u =
      (static_cast<double>(mix(user_key, server.id)) + 1.0) / 18446744073709551616.0;
  return -server.capacity_weight / std::log(u);
}

std::uint64_t Placement::place(std::uint64_t user_key) const {
  assert(!servers_.empty());
  std::uint64_t best_id = servers_.front().id;
  double best_score = score(user_key, servers_.front());
  for (std::size_t i = 1; i < servers_.size(); ++i) {
    const double s = score(user_key, servers_[i]);
    // Strict >: ties (probability ~0) resolve to the lowest server id,
    // which the sorted membership makes deterministic.
    if (s > best_score) {
      best_score = s;
      best_id = servers_[i].id;
    }
  }
  return best_id;
}

std::vector<std::uint64_t> Placement::place_all(
    const std::vector<std::uint64_t>& users) const {
  std::vector<std::uint64_t> assignment;
  assignment.reserve(users.size());
  for (const std::uint64_t user : users) assignment.push_back(place(user));
  return assignment;
}

void Placement::add_server(ServerInfo server) {
  assert(server.capacity_weight > 0.0);
  ++generation_;
  const auto it =
      std::lower_bound(servers_.begin(), servers_.end(), server, id_less);
  if (it != servers_.end() && it->id == server.id) {
    it->capacity_weight = server.capacity_weight;
    return;
  }
  servers_.insert(it, server);
}

bool Placement::remove_server(std::uint64_t id) {
  const auto it = std::lower_bound(servers_.begin(), servers_.end(),
                                   ServerInfo{id, 1.0}, id_less);
  if (it == servers_.end() || it->id != id) return false;
  servers_.erase(it);
  ++generation_;
  return true;
}

bool Placement::contains(std::uint64_t id) const {
  const auto it = std::lower_bound(servers_.begin(), servers_.end(),
                                   ServerInfo{id, 1.0}, id_less);
  return it != servers_.end() && it->id == id;
}

}  // namespace lpvs::fleet
