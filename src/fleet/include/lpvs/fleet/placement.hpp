// User-to-edge-server placement via weighted rendezvous hashing (fleet
// tentpole, part 1).
//
// The federation must agree — with no coordination traffic — on which edge
// server owns each user, and a membership change (server join/leave) must
// move as few users as it mathematically can: every moved user is a session
// handoff on the wire and a warm posterior put at risk.  Rendezvous
// (highest-random-weight) hashing gives exactly that: each (user, server)
// pair hashes to a score, the user lands on the server with the highest
// score, and when a server leaves only *its* users move (their scores for
// the survivors are unchanged); when one joins, only the users whose new
// score beats their current maximum move — in expectation U/(N+1).
//
// Capacity weights use the -w/ln(u) trick (Weighted Rendezvous Hashing):
// scoring -weight / ln(uniform(user, server)) makes the win probability of
// each server exactly proportional to its weight, so a 2x-provisioned
// server statistically owns 2x the users.
#pragma once

#include <cstdint>
#include <vector>

namespace lpvs::fleet {

/// One edge server of the federation, as placement sees it.
struct ServerInfo {
  std::uint64_t id = 0;
  /// Relative capacity: a server with weight 2 owns ~2x the users of a
  /// weight-1 peer.  Must be > 0.
  double capacity_weight = 1.0;
};

class Placement {
 public:
  Placement() = default;
  explicit Placement(std::vector<ServerInfo> servers);

  /// Pure function of (user_key, membership): the owning server's id.
  /// Every caller with the same membership view agrees.  Asserts a
  /// non-empty membership.
  std::uint64_t place(std::uint64_t user_key) const;

  /// place() for a batch of users, in order.
  std::vector<std::uint64_t> place_all(
      const std::vector<std::uint64_t>& users) const;

  /// Membership changes.  add_server replaces the weight when the id is
  /// already present; remove_server reports whether the id was present.
  void add_server(ServerInfo server);
  bool remove_server(std::uint64_t id);
  bool contains(std::uint64_t id) const;

  /// Current membership, sorted by id (deterministic iteration order).
  const std::vector<ServerInfo>& servers() const { return servers_; }

  /// Membership generation: bumped by every add_server (a weight-only
  /// update included) and by every remove_server that found its id.  A
  /// place() result stays the winner while the generation is unchanged.
  std::uint64_t generation() const { return generation_; }

  /// The rendezvous score of one (user, server) pair; exposed so tests can
  /// verify the winner really is the argmax.
  static double score(std::uint64_t user_key, const ServerInfo& server);

 private:
  std::vector<ServerInfo> servers_;  // sorted by id
  std::uint64_t generation_ = 0;
};

}  // namespace lpvs::fleet
