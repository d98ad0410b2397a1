#include "lpvs/fleet/checkpoint.hpp"

#include <utility>

#include "lpvs/fleet/wire.hpp"

namespace lpvs::fleet {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4C504650u;  // "LPFP"
/// Magic, version, server, slot, slots_run, session count, entry count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4;
/// Key, fingerprint, status, objective, nodes, variable count; one byte
/// per variable follows.
constexpr std::size_t kEntryFixedBytes = 8 + 8 + 1 + 8 + 8 + 4;

void encode_cache_entry(wire::Writer& w,
                        const solver::SolveCache::ExportedEntry& entry) {
  w.u64(entry.key);
  w.u64(entry.fingerprint);
  w.u8(static_cast<std::uint8_t>(entry.solution.status));
  w.f64(entry.solution.objective);
  w.i64(static_cast<std::int64_t>(entry.solution.nodes_explored));
  w.u32(static_cast<std::uint32_t>(entry.solution.x.size()));
  for (const int xi : entry.solution.x) {
    w.u8(static_cast<std::uint8_t>(xi != 0 ? 1 : 0));
  }
}

bool decode_cache_entry(wire::Reader& r,
                        solver::SolveCache::ExportedEntry& entry) {
  std::uint8_t status = 0;
  std::int64_t nodes = 0;
  std::uint32_t vars = 0;
  if (!r.u64(entry.key) || !r.u64(entry.fingerprint) || !r.u8(status) ||
      !r.f64(entry.solution.objective) || !r.i64(nodes) || !r.u32(vars)) {
    return false;
  }
  entry.solution.status = static_cast<solver::IlpStatus>(status);
  entry.solution.nodes_explored = static_cast<long>(nodes);
  if (vars > r.remaining()) return false;  // bounds before allocating
  entry.solution.x.resize(vars);
  for (std::uint32_t i = 0; i < vars; ++i) {
    std::uint8_t xi = 0;
    if (!r.u8(xi)) return false;
    entry.solution.x[i] = xi != 0 ? 1 : 0;
  }
  return true;
}

}  // namespace

std::size_t Checkpoint::encoded_size() const {
  std::size_t size =
      kHeaderBytes + sessions.size() * kSessionBodyBytes + wire::kSealBytes;
  for (const solver::SolveCache::ExportedEntry& entry : cache_entries) {
    size += kEntryFixedBytes + entry.solution.x.size();
  }
  return size;
}

std::vector<std::uint8_t> Checkpoint::encode() const {
  wire::Writer w;
  w.reserve(encoded_size());
  w.u32(kCheckpointMagic);
  w.u32(kVersion);
  w.u64(server);
  w.i64(slot);
  w.u64(slots_run);
  w.u32(static_cast<std::uint32_t>(sessions.size()));
  for (const SessionState& session : sessions) {
    encode_session_body(w, session);
  }
  w.u32(static_cast<std::uint32_t>(cache_entries.size()));
  for (const solver::SolveCache::ExportedEntry& entry : cache_entries) {
    encode_cache_entry(w, entry);
  }
  std::vector<std::uint8_t> bytes = w.take();
  wire::seal(bytes);
  return bytes;
}

common::StatusOr<Checkpoint> Checkpoint::decode(
    std::vector<std::uint8_t> bytes) {
  const common::Status sealed = wire::unseal(bytes);
  if (!sealed.ok()) return sealed;
  wire::Reader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!r.u32(magic) || magic != kCheckpointMagic) {
    return common::Status::InvalidArgument("not a checkpoint frame");
  }
  if (!r.u32(version) || version != kVersion) {
    return common::Status::InvalidArgument("unsupported checkpoint version");
  }
  Checkpoint checkpoint;
  std::uint32_t session_count = 0;
  if (!r.u64(checkpoint.server) || !r.i64(checkpoint.slot) ||
      !r.u64(checkpoint.slots_run) || !r.u32(session_count)) {
    return common::Status::DataLoss("truncated checkpoint header");
  }
  checkpoint.sessions.reserve(session_count);
  for (std::uint32_t i = 0; i < session_count; ++i) {
    SessionState session;
    if (!decode_session_body(r, session)) {
      return common::Status::DataLoss("truncated checkpoint session");
    }
    checkpoint.sessions.push_back(std::move(session));
  }
  std::uint32_t entry_count = 0;
  if (!r.u32(entry_count)) {
    return common::Status::DataLoss("truncated checkpoint cache section");
  }
  checkpoint.cache_entries.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    solver::SolveCache::ExportedEntry entry;
    if (!decode_cache_entry(r, entry)) {
      return common::Status::DataLoss("truncated checkpoint cache entry");
    }
    checkpoint.cache_entries.push_back(std::move(entry));
  }
  if (!r.exhausted()) {
    return common::Status::DataLoss("trailing bytes after checkpoint");
  }
  return checkpoint;
}

common::Json Checkpoint::to_json() const {
  common::Json doc = common::Json::object();
  doc.set("version", static_cast<long>(kVersion));
  doc.set("server", static_cast<long>(server));
  doc.set("slot", static_cast<long>(slot));
  doc.set("slots_run", static_cast<long>(slots_run));
  common::Json session_rows = common::Json::array();
  for (const SessionState& session : sessions) {
    common::Json row = common::Json::object();
    row.set("user", static_cast<long>(session.user));
    row.set("posterior_mean", session.gamma.mean);
    row.set("posterior_variance", session.gamma.variance);
    row.set("observations", static_cast<long>(session.gamma.observations));
    row.set("battery_fraction", session.battery_fraction);
    row.set("last_assignment", static_cast<long>(session.last_assignment));
    row.set("slots_served", static_cast<long>(session.slots_served));
    session_rows.push(std::move(row));
  }
  doc.set("sessions", std::move(session_rows));
  common::Json cache_rows = common::Json::array();
  for (const solver::SolveCache::ExportedEntry& entry : cache_entries) {
    common::Json row = common::Json::object();
    row.set("key", static_cast<long>(entry.key));
    row.set("fingerprint", static_cast<long>(entry.fingerprint));
    row.set("variables", static_cast<long>(entry.solution.x.size()));
    cache_rows.push(std::move(row));
  }
  doc.set("cache_entries", std::move(cache_rows));
  return doc;
}

void CheckpointStore::put(std::uint64_t server,
                          std::vector<std::uint8_t> bytes) {
  latest_[server] = std::move(bytes);
}

common::StatusOr<Checkpoint> CheckpointStore::restore(
    std::uint64_t server) const {
  const auto it = latest_.find(server);
  if (it == latest_.end()) {
    return common::Status::NotFound("no checkpoint for server");
  }
  return Checkpoint::decode(it->second);
}

void CheckpointStore::erase(std::uint64_t server) { latest_.erase(server); }

bool CheckpointStore::contains(std::uint64_t server) const {
  return latest_.find(server) != latest_.end();
}

std::size_t CheckpointStore::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& [server, bytes] : latest_) total += bytes.size();
  return total;
}

}  // namespace lpvs::fleet
