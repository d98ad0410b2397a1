#include "lpvs/fleet/checkpoint.hpp"

#include <utility>

#include "lpvs/fleet/wire.hpp"

namespace lpvs::fleet {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4C504650u;  // "LPFP"
/// Magic, version, server, slot, slots_run, session count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

}  // namespace

std::size_t Checkpoint::encoded_size() const {
  return kHeaderBytes + sessions.size() * kSessionBodyBytes +
         wire::kSealBytes;
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
