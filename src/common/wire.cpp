#include "lpvs/common/wire.hpp"

namespace lpvs::common::wire {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

}  // namespace

std::uint64_t fnv1a(std::uint64_t hash, const std::uint8_t* data,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t checksum(const std::vector<std::uint8_t>& bytes,
                       std::size_t count) {
  return fnv1a(kFnvOffsetBasis, bytes.data(),
               count < bytes.size() ? count : bytes.size());
}

void seal(std::vector<std::uint8_t>& bytes) { seal(bytes, 0); }

void seal(std::vector<std::uint8_t>& bytes, std::size_t from) {
  const std::uint64_t sum =
      fnv1a(kFnvOffsetBasis, bytes.data() + from, bytes.size() - from);
  Writer(&bytes).u64(sum);
}

common::Status unseal(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kSealBytes) {
    return common::Status::DataLoss("payload shorter than its checksum");
  }
  const std::size_t body = bytes.size() - kSealBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kSealBytes; ++i) {
    stored |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
  }
  if (stored != checksum(bytes, body)) {
    return common::Status::DataLoss("payload checksum mismatch");
  }
  bytes.resize(body);
  return common::Status::Ok();
}

common::Status verify_seal(const std::uint8_t* data, std::size_t size) {
  if (size < kSealBytes) {
    return common::Status::DataLoss("payload shorter than its checksum");
  }
  const std::size_t body = size - kSealBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kSealBytes; ++i) {
    stored |= static_cast<std::uint64_t>(data[body + i]) << (8 * i);
  }
  if (stored != fnv1a(kFnvOffsetBasis, data, body)) {
    return common::Status::DataLoss("payload checksum mismatch");
  }
  return common::Status::Ok();
}

}  // namespace lpvs::common::wire
