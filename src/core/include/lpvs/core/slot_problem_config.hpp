// SlotProblemConfig: the one type that parameterizes slot-problem assembly.
//
// The emulator (one virtual cluster), the city replay (many), the fleet
// federation (per edge server) and the serving daemon (per connected
// cluster) build core::SlotProblem instances from these knobs:
// emu::ClusterParams derives from this struct and server::ServerConfig
// embeds it, so no subsystem keeps its own copy of a default.  The load
// generator receives decisions over the wire and uses it only through the
// daemon it drives.
//
// Fluent `with_*` builders mirror core::RunContext: each returns an updated
// copy, so call sites can assemble a config in one expression without
// mutating a shared instance.
#pragma once

#include <cstdint>

namespace lpvs::core {

struct SlotProblemConfig {
  /// Edge transform capacity C of constraint (6), compute units.
  double compute_capacity = 45.0;
  /// Edge staging storage S of constraint (7), megabytes.
  double storage_capacity_mb = 32.0 * 1024.0;
  /// Objective regularizer of (8a)/(13).
  double lambda = 2000.0;
  /// Chunks generated (and priced) per device per slot.
  int chunks_per_slot = 30;
  /// Playback seconds per chunk.
  double chunk_seconds = 10.0;
  /// Fraction of the full charge a user budgets for one viewing session —
  /// the session-budget convention every subsystem shares, so absolute
  /// watch-time numbers land on the paper's scale.
  double effective_capacity_scale = 0.25;
  /// Seeds the derived per-(entity, slot) randomness streams.
  std::uint64_t seed = 42;

  SlotProblemConfig with_compute_capacity(double v) const {
    SlotProblemConfig c = *this;
    c.compute_capacity = v;
    return c;
  }
  SlotProblemConfig with_storage_capacity_mb(double v) const {
    SlotProblemConfig c = *this;
    c.storage_capacity_mb = v;
    return c;
  }
  SlotProblemConfig with_lambda(double v) const {
    SlotProblemConfig c = *this;
    c.lambda = v;
    return c;
  }
  SlotProblemConfig with_chunks_per_slot(int v) const {
    SlotProblemConfig c = *this;
    c.chunks_per_slot = v;
    return c;
  }
  SlotProblemConfig with_chunk_seconds(double v) const {
    SlotProblemConfig c = *this;
    c.chunk_seconds = v;
    return c;
  }
  SlotProblemConfig with_effective_capacity_scale(double v) const {
    SlotProblemConfig c = *this;
    c.effective_capacity_scale = v;
    return c;
  }
  SlotProblemConfig with_seed(std::uint64_t v) const {
    SlotProblemConfig c = *this;
    c.seed = v;
    return c;
  }
};

}  // namespace lpvs::core
