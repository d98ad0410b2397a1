// ClusterParams: the knobs every virtual-cluster run shares (API redesign).
//
// EmulatorConfig (single cluster) and ReplayConfig (city-wide, many
// clusters) used to duplicate these fields, so a default changed in one
// could silently drift from the other.  Both now embed this struct as a
// base; the replay forwards its whole ClusterParams slice into each
// per-cluster EmulatorConfig in one assignment, so a knob added here flows
// through automatically.
//
// The slot-problem knobs themselves (capacities, lambda, chunk shape,
// session budget, seed) live one layer lower, in
// core::SlotProblemConfig — the single type the emulator, replay,
// federation, and serving daemon all assemble slot problems from.  This
// struct only adds what is cluster-lifecycle-specific.
#pragma once

#include "lpvs/core/slot_problem_config.hpp"

namespace lpvs::emu {

struct ClusterParams : core::SlotProblemConfig {
  /// Users leave when battery hits their survey give-up level.
  bool enable_giveup = true;
  /// Devices per virtual cluster: the replay caps each cluster at this
  /// size; the single-cluster Emulator sets its exact group size via
  /// EmulatorConfig::group_size (which may legitimately exceed this cap in
  /// stress scenarios) and treats this field as documentation of the
  /// deployment's per-edge-server budget.
  int max_group_size = 100;
};

}  // namespace lpvs::emu
