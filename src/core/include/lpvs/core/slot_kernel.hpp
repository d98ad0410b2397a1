// The slot kernel: the per-slot decisions that every slot loop — the
// emulator (emu::Emulator), the federation (fleet::Federation) and the
// serving daemon's worker — must make the same way (SVI-B): the content a
// user watches, its per-chunk power rates p(kappa) and edge costs (SIV-B),
// the playback drain, and the end-of-slot gamma observation (SV-D).
//
// core::ClusterSlot is the one cluster-slot step of the daemon and the
// federation: it assembles a cluster's slot problem from member rows with
// these functions, calls the scheduler, and checks the schedule against
// the capacity rows (6)/(7).  The daemon's worker keeps one step for its
// lifetime and the federation one per fork-join runner, so in steady state
// a cluster-slot allocates no rows, videos or pricing scratch.  What
// really differs between callers stays with them: a row's battery energy,
// capacity and gamma (the battery object, a reported or a device-side
// fraction, the GammaMode), the solve context (slot, cache, deadline,
// forced rung), and what happens to the schedule (frames on the wire, or
// playback and the gamma observation).
// The emulator calls the functions directly, because its one-slot-ahead
// prediction, CDN-published videos and partial-window pricing would make
// the step branch on its caller.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lpvs/battery/battery.hpp"
#include "lpvs/bayes/gamma_estimator.hpp"
#include "lpvs/bayes/nig_estimator.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/core/slot_problem_config.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::core {

/// Writes the video `user` watches in `slot` into `out`: a pure function of
/// (seed, user, slot), so paired runs, any server and any worker see the
/// same chunks.
void slot_video_into(media::Video& out, std::uint64_t seed,
                     std::uint64_t user, std::uint64_t slot,
                     media::Genre genre, int chunks, double bitrate_mbps,
                     double chunk_s);

/// Prices each chunk once: rates[k] = p(chunks[k]) on `spec`, in mW.  The
/// panel's content-independent terms (display::DevicePowerModel::Panel) are
/// computed once per call, not per chunk; the rates are bit-identical.
void price_chunks(const display::DisplaySpec& spec,
                  std::span<const media::VideoChunk> chunks,
                  std::span<double> rates);

/// Fills a scheduler row's content-derived fields: the id, the rates of
/// the first rates.size() chunks and their durations, the edge costs g(d)
/// and h(d), and the standard SLA tier.
void fill_slot_row(DeviceSlotInput& row, common::DeviceId id,
                   const display::DisplaySpec& spec, const media::Video& video,
                   std::span<const double> rates);

enum class PlaybackEnd { kWatching, kDepleted, kGaveUp };

/// Plays one slot on `battery`.  Per chunk: samples the anxiety at the
/// battery fraction, drains psi = (1 - gamma) p if transformed (p
/// otherwise), and stops on depletion, then at `giveup_percent` (0: never).
/// Each chunk adds to the accumulators in that order and hands its drawn
/// mWh to `on_drawn`, so callers keep their floating-point summation order.
template <typename OnDrawn>
PlaybackEnd play_slot(battery::Battery& battery, const media::Video& video,
                      std::span<const double> rates, bool transformed,
                      double true_gamma, int giveup_percent,
                      const survey::AnxietyModel& anxiety,
                      double& anxiety_sum, long& anxiety_samples,
                      double& watch_minutes, OnDrawn&& on_drawn) {
  for (std::size_t k = 0; k < video.chunks.size(); ++k) {
    const common::Seconds duration = video.chunks[k].duration;
    const double psi = transformed ? (1.0 - true_gamma) * rates[k] : rates[k];
    anxiety_sum += anxiety(battery.fraction());
    ++anxiety_samples;
    on_drawn(battery.drain(common::Milliwatts{psi}, duration).value);
    watch_minutes += duration.value / 60.0;
    if (battery.empty()) return PlaybackEnd::kDepleted;
    if (giveup_percent > 0 &&
        battery.percent() <= static_cast<double>(giveup_percent)) {
      return PlaybackEnd::kGaveUp;
    }
  }
  return PlaybackEnd::kWatching;
}

/// The end-of-slot observation of a transformed stream's realized saving,
/// with measurement noise keyed on (seed, user, slot) so every server
/// observing the user draws the same noise.  It crosses the kBayesReport
/// fault site: a drop loses it (returns nullopt, the posteriors do not
/// move), a corruption garbles it.  A delivered observation updates both
/// posteriors and is returned.
std::optional<double> observe_gamma(bayes::GammaEstimator& gamma,
                                    bayes::NigGammaEstimator& nig,
                                    double true_gamma, double noise_std,
                                    std::uint64_t seed, std::uint64_t user,
                                    std::uint64_t slot,
                                    const fault::FaultInjector* faults);

/// One member row of a cluster-slot: what the step generates and prices,
/// plus the three fields only the caller knows.
struct SlotMember {
  std::uint64_t user = 0;
  const display::DisplaySpec* spec = nullptr;
  media::Genre genre = media::Genre::kIrlChat;
  double bitrate_mbps = 0.0;
  double energy_mwh = 0.0;    ///< e_n(1)
  double capacity_mwh = 0.0;  ///< the full charge e_n(1) is a fraction of
  double gamma = 0.0;         ///< E[gamma_n]
};

/// Constraints (6)/(7): `schedule` has one decision per device, and the
/// devices it selects fit C and S within 1e-9.
bool within_capacity(const SlotProblem& problem, const Schedule& schedule);

/// A schedule and its check against the capacity rows.
struct CheckedSchedule {
  Schedule schedule;
  bool within_capacity = true;  ///< (6) and (7) hold for schedule.x
};

/// One slot of one virtual cluster, assembled, solved and checked.  A step
/// kept across slots, or across clusters of different sizes, reuses its
/// rows, videos and pricing scratch: once it has seen its largest cluster,
/// assemble() allocates nothing.
class ClusterSlot {
 public:
  /// Sets C, S and lambda from `config` and fills row i from members[i]:
  /// content, rates and edge costs from the kernel functions above, then
  /// the member's energy, capacity and gamma.
  void assemble(const SlotProblemConfig& config, std::uint64_t slot,
                std::span<const SlotMember> members);

  /// Runs `scheduler` on the assembled problem; checks with
  /// within_capacity.
  CheckedSchedule solve(const Scheduler& scheduler,
                        const RunContext& context) const;

  const SlotProblem& problem() const { return problem_; }
  /// For a solver above core (joint ABR) to swap into its own problem.
  SlotProblem& problem() { return problem_; }
  /// Row i's slot video; row i's rates are its chunks' p(kappa).
  const media::Video& video(std::size_t i) const { return videos_[i]; }

 private:
  SlotProblem problem_;
  std::vector<DeviceSlotInput> spare_rows_;  ///< rows past the last size
  std::vector<media::Video> videos_;         ///< at least the last size
  std::vector<double> rates_;
};

}  // namespace lpvs::core
