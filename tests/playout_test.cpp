// The per-chunk playout step and the throughput estimator every client
// model shares (lpvs/streaming/playout.hpp), on hand-computed cases.
#include <gtest/gtest.h>

#include "lpvs/streaming/playout.hpp"

namespace lpvs::streaming {
namespace {

TEST(PlayoutBuffer, DownloadsCountAsStartupUntilTheThreshold) {
  PlayoutBuffer buffer(10.0, 60.0, 20.0);
  PlayoutStep step = buffer.step(3.0);
  EXPECT_EQ(step.startup_s, 3.0);
  EXPECT_EQ(buffer.level_s(), 10.0);
  EXPECT_FALSE(buffer.playing());

  step = buffer.step(4.0);  // the level reaches 20 s: playback starts
  EXPECT_EQ(step.startup_s, 4.0);
  EXPECT_EQ(step.stalled_s, 0.0);
  EXPECT_EQ(buffer.level_s(), 20.0);
  EXPECT_TRUE(buffer.playing());

  step = buffer.step(5.0);  // playing: no more startup time
  EXPECT_EQ(step.startup_s, 0.0);
  EXPECT_EQ(buffer.level_s(), 25.0);
}

TEST(PlayoutBuffer, PlaybackDrainsWhileTheNextChunkDownloads) {
  PlayoutBuffer buffer(10.0, 60.0, 10.0);
  buffer.step(2.0);
  const PlayoutStep step = buffer.step(4.0);  // 10 - 4 + 10
  EXPECT_EQ(step.startup_s, 0.0);
  EXPECT_EQ(step.stalled_s, 0.0);
  EXPECT_FALSE(step.new_freeze);
  EXPECT_EQ(buffer.level_s(), 16.0);
}

TEST(PlayoutBuffer, AStallAcrossTwoChunksIsOneEpisode) {
  PlayoutBuffer buffer(10.0, 60.0, 10.0);
  buffer.step(1.0);  // level 10, playing

  PlayoutStep step = buffer.step(15.0);  // 5 s frozen, episode begins
  EXPECT_EQ(step.stalled_s, 5.0);
  EXPECT_TRUE(step.new_freeze);
  EXPECT_EQ(buffer.level_s(), 10.0);

  step = buffer.step(12.0);  // still starved: same episode
  EXPECT_EQ(step.stalled_s, 2.0);
  EXPECT_FALSE(step.new_freeze);
  EXPECT_EQ(buffer.level_s(), 10.0);

  step = buffer.step(4.0);  // recovers
  EXPECT_EQ(step.stalled_s, 0.0);
  EXPECT_EQ(buffer.level_s(), 16.0);

  step = buffer.step(20.0);  // a later stall is a new episode
  EXPECT_EQ(step.stalled_s, 4.0);
  EXPECT_TRUE(step.new_freeze);
}

TEST(PlayoutBuffer, LevelIsClampedToCapacity) {
  PlayoutBuffer buffer(10.0, 20.0, 10.0);
  buffer.step(1.0);
  buffer.step(1.0);  // 10 - 1 + 10
  EXPECT_EQ(buffer.level_s(), 19.0);
  buffer.step(0.5);  // 28.5 clamped
  EXPECT_EQ(buffer.level_s(), 20.0);
}

TEST(ThroughputEstimator, HarmonicMeanOfTheHeldSamples) {
  ThroughputEstimator estimator;
  EXPECT_EQ(estimator.estimate(), 0.0);
  estimator.push(2.0);
  estimator.push(6.0);
  EXPECT_EQ(estimator.estimate(), 3.0);  // 2 / (1/2 + 1/6)
}

TEST(ThroughputEstimator, KeepsTheLastFiveAndSumsOldestFirst) {
  ThroughputEstimator estimator;
  for (const double mbps : {0.3, 0.7, 1.1, 2.9, 3.3, 7.1}) {
    estimator.push(mbps);
  }
  // 0.3 has left the window.  Summed newest first the same five rates
  // give a different last bit, so this pins the order too.
  const double oldest_first =
      5.0 / ((((1.0 / 0.7 + 1.0 / 1.1) + 1.0 / 2.9) + 1.0 / 3.3) + 1.0 / 7.1);
  const double newest_first =
      5.0 / ((((1.0 / 7.1 + 1.0 / 3.3) + 1.0 / 2.9) + 1.0 / 1.1) + 1.0 / 0.7);
  ASSERT_NE(oldest_first, newest_first);
  EXPECT_EQ(estimator.estimate(), oldest_first);
}

}  // namespace
}  // namespace lpvs::streaming
