// Tests for the JSON builder and the metrics serialization.
#include <gtest/gtest.h>

#include <string>

#include "lpvs/common/json.hpp"
#include "lpvs/emu/metrics_io.hpp"

namespace lpvs::common {
namespace {

TEST(JsonTest, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(JsonTest, IntegerValuedDoublesPrintWithoutFraction) {
  EXPECT_EQ(Json(1000.0).dump(), "1000");
  EXPECT_EQ(Json(0.0).dump(), "0");
}

TEST(JsonTest, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zeta", 1).set("alpha", 2).set("mid", 3);
  EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  EXPECT_EQ(j.size(), 3u);
}

TEST(JsonTest, SetOverwritesExistingKey) {
  Json j = Json::object();
  j.set("k", 1);
  j.set("k", 2);
  EXPECT_EQ(j.dump(), "{\"k\":2}");
  EXPECT_EQ(j.size(), 1u);
}

TEST(JsonTest, ArraysAndNesting) {
  Json arr = Json::array();
  arr.push(1).push("two").push(Json::object().set("three", 3));
  EXPECT_EQ(arr.dump(), "[1,\"two\",{\"three\":3}]");
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 3u);
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(), "[]");
}

TEST(JsonTest, EscapingControlAndQuotes) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Json("line\nbreak").dump(), "\"line\\nbreak\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonTest, NullnessAndSizeByKind) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_FALSE(Json(0).is_null());
  EXPECT_FALSE(Json("").is_null());
  EXPECT_FALSE(Json::object().is_null());
  EXPECT_TRUE(Json::object().is_object());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_EQ(Json(3.5).size(), 0u);
  // A default (null) value becomes a container on first set/push.
  Json grown;
  grown.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_TRUE(grown.is_object());
  EXPECT_EQ(grown.size(), 2u);
  Json list;
  list.push(Json()).push(Json());
  EXPECT_TRUE(list.is_array());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.dump(), "[null,null]");
}

TEST(JsonTest, EscapeQuotesAndMatchesStringDump) {
  EXPECT_EQ(Json::escape(""), "\"\"");
  EXPECT_EQ(Json::escape("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(Json::escape("cr\r"), "\"cr\\r\"");
  // UTF-8 passes through untouched; only control bytes are \u-escaped.
  EXPECT_EQ(Json::escape("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
  EXPECT_EQ(Json::escape(std::string(1, '\x1f')), "\"\\u001f\"");
  for (const std::string raw : {"plain", "a\"b", "x\\y", "line\nbreak"}) {
    EXPECT_EQ(Json::escape(raw), Json(raw).dump()) << raw;
  }
  // Keys go through the same escaping.
  EXPECT_EQ(Json::object().set("k\"ey", 1).dump(), "{\"k\\\"ey\":1}");
}

TEST(JsonTest, PrettyPrinting) {
  Json j = Json::object();
  j.set("a", 1);
  j.set("b", Json::array().push(2));
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1"), std::string::npos);
  EXPECT_NE(pretty.find("\"b\": [\n    2\n  ]"), std::string::npos);
}

TEST(JsonTest, SetOnScalarConvertsToObject) {
  Json j(5);
  j.set("now", "object");
  EXPECT_TRUE(j.is_object());
}

TEST(MetricsIo, RunMetricsRoundTripShape) {
  emu::RunMetrics metrics;
  metrics.total_energy_mwh = 123.5;
  metrics.mean_anxiety = 0.25;
  metrics.slots_run = 4;
  metrics.tpv_minutes = {10.0, 20.0};
  metrics.start_fractions = {0.5, 0.3};
  metrics.final_fractions = {0.4, 0.1};
  metrics.served = {1, 0};
  metrics.last_gamma_estimate = {0.3, 0.31};
  metrics.mean_true_gamma = {0.29, 0.32};
  const Json j = emu::to_json(metrics);
  const std::string dump = j.dump();
  EXPECT_NE(dump.find("\"total_energy_mwh\":123.5"), std::string::npos);
  EXPECT_NE(dump.find("\"devices\":[{"), std::string::npos);
  EXPECT_NE(dump.find("\"served\":true"), std::string::npos);
  EXPECT_NE(dump.find("\"served\":false"), std::string::npos);
}

TEST(MetricsIo, PairedMetricsIncludesRatios) {
  emu::PairedMetrics paired;
  paired.with_lpvs.total_energy_mwh = 70.0;
  paired.without_lpvs.total_energy_mwh = 100.0;
  const std::string dump = emu::to_json(paired).dump();
  EXPECT_NE(dump.find("\"energy_saving_ratio\":0.3"), std::string::npos);
  EXPECT_NE(dump.find("\"with_lpvs\""), std::string::npos);
  EXPECT_NE(dump.find("\"without_lpvs\""), std::string::npos);
}

TEST(MetricsIo, ReplayReportListsClusters) {
  emu::ReplayReport report;
  emu::ClusterOutcome outcome;
  outcome.channel = common::ChannelId{7};
  outcome.group_size = 55;
  report.clusters.push_back(outcome);
  const std::string dump = emu::to_json(report).dump();
  EXPECT_NE(dump.find("\"channel\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"group_size\":55"), std::string::npos);
}

}  // namespace
}  // namespace lpvs::common
