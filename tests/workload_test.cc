#include <gtest/gtest.h>

#include <set>

#include "stream/broker.h"
#include "workload/generators.h"

namespace uberrt::workload {
namespace {

TEST(TripGeneratorTest, DeterministicWithSeed) {
  TripEventGenerator a({}, 7), b({}, 7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.NextRow(), b.NextRow());
}

TEST(TripGeneratorTest, RowsMatchSchemaAndAdvanceTime) {
  TripEventGenerator gen({});
  RowSchema schema = TripEventGenerator::Schema();
  TimestampMs last = -1;
  for (int i = 0; i < 100; ++i) {
    Row row = gen.NextRow();
    ASSERT_EQ(row.size(), schema.NumFields());
    EXPECT_EQ(row[0].type(), ValueType::kInt);
    EXPECT_EQ(row[1].type(), ValueType::kString);
    EXPECT_GT(row[5].ToNumeric(), 0.0);  // fare positive
    EXPECT_GE(gen.last_event_time(), last);
    last = gen.last_event_time();
  }
}

TEST(TripGeneratorTest, HexSkewProducesHotGeofences) {
  TripEventGenerator::Options options;
  options.num_hexes = 50;
  TripEventGenerator gen(options);
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) counts[gen.NextRow()[1].AsString()]++;
  int hottest = 0;
  for (const auto& [hex, n] : counts) hottest = std::max(hottest, n);
  // Zipf: the hottest hex gets far more than the uniform share (100).
  EXPECT_GT(hottest, 300);
}

TEST(TripGeneratorTest, NoiseInjectsLateDuplicateAndCorrupt) {
  stream::Broker broker("c1");
  stream::TopicConfig config;
  config.num_partitions = 2;
  broker.CreateTopic("trips", config).ok();
  TripEventGenerator::Options options;
  options.noise.late_probability = 0.3;
  options.noise.duplicate_probability = 0.2;
  options.noise.corrupt_probability = 0.1;
  TripEventGenerator gen(options);
  Result<int64_t> produced = gen.Produce(&broker, "trips", 500);
  ASSERT_TRUE(produced.ok());
  EXPECT_GT(produced.value(), 500);  // duplicates add extra

  int64_t corrupt = 0, total = 0;
  std::set<std::string> uids;
  int64_t dupes = 0;
  for (int32_t p = 0; p < 2; ++p) {
    Result<stream::FetchedBatch> batch = broker.FetchViews("trips", p, 0, 10'000);
    ASSERT_TRUE(batch.ok());
    for (const stream::wire::MessageView& m : batch.value().messages) {
      ++total;
      if (!DecodeRow(m.value).ok()) ++corrupt;
      std::string_view uid;
      ASSERT_TRUE(m.GetHeader(stream::kHeaderUid, &uid));
      if (!uids.emplace(uid).second) ++dupes;
    }
  }
  EXPECT_EQ(total, produced.value());
  EXPECT_GT(corrupt, 10);
  EXPECT_GT(dupes, 30);
}

TEST(EatsOrderGeneratorTest, FieldsWithinConfiguredDomains) {
  EatsOrderGenerator gen({});
  EatsOrderGenerator::Options defaults;
  for (int i = 0; i < 200; ++i) {
    Row row = gen.NextRow();
    ASSERT_EQ(row.size(), EatsOrderGenerator::Schema().NumFields());
    EXPECT_LT(row[1].AsInt(), defaults.num_restaurants);
    bool known_city = false;
    for (const std::string& city : defaults.cities) {
      if (row[4].AsString() == city) known_city = true;
    }
    EXPECT_TRUE(known_city);
    EXPECT_GT(row[6].ToNumeric(), 0.0);
  }
}

TEST(PredictionGeneratorTest, PairsShareIdAndModelOutcomeLags) {
  PredictionGenerator gen({});
  PredictionGenerator::Options defaults;
  for (int i = 0; i < 100; ++i) {
    PredictionGenerator::Pair pair = gen.NextPair();
    EXPECT_EQ(pair.prediction[0].AsInt(), pair.outcome[0].AsInt());
    EXPECT_EQ(pair.prediction[1].AsString(), pair.outcome[1].AsString());
    EXPECT_EQ(pair.outcome[3].AsInt() - pair.prediction[3].AsInt(),
              defaults.outcome_delay_ms);
  }
}

TEST(PredictionGeneratorTest, BiasGrowsWithModelIndexMod5) {
  PredictionGenerator gen({});
  std::map<std::string, std::pair<double, int>> error_sums;
  for (int i = 0; i < 5000; ++i) {
    PredictionGenerator::Pair pair = gen.NextPair();
    double err = std::abs(pair.prediction[2].AsDouble() - pair.outcome[2].AsDouble());
    auto& [sum, n] = error_sums[pair.prediction[1].AsString()];
    sum += err;
    ++n;
  }
  double low_bias = error_sums["model0"].first / error_sums["model0"].second;
  double high_bias = error_sums["model4"].first / error_sums["model4"].second;
  EXPECT_GT(high_bias, low_bias * 3);
}

}  // namespace
}  // namespace uberrt::workload
