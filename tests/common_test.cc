#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"

namespace uberrt {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status nf = Status::NotFound("thing");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: thing");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = 7;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = Status::Timeout("slow");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsTimeout());
}

TEST(ValueTest, TypedAccessAndComparison) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_TRUE(Value(true).AsBool());
  // Cross-type numeric ordering.
  EXPECT_TRUE(Value(int64_t{3}) < Value(3.5));
  EXPECT_FALSE(Value(3.5) < Value(int64_t{3}));
  // Null sorts first.
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
  // Numerics sort before strings.
  EXPECT_TRUE(Value(int64_t{99}) < Value("a"));
}

TEST(ValueTest, NumbersCompareExactlyAcrossIntAndDouble) {
  const Value lo(int64_t{9007199254740992});  // 2^53
  const Value hi(int64_t{9007199254740993});  // 2^53 + 1: no double holds it
  EXPECT_TRUE(lo < hi);
  EXPECT_FALSE(hi < lo);
  EXPECT_TRUE(Value(INT64_MAX - 1) < Value(INT64_MAX));
  EXPECT_TRUE(Value(INT64_MIN) < Value(INT64_MIN + 1));
  // INT against DOUBLE without rounding the int: 2^53 as a double equals lo
  // and is below hi.
  const Value d(9007199254740992.0);
  EXPECT_FALSE(lo < d);
  EXPECT_FALSE(d < lo);
  EXPECT_TRUE(d < hi);
  EXPECT_FALSE(hi < d);
  EXPECT_TRUE(Value(-3.5) < Value(int64_t{-3}));
  EXPECT_FALSE(Value(int64_t{-3}) < Value(-3.5));
  EXPECT_TRUE(Value(int64_t{-4}) < Value(-3.5));
  // INT64_MAX rounds up to 2^63 as a double; compared exactly it is below.
  EXPECT_TRUE(Value(INT64_MAX) < Value(0x1p63));
  EXPECT_FALSE(Value(0x1p63) < Value(INT64_MAX));
  EXPECT_TRUE(Value(-0x1p64) < Value(INT64_MIN));
  EXPECT_FALSE(Value(-0x1p63) < Value(INT64_MIN));
  EXPECT_FALSE(Value(INT64_MIN) < Value(-0x1p63));
}

TEST(ValueTest, MixedNumericOrderIsStrictWeak) {
  const int64_t big = int64_t{1} << 53;
  std::vector<Value> values = {
      Value::Null(),          Value(big),       Value(big + 1),     Value(big + 2),
      Value(static_cast<double>(big)),          Value(static_cast<double>(big + 2)),
      Value(-0.0),            Value(0.0),       Value(int64_t{0}),  Value(false),
      Value(true),            Value(int64_t{1}), Value(0.5),        Value(INT64_MAX),
      Value(INT64_MIN),       Value(0x1p63),    Value(-0x1p63),     Value("a"),
      Value("")};
  auto equiv = [](const Value& a, const Value& b) { return !(a < b) && !(b < a); };
  for (const Value& a : values) {
    EXPECT_FALSE(a < a) << a.ToString();
    for (const Value& b : values) {
      EXPECT_FALSE(a < b && b < a) << a.ToString() << " " << b.ToString();
      for (const Value& c : values) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c) << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
        if (equiv(a, b) && equiv(b, c)) {
          EXPECT_TRUE(equiv(a, c)) << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, ToNumericCoercions) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).ToNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(Value(true).ToNumeric(), 1.0);
  EXPECT_DOUBLE_EQ(Value("x").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().ToNumeric(), 0.0);
}

TEST(RowCodecTest, RoundTripAllTypes) {
  Row row{Value(int64_t{-42}), Value(3.14159), Value("hello world"), Value(false),
          Value::Null(), Value(std::string())};
  Result<Row> decoded = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), row);
}

TEST(RowCodecTest, EmptyRowRoundTrips) {
  Result<Row> decoded = DecodeRow(EncodeRow(Row{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(RowCodecTest, CorruptInputsRejectedSafely) {
  EXPECT_TRUE(DecodeRow("").status().IsCorruption());
  EXPECT_TRUE(DecodeRow("abc").status().IsCorruption());
  // Huge bogus field count must not allocate.
  EXPECT_TRUE(DecodeRow("\xff\xff\xff\xff").status().IsCorruption());
  // Truncated string body.
  std::string valid = EncodeRow({Value("hello")});
  EXPECT_TRUE(DecodeRow(valid.substr(0, valid.size() - 2)).status().IsCorruption());
}

/// Property sweep: random rows of every size round-trip exactly.
class RowCodecPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RowCodecPropertyTest, RandomRowsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    Row row;
    int64_t fields = rng.Uniform(0, 12);
    for (int64_t f = 0; f < fields; ++f) {
      switch (rng.Uniform(0, 4)) {
        case 0: row.push_back(Value(rng.Uniform(-1'000'000, 1'000'000))); break;
        case 1: row.push_back(Value(rng.Gaussian(0, 1e6))); break;
        case 2: row.push_back(Value(rng.AlphaString(static_cast<size_t>(rng.Uniform(0, 40))))); break;
        case 3: row.push_back(Value(rng.Chance(0.5))); break;
        default: row.push_back(Value::Null()); break;
      }
    }
    Result<Row> decoded = DecodeRow(EncodeRow(row));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), row);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(RowSchemaTest, FieldLookup) {
  RowSchema schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.FieldIndex("a"), 0);
  EXPECT_EQ(schema.FieldIndex("b"), 1);
  EXPECT_EQ(schema.FieldIndex("c"), -1);
  EXPECT_TRUE(schema.HasField("b"));
  EXPECT_EQ(schema.ToString(), "(a INT, b STRING)");
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, UnboundedNeverBlocks) {
  BoundedQueue<int> q(0);
  for (int i = 0; i < 100'000; ++i) ASSERT_TRUE(q.TryPush(i));
  EXPECT_EQ(q.Size(), 100'000u);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, BlockedProducerUnblocksOnPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_TRUE(q.Push(2)); });
  SystemClock::Instance()->SleepMs(5);
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(MetricsTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetCounter("c")->Increment();
  EXPECT_EQ(registry.GetCounter("c")->value(), 4);
  registry.GetGauge("g")->Set(7);
  EXPECT_EQ(registry.GetGauge("g")->value(), 7);
  Histogram* h = registry.GetHistogram("h");
  for (int i = 1; i <= 100; ++i) h->Record(i);
  EXPECT_EQ(h->Percentile(50), 50);
  EXPECT_EQ(h->Percentile(99), 99);
  EXPECT_EQ(h->Max(), 100);
  EXPECT_DOUBLE_EQ(h->Mean(), 50.5);
  auto snapshot = registry.SnapshotValues();
  EXPECT_EQ(snapshot["c"], 4);
  EXPECT_EQ(snapshot["g"], 7);
}

TEST(MetricsTest, HistogramSortCacheInvalidatedByRecord) {
  // Regression for the lazily-sorted percentile cache: queries between
  // records reuse one sort, and a new Record must invalidate the cache so
  // later queries see the fresh sample (interleaved query/record pattern).
  Histogram h;
  h.Record(10);
  h.Record(30);
  EXPECT_EQ(h.Percentile(0), 10);
  EXPECT_EQ(h.Percentile(100), 30);
  h.Record(20);  // lands in the middle after the cache was built
  EXPECT_EQ(h.Percentile(50), 20);
  EXPECT_EQ(h.Max(), 30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  h.Record(5);  // new minimum after another query round
  EXPECT_EQ(h.Percentile(0), 5);
  EXPECT_EQ(h.Max(), 30);
  h.Reset();
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  h.Record(-7);  // negative samples: max must track the first sample
  EXPECT_EQ(h.Max(), -7);
  EXPECT_EQ(h.Percentile(100), -7);
}

TEST(MetricsTest, HistogramConcurrentRecordAndQuery) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    int64_t i = 0;
    while (!stop.load()) h.Record(i++ % 1000);
  });
  std::thread querier([&] {
    while (!stop.load()) {
      int64_t p50 = h.Percentile(50);
      EXPECT_GE(p50, 0);
      EXPECT_LE(h.Percentile(99), 999);
      EXPECT_GE(h.Max(), p50);
    }
  });
  SystemClock::Instance()->SleepMs(100);
  stop.store(true);
  recorder.join();
  querier.join();
  EXPECT_GT(h.Count(), 0u);
}

TEST(HashTest, StablePartitioning) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  for (uint32_t n : {1u, 4u, 16u}) {
    EXPECT_LT(KeyToPartition("some-key", n), n);
  }
}

TEST(RngTest, DeterministicWithSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
}

TEST(RngTest, ZipfSkewsTowardLowIndexes) {
  Rng rng(7);
  int64_t low = 0;
  const int kTrials = 10'000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  // With skew, the first 10% of the ids should get far more than 10% of hits.
  EXPECT_GT(low, kTrials / 4);
}

TEST(SimulatedClockTest, AdvancesManually) {
  SimulatedClock clock(1000);
  EXPECT_EQ(clock.NowMs(), 1000);
  clock.AdvanceMs(500);
  EXPECT_EQ(clock.NowMs(), 1500);
  clock.SleepMs(100);  // advances, doesn't block
  EXPECT_EQ(clock.NowMs(), 1600);
}

}  // namespace
}  // namespace uberrt
