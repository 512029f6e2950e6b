#include "compute/window_operator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "storage/archive.h"

namespace uberrt::compute {
namespace {

RowSchema EventSchema() {
  return RowSchema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

/// Captures emissions.
class CollectingEmitter : public Emitter {
 public:
  void Emit(Row row, TimestampMs event_time) override {
    rows.push_back(std::move(row));
    times.push_back(event_time);
  }
  std::vector<Row> rows;
  std::vector<TimestampMs> times;
};

TransformSpec AggSpec(WindowSpec window, int64_t lateness = 0) {
  TransformSpec spec;
  spec.kind = TransformSpec::Kind::kWindowAggregate;
  spec.name = "agg";
  spec.key_fields = {"key"};
  spec.window = window;
  spec.aggregates = {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s"),
                     AggregateSpec::Min("v", "lo"), AggregateSpec::Max("v", "hi"),
                     AggregateSpec::Avg("v", "avg")};
  spec.allowed_lateness_ms = lateness;
  return spec;
}

Element Record(const std::string& key, double v, TimestampMs ts) {
  return Element::Record({Value(key), Value(v), Value(ts)}, ts);
}

TEST(WindowAggregateOperatorTest, TumblingFiresOnceWithAllAggregates) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Tumbling(100)), EventSchema());
  CollectingEmitter out;
  op.ProcessRecord(Record("a", 1.0, 10), &out);
  op.ProcessRecord(Record("a", 5.0, 20), &out);
  op.ProcessRecord(Record("a", 3.0, 99), &out);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(op.LiveWindows(), 1);
  op.OnWatermark(100, &out);
  ASSERT_EQ(out.rows.size(), 1u);
  const Row& row = out.rows[0];
  // [key, window_start, n, s, lo, hi, avg]
  EXPECT_EQ(row[0].AsString(), "a");
  EXPECT_EQ(row[1].AsInt(), 0);
  EXPECT_EQ(row[2].AsInt(), 3);
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(row[4].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(row[5].AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(row[6].AsDouble(), 3.0);
  EXPECT_EQ(op.LiveWindows(), 0);
  EXPECT_EQ(op.StateBytes(), 0);  // fully reclaimed
}

TEST(WindowAggregateOperatorTest, NegativeTimestampsAssignCorrectWindows) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Tumbling(100)), EventSchema());
  CollectingEmitter out;
  op.ProcessRecord(Record("a", 1.0, -50), &out);  // window [-100, 0)
  op.OnWatermark(0, &out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][1].AsInt(), -100);
}

TEST(WindowAggregateOperatorTest, SlidingWindowsOverlap) {
  // size 100, slide 50: each record lands in 2 windows.
  WindowAggregateOperator op(AggSpec(WindowSpec::Sliding(100, 50)), EventSchema());
  CollectingEmitter out;
  op.ProcessRecord(Record("a", 1.0, 60), &out);  // windows [0,100) and [50,150)
  op.OnWatermark(200, &out);
  ASSERT_EQ(out.rows.size(), 2u);
  std::set<int64_t> starts{out.rows[0][1].AsInt(), out.rows[1][1].AsInt()};
  EXPECT_TRUE(starts.count(0) == 1 && starts.count(50) == 1);
}

TEST(WindowAggregateOperatorTest, SessionWindowsMergeOnOverlap) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Session(100)), EventSchema());
  CollectingEmitter out;
  // Two bursts per key: 10,50,90 (one session) then 400 (another session).
  op.ProcessRecord(Record("a", 1.0, 10), &out);
  op.ProcessRecord(Record("a", 1.0, 90), &out);
  op.ProcessRecord(Record("a", 1.0, 50), &out);  // bridges/merges
  op.ProcessRecord(Record("a", 1.0, 400), &out);
  EXPECT_EQ(op.LiveWindows(), 2);
  op.OnWatermark(kMaxWatermark, &out);
  ASSERT_EQ(out.rows.size(), 2u);
  // First session counts 3, second 1.
  std::map<int64_t, int64_t> by_start;
  for (const Row& row : out.rows) by_start[row[1].AsInt()] = row[2].AsInt();
  EXPECT_EQ(by_start[10], 3);
  EXPECT_EQ(by_start[400], 1);
}

TEST(WindowAggregateOperatorTest, SessionsArePerKey) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Session(100)), EventSchema());
  CollectingEmitter out;
  op.ProcessRecord(Record("a", 1.0, 10), &out);
  op.ProcessRecord(Record("b", 1.0, 20), &out);  // overlapping time, other key
  EXPECT_EQ(op.LiveWindows(), 2);
  op.OnWatermark(kMaxWatermark, &out);
  EXPECT_EQ(out.rows.size(), 2u);
}

TEST(WindowAggregateOperatorTest, LatenessExtendsFiring) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Tumbling(100), /*lateness=*/50),
                             EventSchema());
  CollectingEmitter out;
  op.ProcessRecord(Record("a", 1.0, 10), &out);
  op.OnWatermark(120, &out);  // end=100, fire at 150
  EXPECT_TRUE(out.rows.empty());
  // A late-but-allowed record still lands.
  op.ProcessRecord(Record("a", 2.0, 20), &out);
  EXPECT_EQ(op.late_dropped(), 0);
  op.OnWatermark(150, &out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][2].AsInt(), 2);
  // Beyond lateness: dropped.
  op.ProcessRecord(Record("a", 3.0, 30), &out);
  EXPECT_EQ(op.late_dropped(), 1);
}

TEST(WindowAggregateOperatorTest, SnapshotRestoreIsExact) {
  Rng rng(13);
  WindowAggregateOperator original(AggSpec(WindowSpec::Tumbling(1000)), EventSchema());
  CollectingEmitter sink;
  for (int i = 0; i < 500; ++i) {
    original.ProcessRecord(Record("k" + std::to_string(rng.Uniform(0, 20)),
                                  rng.Gaussian(10, 3), rng.Uniform(0, 10'000)),
                           &sink);
  }
  ASSERT_TRUE(sink.rows.empty());
  std::string blob = original.SnapshotState();

  WindowAggregateOperator restored(AggSpec(WindowSpec::Tumbling(1000)), EventSchema());
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.LiveWindows(), original.LiveWindows());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());

  CollectingEmitter a, b;
  original.OnWatermark(kMaxWatermark, &a);
  restored.OnWatermark(kMaxWatermark, &b);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  auto sorter = [](const Row& x, const Row& y) {
    if (x[0].AsString() != y[0].AsString()) return x[0].AsString() < y[0].AsString();
    return x[1].AsInt() < y[1].AsInt();
  };
  std::sort(a.rows.begin(), a.rows.end(), sorter);
  std::sort(b.rows.begin(), b.rows.end(), sorter);
  EXPECT_EQ(a.rows, b.rows);
}

// Snapshot blobs written by the retired std::map-keyed implementation must
// restore into the flat-hash keyed state unchanged, and re-snapshotting must
// reproduce them byte for byte (rows sorted by (start, key) — the old map's
// iteration order). Guards checkpoint compatibility across the migration.
TEST(WindowAggregateOperatorTest, LegacyFormatBlobRoundTripsBitwise) {
  TransformSpec spec;
  spec.kind = TransformSpec::Kind::kWindowAggregate;
  spec.name = "agg";
  spec.key_fields = {"key"};
  spec.window = WindowSpec::Tumbling(100);
  spec.aggregates = {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s")};

  // Build the blob exactly as the std::map<WindowKey, WindowState> encoder
  // did: iterate (start, encoded key) in ascending order, one row per window
  // of [key, start, end, EncodeRow(key_values), (count,sum,min,max) x aggs].
  struct LegacyWindow {
    Row key_values;
    TimestampMs end;
    int64_t count;
    double sum;
  };
  std::map<std::pair<TimestampMs, std::string>, LegacyWindow> legacy;
  legacy[{0, EncodeRow({Value("b")})}] = {{Value("b")}, 100, 2, 7.0};
  legacy[{0, EncodeRow({Value("a")})}] = {{Value("a")}, 100, 3, 6.0};
  legacy[{100, EncodeRow({Value("a")})}] = {{Value("a")}, 200, 1, 4.0};
  std::vector<Row> blob_rows;
  for (const auto& [wk, ws] : legacy) {
    Row row{Value(wk.second), Value(static_cast<int64_t>(wk.first)),
            Value(static_cast<int64_t>(ws.end)), Value(EncodeRow(ws.key_values))};
    // Count accumulator: count only; min/max track the counted 1.0 samples.
    row.insert(row.end(), {Value(ws.count), Value(static_cast<double>(ws.count)),
                           Value(1.0), Value(1.0)});
    // Sum accumulator.
    row.insert(row.end(),
               {Value(ws.count), Value(ws.sum), Value(1.0), Value(ws.sum)});
    blob_rows.push_back(std::move(row));
  }
  std::string legacy_blob = storage::EncodeRowBatch(blob_rows);

  WindowAggregateOperator op(spec, EventSchema());
  ASSERT_TRUE(op.RestoreState(legacy_blob).ok());
  EXPECT_EQ(op.LiveWindows(), 3);
  EXPECT_EQ(op.SnapshotState(), legacy_blob);

  // The restored windows fire with the legacy counts, oldest start first.
  CollectingEmitter out;
  op.OnWatermark(kMaxWatermark, &out);
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_EQ(out.rows[0][0].AsString(), "a");
  EXPECT_EQ(out.rows[0][1].AsInt(), 0);
  EXPECT_EQ(out.rows[0][2].AsInt(), 3);
  EXPECT_DOUBLE_EQ(out.rows[0][3].AsDouble(), 6.0);
  EXPECT_EQ(out.rows[1][0].AsString(), "b");
  EXPECT_EQ(out.rows[1][2].AsInt(), 2);
  EXPECT_EQ(out.rows[2][1].AsInt(), 100);
  EXPECT_EQ(out.rows[2][2].AsInt(), 1);
}

TEST(WindowAggregateOperatorTest, RestoreRejectsCorruptState) {
  WindowAggregateOperator op(AggSpec(WindowSpec::Tumbling(100)), EventSchema());
  EXPECT_FALSE(op.RestoreState("junk").ok());
}

TransformSpec JoinSpec(int64_t size = 1000) {
  TransformSpec spec;
  spec.kind = TransformSpec::Kind::kWindowJoin;
  spec.name = "join";
  spec.key_fields = {"key"};
  spec.window = WindowSpec::Tumbling(size);
  return spec;
}

RowSchema LeftSchema() {
  return RowSchema({{"key", ValueType::kString}, {"l", ValueType::kDouble}});
}
RowSchema RightSchema() {
  return RowSchema({{"key", ValueType::kString}, {"r", ValueType::kDouble}});
}

Element SideRecord(int side, const std::string& key, double v, TimestampMs ts) {
  Element e = Element::Record({Value(key), Value(v)}, ts);
  e.side = side;
  return e;
}

TEST(WindowJoinOperatorTest, EmitsCrossProductWithinKeyAndWindow) {
  WindowJoinOperator op(JoinSpec(), LeftSchema(), RightSchema());
  CollectingEmitter out;
  op.ProcessRecord(SideRecord(0, "a", 1.0, 10), &out);
  op.ProcessRecord(SideRecord(0, "a", 2.0, 20), &out);
  op.ProcessRecord(SideRecord(1, "a", 9.0, 30), &out);  // joins with both lefts
  EXPECT_EQ(out.rows.size(), 2u);
  // Different key: no match.
  op.ProcessRecord(SideRecord(1, "b", 7.0, 30), &out);
  EXPECT_EQ(out.rows.size(), 2u);
  // Different window: no match.
  op.ProcessRecord(SideRecord(1, "a", 8.0, 1500), &out);
  EXPECT_EQ(out.rows.size(), 2u);
  // Joined row: [key, l, r] (dup key deduped), time = max of sides.
  EXPECT_EQ(out.rows[0].size(), 3u);
  EXPECT_EQ(out.times[0], 30);
}

TEST(WindowJoinOperatorTest, WatermarkReclaimsBuffers) {
  WindowJoinOperator op(JoinSpec(1000), LeftSchema(), RightSchema());
  CollectingEmitter out;
  op.ProcessRecord(SideRecord(0, "a", 1.0, 10), &out);
  op.ProcessRecord(SideRecord(1, "a", 2.0, 20), &out);
  EXPECT_GT(op.StateBytes(), 0);
  op.OnWatermark(1000, &out);
  EXPECT_EQ(op.StateBytes(), 0);
  // Records for the expired window are late now.
  op.ProcessRecord(SideRecord(0, "a", 3.0, 30), &out);
  EXPECT_EQ(op.late_dropped(), 1);
}

TEST(WindowJoinOperatorTest, SnapshotRestorePreservesBuffers) {
  WindowJoinOperator original(JoinSpec(), LeftSchema(), RightSchema());
  CollectingEmitter sink;
  original.ProcessRecord(SideRecord(0, "a", 1.0, 10), &sink);
  original.ProcessRecord(SideRecord(0, "b", 2.0, 20), &sink);
  std::string blob = original.SnapshotState();

  WindowJoinOperator restored(JoinSpec(), LeftSchema(), RightSchema());
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());
  CollectingEmitter out;
  restored.ProcessRecord(SideRecord(1, "a", 9.0, 30), &out);
  ASSERT_EQ(out.rows.size(), 1u);  // joins against the restored left buffer
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), 1.0);
}

TEST(WindowJoinOperatorTest, LegacyFormatBlobRoundTripsBitwise) {
  // One row per buffered record, buckets ascending by (start, encoded key),
  // left rows before right: [key, start, side, event_time, EncodeRow(row)] —
  // the retired std::map<BufferKey, Buffers> encoding, which the flat-hash
  // implementation must keep producing byte for byte.
  Row left_a{Value("a"), Value(1.0)};
  Row left_b{Value("b"), Value(2.0)};
  Row right_a{Value("a"), Value(9.0)};
  std::string key_a = EncodeRow({Value("a")});
  std::string key_b = EncodeRow({Value("b")});
  std::vector<Row> blob_rows;
  blob_rows.push_back({Value(key_a), Value(static_cast<int64_t>(0)),
                       Value(static_cast<int64_t>(0)), Value(static_cast<int64_t>(10)),
                       Value(EncodeRow(left_a))});
  blob_rows.push_back({Value(key_a), Value(static_cast<int64_t>(0)),
                       Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(30)),
                       Value(EncodeRow(right_a))});
  blob_rows.push_back({Value(key_b), Value(static_cast<int64_t>(0)),
                       Value(static_cast<int64_t>(0)), Value(static_cast<int64_t>(20)),
                       Value(EncodeRow(left_b))});
  std::string legacy_blob = storage::EncodeRowBatch(blob_rows);

  WindowJoinOperator op(JoinSpec(), LeftSchema(), RightSchema());
  ASSERT_TRUE(op.RestoreState(legacy_blob).ok());
  EXPECT_EQ(op.SnapshotState(), legacy_blob);

  // A new right record joins against the restored "a" left buffer only.
  CollectingEmitter out;
  op.ProcessRecord(SideRecord(1, "a", 5.0, 40), &out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(out.rows[0][2].AsDouble(), 5.0);
}

// The snapshot writers append fields straight into the blob; every value
// type (and an empty state) must still come out exactly as EncodeRowBatch.
TEST(WindowJoinOperatorTest, SnapshotBytesMatchRowBatchForEveryValueType) {
  WindowJoinOperator empty(JoinSpec(), LeftSchema(), RightSchema());
  EXPECT_EQ(empty.SnapshotState(), storage::EncodeRowBatch({}));

  Row left{Value("a"), Value(-2.5), Value::Null(), Value(true), Value(int64_t{-7})};
  Row right{Value("a"), Value(std::string()), Value(false)};
  std::string key = EncodeRow({Value("a")});
  std::vector<Row> blob_rows;
  blob_rows.push_back({Value(key), Value(int64_t{-1000}), Value(int64_t{0}),
                       Value(int64_t{-990}), Value(EncodeRow(left))});
  blob_rows.push_back({Value(key), Value(int64_t{-1000}), Value(int64_t{1}),
                       Value(int64_t{-995}), Value(EncodeRow(right))});
  std::string blob = storage::EncodeRowBatch(blob_rows);
  WindowJoinOperator op(JoinSpec(), LeftSchema(), RightSchema());
  ASSERT_TRUE(op.RestoreState(blob).ok());
  EXPECT_EQ(op.SnapshotState(), blob);
}

TEST(WindowAggregateOperatorTest, SnapshotBytesMatchRowBatchForEveryValueType) {
  TransformSpec spec = AggSpec(WindowSpec::Tumbling(100));
  WindowAggregateOperator empty(spec, EventSchema());
  EXPECT_EQ(empty.SnapshotState(), storage::EncodeRowBatch({}));

  std::vector<Row> blob_rows;
  for (const Row& key_values :
       {Row{Value::Null()}, Row{Value(int64_t{3})}, Row{Value(1.5)}, Row{Value(true)},
        Row{Value("z")}}) {
    Row row{Value(EncodeRow(key_values)), Value(int64_t{-100}), Value(int64_t{0}),
            Value(EncodeRow(key_values))};
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      row.push_back(Value(int64_t{2}));
      row.push_back(Value(-0.0));
      row.push_back(Value(-1.25));
      row.push_back(Value(1e300));
    }
    blob_rows.push_back(std::move(row));
  }
  std::sort(blob_rows.begin(), blob_rows.end(), [](const Row& a, const Row& b) {
    return a[0].AsString() < b[0].AsString();
  });
  std::string blob = storage::EncodeRowBatch(blob_rows);
  WindowAggregateOperator op(spec, EventSchema());
  ASSERT_TRUE(op.RestoreState(blob).ok());
  EXPECT_EQ(op.SnapshotState(), blob);
}

// Insert/erase churn over unique keys (a join keyed by a unique id) must not
// grow the slot array with the number of inserts: once tombstones are at
// least as many as live entries the table rehashes at the same capacity.
TEST(FlatKeyedMapTest, TombstoneChurnKeepsCapacityBounded) {
  constexpr int kLive = 64;
  FlatKeyedMap<int> map;
  std::string key;
  auto key_of = [&](int i) {
    key = "id-" + std::to_string(i);
    return Fnv1a64(key);
  };
  for (int i = 0; i < 1'000'000; ++i) {
    bool inserted = false;
    uint64_t hash = key_of(i);
    map.FindOrInsert(hash, key, 0, &inserted) = i;
    ASSERT_TRUE(inserted);
    if (i >= kLive) {
      uint64_t old_hash = key_of(i - kLive);
      ASSERT_TRUE(map.Erase(old_hash, key, 0));
    }
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kLive));
  EXPECT_LE(map.capacity(), static_cast<size_t>(8 * kLive));
  // Every live key still resolves after the in-place rehashes.
  for (int i = 1'000'000 - kLive; i < 1'000'000; ++i) {
    uint64_t hash = key_of(i);
    int* value = map.Find(hash, key, 0);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, i);
  }
}

/// Property: for random streams, windowed counts from the operator equal a
/// brute-force reference computation.
class WindowCountPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowCountPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int64_t kWindow = 500;
  WindowAggregateOperator op(AggSpec(WindowSpec::Tumbling(kWindow)), EventSchema());
  CollectingEmitter out;
  std::map<std::pair<std::string, int64_t>, int64_t> reference;
  for (int i = 0; i < 2'000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(0, 10));
    TimestampMs ts = rng.Uniform(0, 20'000);
    op.ProcessRecord(Record(key, 1.0, ts), &out);
    int64_t start = ts - ((ts % kWindow) + kWindow) % kWindow;
    reference[{key, start}]++;
  }
  op.OnWatermark(kMaxWatermark, &out);
  ASSERT_EQ(out.rows.size(), reference.size());
  for (const Row& row : out.rows) {
    auto key = std::make_pair(row[0].AsString(), row[1].AsInt());
    EXPECT_EQ(row[2].AsInt(), reference[key]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowCountPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1337u));

}  // namespace
}  // namespace uberrt::compute
