#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "compute/checkpoint.h"
#include "compute/window_operator.h"
#include "metadata/schema_registry.h"
#include "olap/lifecycle.h"
#include "olap/segment.h"
#include "storage/archive.h"
#include "storage/object_store.h"
#include "stream/wire.h"

namespace uberrt {
namespace {

using common::FaultInjector;
using metadata::SchemaRegistry;
using storage::ArchiveTable;
using storage::InMemoryObjectStore;

TEST(ObjectStoreTest, ReadAfterWrite) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("a/b", "data1").ok());
  Result<std::string> got = store.Get("a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "data1");
  ASSERT_TRUE(store.Put("a/b", "data2").ok());  // overwrite
  EXPECT_EQ(store.Get("a/b").value(), "data2");
}

TEST(ObjectStoreTest, MissingKeyIsNotFound) {
  InMemoryObjectStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  EXPECT_TRUE(store.Delete("nope").IsNotFound());
  EXPECT_FALSE(store.Exists("nope"));
}

TEST(ObjectStoreTest, ListByPrefixSorted) {
  InMemoryObjectStore store;
  store.Put("seg/t1/b", "x").ok();
  store.Put("seg/t1/a", "x").ok();
  store.Put("seg/t2/a", "x").ok();
  store.Put("other", "x").ok();
  std::vector<std::string> listed = store.List("seg/t1/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "seg/t1/a");
  EXPECT_EQ(listed[1], "seg/t1/b");
}

TEST(ObjectStoreTest, TotalBytesTracksWritesAndDeletes) {
  InMemoryObjectStore store;
  store.Put("k1", std::string(100, 'x')).ok();
  store.Put("k2", std::string(50, 'y')).ok();
  EXPECT_EQ(store.TotalBytes(), 150);
  store.Put("k1", std::string(10, 'z')).ok();  // overwrite shrinks
  EXPECT_EQ(store.TotalBytes(), 60);
  store.Delete("k2").ok();
  EXPECT_EQ(store.TotalBytes(), 10);
}

TEST(ObjectStoreTest, OutageFailsEveryOperation) {
  FaultInjector faults;
  InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  store.Put("k", "v").ok();
  faults.SetDown("store", true);
  EXPECT_TRUE(store.Put("k2", "v").IsUnavailable());
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_FALSE(store.Exists("k"));
  EXPECT_TRUE(store.List("").empty());
  EXPECT_GT(faults.metrics()->GetCounter("faults.store.put.injected")->value(), 0);
  faults.SetDown("store", false);
  EXPECT_EQ(store.Get("k").value(), "v");
}

TEST(ArchiveTest, BatchesReadBackInOrder) {
  InMemoryObjectStore store;
  RowSchema schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}});
  ArchiveTable table(&store, "trips", schema);
  std::vector<Row> day1a{{Value(int64_t{1}), Value(1.0)}, {Value(int64_t{2}), Value(2.0)}};
  std::vector<Row> day1b{{Value(int64_t{3}), Value(3.0)}};
  std::vector<Row> day2{{Value(int64_t{4}), Value(4.0)}};
  ASSERT_TRUE(table.AppendBatch("2020-10-01", day1a).ok());
  ASSERT_TRUE(table.AppendBatch("2020-10-01", day1b).ok());
  ASSERT_TRUE(table.AppendBatch("2020-10-02", day2).ok());

  std::vector<std::string> partitions = table.ListPartitions();
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0], "2020-10-01");

  Result<std::vector<Row>> rows = table.ReadPartition("2020-10-01");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_EQ(rows.value()[0][0].AsInt(), 1);
  EXPECT_EQ(rows.value()[2][0].AsInt(), 3);

  Result<int64_t> count = table.CountRows({"2020-10-01", "2020-10-02"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 4);
}

TEST(ArchiveTest, EmptyBatchRejected) {
  InMemoryObjectStore store;
  ArchiveTable table(&store, "t", RowSchema({{"a", ValueType::kInt}}));
  EXPECT_FALSE(table.AppendBatch("p", {}).ok());
}

TEST(SchemaRegistryTest, VersioningAndIdempotentRegister) {
  SchemaRegistry registry;
  RowSchema v1({{"a", ValueType::kInt}});
  Result<int> first = registry.Register("topic", v1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1);
  // Same schema: same version.
  EXPECT_EQ(registry.Register("topic", v1).value(), 1);
  // Compatible evolution: appended field.
  RowSchema v2({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(registry.Register("topic", v2).value(), 2);
  EXPECT_EQ(registry.GetLatest("topic").value().version, 2);
  EXPECT_EQ(registry.GetVersion("topic", 1).value().schema, v1);
}

TEST(SchemaRegistryTest, IncompatibleChangesRejected) {
  SchemaRegistry registry;
  registry.Register("t", RowSchema({{"a", ValueType::kInt}, {"b", ValueType::kString}}))
      .ok();
  // Removing a field.
  EXPECT_FALSE(registry.Register("t", RowSchema({{"a", ValueType::kInt}})).ok());
  // Changing a type.
  EXPECT_FALSE(
      registry.Register("t", RowSchema({{"a", ValueType::kDouble},
                                        {"b", ValueType::kString}})).ok());
  // Renaming / reordering.
  EXPECT_FALSE(
      registry.Register("t", RowSchema({{"b", ValueType::kString},
                                        {"a", ValueType::kInt}})).ok());
  // Registry unchanged.
  EXPECT_EQ(registry.GetLatest("t").value().version, 1);
}

TEST(SchemaRegistryTest, LineageTransitiveDownstream) {
  SchemaRegistry registry;
  registry.AddLineage("topic_a", "job_1");
  registry.AddLineage("job_1", "topic_b");
  registry.AddLineage("topic_b", "olap_t");
  std::vector<std::string> down = registry.Downstream("topic_a");
  ASSERT_EQ(down.size(), 3u);
  EXPECT_EQ(down[0], "job_1");
  EXPECT_EQ(down[2], "olap_t");
  std::vector<std::string> up = registry.Upstream("topic_b");
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0], "job_1");
}

TEST(SchemaRegistryTest, LineageCycleSafe) {
  SchemaRegistry registry;
  registry.AddLineage("a", "b");
  registry.AddLineage("b", "a");
  EXPECT_EQ(registry.Downstream("a").size(), 1u);  // terminates
}

// --- Golden bytes ------------------------------------------------------------
//
// Every blob format below is persisted (object store, checkpoints) or sent
// (stream batches), so its bytes must not drift. Each case pins the size and
// Fnv1a64 of the bytes one fixed input encodes to. The round-trip tests
// elsewhere compare an encoder against its own decoder and cannot see a
// drift that both sides share.

struct Golden {
  size_t size;
  uint64_t fnv;
};

void ExpectGolden(const std::string& blob, Golden expected) {
  EXPECT_EQ(blob.size(), expected.size);
  EXPECT_EQ(Fnv1a64(blob), expected.fnv)
      << "actual: {" << blob.size() << "u, 0x" << std::hex << Fnv1a64(blob) << "ULL}";
}

/// One row holding every value type, including the edge cases of each body.
Row EveryTypeRow() {
  return {Value::Null(),          Value(int64_t{-2}), Value(int64_t{1} << 53),
          Value(-0.0),            Value(2.5),         Value(std::string("a\0b", 3)),
          Value(std::string()),   Value(true),        Value(false)};
}

TEST(GoldenBytesTest, EncodeRow) {
  std::string blob = EncodeRow(EveryTypeRow());
  const std::string expected(
      "\x09\x00\x00\x00"                          // field count
      "\x00"                                         // null
      "\x01\xfe\xff\xff\xff\xff\xff\xff\xff"  // int -2
      "\x01\x00\x00\x00\x00\x00\x00\x20\x00"  // int 2^53
      "\x02\x00\x00\x00\x00\x00\x00\x00\x80"  // double -0.0
      "\x02\x00\x00\x00\x00\x00\x00\x04\x40"  // double 2.5
      "\x03\x03\x00\x00\x00" "a\x00" "b"         // string with a NUL
      "\x03\x00\x00\x00\x00"                      // empty string
      "\x04\x01\x04\x00",                          // true, false
      58);
  EXPECT_EQ(blob, expected);
}

TEST(GoldenBytesTest, EncodeRowBatch) {
  std::vector<Row> rows{EveryTypeRow(), {}, {Value(int64_t{7}), Value("x")}};
  ExpectGolden(storage::EncodeRowBatch(rows), {97u, 0x2b90ffd80d5b3faeULL});
}

TEST(GoldenBytesTest, CheckpointBlob) {
  compute::CheckpointData data;
  data.sequence = 42;
  data.entries["source.0.1"] = "1234";
  data.entries["op.1.0"] = std::string("st\0ate", 6);
  data.entries["op.2.0"] = "";
  ExpectGolden(data.Encode(), {67u, 0x727605c2a9ca2a6fULL});
}

class DiscardEmitter : public compute::Emitter {
 public:
  void Emit(Row, TimestampMs) override {}
};

TEST(GoldenBytesTest, WindowAggregateSnapshot) {
  compute::TransformSpec spec;
  spec.kind = compute::TransformSpec::Kind::kWindowAggregate;
  spec.key_fields = {"k", "n"};
  spec.window = compute::WindowSpec::Tumbling(100);
  spec.aggregates = {compute::AggregateSpec::Count("c"), compute::AggregateSpec::Sum("v", "s"),
                     compute::AggregateSpec::Min("v", "lo"),
                     compute::AggregateSpec::Max("v", "hi"),
                     compute::AggregateSpec::Avg("v", "avg")};
  RowSchema schema({{"k", ValueType::kString}, {"n", ValueType::kInt},
                    {"v", ValueType::kDouble}});
  compute::WindowAggregateOperator op(spec, schema);
  DiscardEmitter out;
  const double values[] = {1.5, -3.0, 0.25, 8.0, -0.0, 2.0};
  for (int i = 0; i < 6; ++i) {
    Row row{Value(i % 2 == 0 ? "a" : "b"), Value(int64_t{i % 3}), Value(values[i])};
    op.ProcessRecord(compute::Element::Record(std::move(row), i * 70), &out);
  }
  ExpectGolden(op.SnapshotState(), {1528u, 0xaf919fe4691f54dbULL});
}

TEST(GoldenBytesTest, WindowJoinSnapshot) {
  compute::TransformSpec spec;
  spec.kind = compute::TransformSpec::Kind::kWindowJoin;
  spec.key_fields = {"k"};
  spec.window = compute::WindowSpec::Tumbling(1000);
  RowSchema left({{"k", ValueType::kString}, {"l", ValueType::kDouble}});
  RowSchema right({{"k", ValueType::kString}, {"r", ValueType::kInt}});
  compute::WindowJoinOperator op(spec, left, right);
  DiscardEmitter out;
  op.ProcessRecord(compute::Element::Record({Value("a"), Value(1.0)}, 10, 0), &out);
  op.ProcessRecord(compute::Element::Record({Value("b"), Value(2.0)}, 1500, 0), &out);
  op.ProcessRecord(compute::Element::Record({Value("a"), Value(int64_t{3})}, 20, 1), &out);
  op.ProcessRecord(compute::Element::Record({Value("a"), Value::Null()}, 30, 1), &out);
  ExpectGolden(op.SnapshotState(), {292u, 0x2a9f9540daaba3ecULL});
}

/// 200 rows: a sorted INT column, a high-cardinality STRING column (bloom
/// filter), a low-cardinality inverted STRING column and a DOUBLE metric,
/// with a star-tree over (city, status).
std::shared_ptr<olap::Segment> GoldenSegment(bool bit_packed) {
  RowSchema schema({{"ts", ValueType::kInt}, {"id", ValueType::kString},
                    {"city", ValueType::kString}, {"status", ValueType::kString},
                    {"fare", ValueType::kDouble}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({Value((i * 37) % 200 - 50), Value("id" + std::to_string(i * 13 % 97)),
                    Value(i % 3 == 0 ? "sf" : "nyc"),
                    i % 11 == 0 ? Value::Null() : Value(i % 2 == 0 ? "done" : "open"),
                    Value(static_cast<double>(i % 17) * 1.25 - 4.0)});
  }
  olap::SegmentIndexConfig config;
  config.sorted_column = "ts";
  config.inverted_columns = {"city"};
  config.star_tree_dimensions = {"city", "status"};
  config.star_tree_metrics = {"fare"};
  config.bit_packed_forward_index = bit_packed;
  Result<std::shared_ptr<olap::Segment>> segment =
      olap::Segment::Build("golden_seg", schema, std::move(rows), config);
  EXPECT_TRUE(segment.ok());
  return segment.value();
}

TEST(GoldenBytesTest, SegmentSerialize) {
  ExpectGolden(GoldenSegment(true)->Serialize(), {4128u, 0x88c83709f9977effULL});
  ExpectGolden(GoldenSegment(false)->Serialize(), {7476u, 0x31c3698f1f2ba634ULL});
}

TEST(GoldenBytesTest, SegmentFrame) {
  olap::SegmentFrame frame;
  frame.seq = 9;
  frame.min_time = -50;
  frame.max_time = 149;
  frame.segment = GoldenSegment(true);
  ExpectGolden(olap::EncodeSegmentFrame(frame), {4168u, 0xc4f7257df8f9b81cULL});
  auto validity = std::make_shared<std::vector<bool>>(130, true);
  for (size_t i = 0; i < validity->size(); i += 7) (*validity)[i] = false;
  frame.validity = validity;
  ExpectGolden(olap::EncodeSegmentFrame(frame), {4200u, 0x9e118c13451b22c3ULL});
}

TEST(GoldenBytesTest, StreamBatch) {
  stream::wire::BatchBuilder builder;
  stream::Message a;
  a.key = "rider-1";
  a.value = EncodeRow({Value(int64_t{5}), Value("sf")});
  a.timestamp = 1700000000123;
  a.headers["trace"] = "t-1";
  a.headers["tier"] = "";
  builder.Add(a);
  stream::Message b;
  b.value = std::string("\0\xff", 2);
  b.timestamp = 17;
  builder.Add(b);
  ExpectGolden(builder.Finish().data, {129u, 0xb1d6a38537c02fe7ULL});
}

}  // namespace
}  // namespace uberrt
