#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "metadata/schema_registry.h"
#include "storage/archive.h"
#include "storage/object_store.h"

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

}  // namespace
}  // namespace uberrt
