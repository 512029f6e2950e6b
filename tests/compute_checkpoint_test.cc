#include <gtest/gtest.h>

#include <string>

#include "common/fault_injector.h"
#include "compute/checkpoint.h"
#include "storage/object_store.h"

namespace uberrt::compute {
namespace {

CheckpointData SampleData() {
  CheckpointData data;
  data.sequence = 7;
  data.entries["source.0.0"] = "42";
  data.entries["op.0.0"] = std::string("\x00\x01\x02", 3);
  return data;
}

TEST(CheckpointDataTest, EncodeDecodeRoundtrip) {
  CheckpointData data = SampleData();
  Result<CheckpointData> decoded = CheckpointData::Decode(data.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sequence, 7);
  EXPECT_EQ(decoded.value().entries, data.entries);
}

TEST(CheckpointDataTest, TruncatedBlobsAreCorruptionNotCrash) {
  std::string blob = SampleData().Encode();
  // Every possible truncation point must decode to an error, never throw or
  // read out of bounds.
  for (size_t len = 0; len < blob.size(); ++len) {
    Result<CheckpointData> decoded = CheckpointData::Decode(blob.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncated at " << len;
    EXPECT_TRUE(decoded.status().IsCorruption()) << "truncated at " << len;
  }
}

TEST(CheckpointDataTest, GarbageHeaderFieldsAreCorruption) {
  // Hand-build a blob whose length-prefixed header fields hold non-numeric
  // text where the decoder expects decimal sequence/count.
  auto field = [](const std::string& s) {
    uint32_t len = static_cast<uint32_t>(s.size());
    std::string out(reinterpret_cast<const char*>(&len), 4);
    return out + s;
  };
  Result<CheckpointData> bad_seq = CheckpointData::Decode(field("abc") + field("0"));
  EXPECT_TRUE(bad_seq.status().IsCorruption());
  Result<CheckpointData> bad_count = CheckpointData::Decode(field("1") + field("xyz"));
  EXPECT_TRUE(bad_count.status().IsCorruption());
  Result<CheckpointData> neg_count = CheckpointData::Decode(field("1") + field("-4"));
  EXPECT_TRUE(neg_count.status().IsCorruption());
  // Overflowing digits must not wrap.
  Result<CheckpointData> huge =
      CheckpointData::Decode(field("999999999999999999999999") + field("0"));
  EXPECT_TRUE(huge.status().IsCorruption());
}

TEST(CheckpointDataTest, HugeEntryCountRejectedWithoutAllocating) {
  auto field = [](const std::string& s) {
    uint32_t len = static_cast<uint32_t>(s.size());
    std::string out(reinterpret_cast<const char*>(&len), 4);
    return out + s;
  };
  // Claims 4 billion entries in a blob with room for none.
  Result<CheckpointData> decoded =
      CheckpointData::Decode(field("1") + field("4000000000"));
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(CheckpointDataTest, RandomBytesNeverCrash) {
  // Deterministic pseudo-random garbage of varying length.
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int round = 0; round < 64; ++round) {
    std::string blob;
    for (int i = 0; i < round * 3; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      blob.push_back(static_cast<char>(x & 0xff));
    }
    CheckpointData::Decode(blob).ok();  // must simply not crash
  }
}

TEST(CheckpointStoreTest, SaveLoadLatestRoundtrip) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsNotFound());
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  Result<CheckpointData> loaded = checkpoints.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().sequence, 7);
}

TEST(CheckpointStoreTest, LatestPointingAtDeletedCheckpointIsNotFound) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  // Simulate a half-completed cleanup: the checkpoint object is gone but
  // LATEST still names it.
  ASSERT_TRUE(store.Delete("checkpoints/job1/chk-7").ok());
  Result<CheckpointData> loaded = checkpoints.LoadLatest();
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(CheckpointStoreTest, CorruptLatestPointerIsCorruption) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(store.Put("checkpoints/job1/LATEST", "not-a-number").ok());
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsCorruption());
  EXPECT_TRUE(checkpoints.LatestSequence().status().IsCorruption());
}

TEST(CheckpointStoreTest, CorruptCheckpointBlobSurfacesCorruption) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  ASSERT_TRUE(store.Put("checkpoints/job1/chk-7", "shredded").ok());
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsCorruption());
}

CheckpointData DataAt(int64_t sequence) {
  CheckpointData data = SampleData();
  data.sequence = sequence;
  data.entries["source.0.0"] = std::to_string(sequence * 10);
  return data;
}

TEST(CheckpointStoreTest, SaveRetainsOnlyTheLatestCheckpoint) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  CheckpointStore other(&store, "checkpoints", "job10");  // shares the "job1" prefix
  ASSERT_TRUE(other.Save(DataAt(3)).ok());
  for (int64_t sequence = 1; sequence <= 12; ++sequence) {
    ASSERT_TRUE(checkpoints.Save(DataAt(sequence)).ok());
    EXPECT_EQ(store.List("checkpoints/job1/chk-"),
              std::vector<std::string>{"checkpoints/job1/chk-" + std::to_string(sequence)});
  }
  Result<CheckpointData> loaded = checkpoints.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().sequence, 12);
  EXPECT_EQ(loaded.value().entries.at("source.0.0"), "120");
  EXPECT_TRUE(checkpoints.Load(11).status().IsNotFound());
  // Another job's checkpoint is never collected.
  EXPECT_EQ(store.List("checkpoints/job10/chk-"),
            std::vector<std::string>{"checkpoints/job10/chk-3"});
  // A save at a lower sequence (a job restarted without its state) still
  // leaves exactly the checkpoint LATEST names.
  ASSERT_TRUE(checkpoints.Save(DataAt(2)).ok());
  EXPECT_EQ(store.List("checkpoints/job1/chk-"),
            std::vector<std::string>{"checkpoints/job1/chk-2"});
}

TEST(CheckpointStoreTest, FailedDeletesNeverFailASaveAndAreCollectedLater) {
  common::FaultInjector faults(/*seed=*/1);
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  common::FaultRule failing;
  failing.error_probability = 1.0;
  faults.SetRule("store.delete", failing);
  for (int64_t sequence = 1; sequence <= 5; ++sequence) {
    ASSERT_TRUE(checkpoints.Save(DataAt(sequence)).ok());
    Result<CheckpointData> loaded = checkpoints.LoadLatest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().sequence, sequence);
  }
  EXPECT_EQ(store.List("checkpoints/job1/chk-").size(), 5u);
  // The next healthy save collects every leftover blob.
  faults.ClearRule("store.delete");
  ASSERT_TRUE(checkpoints.Save(DataAt(6)).ok());
  EXPECT_EQ(store.List("checkpoints/job1/chk-"),
            std::vector<std::string>{"checkpoints/job1/chk-6"});
  EXPECT_EQ(checkpoints.LoadLatest().value().sequence, 6);
}

}  // namespace
}  // namespace uberrt::compute
