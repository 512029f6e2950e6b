#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/producer.h"
#include "stream/wire.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value, TimestampMs ts = 1) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = ts;
  return m;
}

wire::EncodedBatch Batch(const std::vector<Message>& messages) {
  wire::BatchBuilder builder;
  for (const Message& m : messages) builder.Add(m);
  return builder.Finish();
}

// --- frame format -----------------------------------------------------------

TEST(WireTest, FrameSizeMatchesEncodedBytes) {
  Message m = Msg("key", "some value", 42);
  m.headers["uid"] = "abc-123";
  m.headers["service"] = "rides";
  std::string buf;
  wire::AppendFrame(buf, m);
  EXPECT_EQ(buf.size(), m.FrameSize());

  Message empty;
  std::string buf2;
  wire::AppendFrame(buf2, empty);
  EXPECT_EQ(buf2.size(), empty.FrameSize());
  EXPECT_EQ(buf2.size(), 4 + wire::kMinFrameLen);
}

TEST(WireTest, MessageRoundTripsThroughFrame) {
  Message m = Msg("k1", "v1", 77);
  m.headers["uid"] = "u-9";
  m.headers["tier"] = "1";
  wire::EncodedBatch batch = Batch({m});
  Result<wire::BatchReader> reader = wire::BatchReader::Open(batch.data);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().record_count(), 1u);
  EXPECT_EQ(reader.value().max_timestamp(), 77);
  Result<wire::MessageView> view = reader.value().Next();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().key, "k1");
  EXPECT_EQ(view.value().value, "v1");
  EXPECT_EQ(view.value().timestamp, 77);
  EXPECT_EQ(view.value().header_count, 2u);
  std::string_view header;
  ASSERT_TRUE(view.value().GetHeader("uid", &header));
  EXPECT_EQ(header, "u-9");
  EXPECT_FALSE(view.value().GetHeader("absent", &header));
  Message back = view.value().ToMessage();
  EXPECT_EQ(back.key, m.key);
  EXPECT_EQ(back.value, m.value);
  EXPECT_EQ(back.headers, m.headers);
}

TEST(WireTest, CorruptedPayloadFailsCrc) {
  wire::EncodedBatch batch = Batch({Msg("k", "payload-bytes", 5)});
  ASSERT_TRUE(wire::ValidateBatch(batch.data).ok());
  // Flip one payload byte: the CRC must catch it.
  std::string corrupted = batch.data;
  corrupted[wire::kBatchHeaderSize + 10] ^= 0x01;
  EXPECT_TRUE(wire::ValidateBatch(corrupted).IsCorruption());
  // And a corrupted batch is rejected before any log state changes.
  PartitionLog log;
  wire::EncodedBatch bad = batch;
  bad.data = corrupted;
  EXPECT_TRUE(log.AppendBatch(bad).status().IsCorruption());
  EXPECT_EQ(log.EndOffset(), 0);
}

TEST(WireTest, BadMagicAndTruncationRejected) {
  wire::EncodedBatch batch = Batch({Msg("k", "v", 5)});
  std::string bad_magic = batch.data;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(wire::ValidateBatch(bad_magic).ok());
  EXPECT_FALSE(wire::ValidateBatch(batch.data.substr(0, 10)).ok());
  EXPECT_FALSE(wire::ValidateBatch(batch.data.substr(0, batch.data.size() - 1)).ok());
}

// --- partition log ----------------------------------------------------------

/// The whole single-record batch holding `view`: in a log arena each batch
/// header sits directly in front of the batch's first frame.
std::string_view SingleRecordBatchBytes(const wire::MessageView& view) {
  return std::string_view(view.raw_frame.data() - wire::kBatchHeaderSize,
                          wire::kBatchHeaderSize + view.raw_frame.size());
}

TEST(StreamLogTest, AppendWritesTheBytesBatchBuilderSeals) {
  Message with_headers = Msg("rider-7", "trip payload", 1234);
  with_headers.headers[kHeaderUid] = "restaurant_manager-41";
  with_headers.headers[kHeaderService] = "restaurant_manager";
  with_headers.headers[kHeaderTier] = "1";
  Message empty_key = Msg("", "value only", 99);
  Message empty;  // no key, value, headers or timestamp
  PartitionLog log;
  int64_t bytes = 0;
  for (const Message& m : {with_headers, empty_key, empty}) {
    const std::string sealed = Batch({m}).data;
    std::string one_pass;
    wire::AppendSingleRecordBatch(one_pass, m);
    EXPECT_EQ(one_pass, sealed);

    int64_t offset = log.Append(m);
    Result<FetchedBatch> fetched = log.ReadViews(offset, 1);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched.value().size(), 1u);
    EXPECT_EQ(SingleRecordBatchBytes(fetched.value().messages[0]), sealed);
    bytes += static_cast<int64_t>(sealed.size());
    EXPECT_EQ(log.Bytes(), bytes);
  }
  EXPECT_EQ(log.EndOffset(), 3);
}

TEST(StreamLogTest, BrokerStampedProduceMatchesBatchBuilder) {
  SimulatedClock clock(5000);
  Broker broker("b", BrokerOptions(), &clock);
  ASSERT_TRUE(broker.CreateTopic("t", TopicConfig()).ok());
  Message m = Msg("k", "v", /*ts=*/0);
  m.headers[kHeaderUid] = "u-1";
  Result<ProduceResult> produced = broker.Produce("t", m);
  ASSERT_TRUE(produced.ok());
  EXPECT_EQ(m.timestamp, 0);  // the caller's message is never stamped

  Message stamped = m;
  stamped.timestamp = 5000;
  Result<FetchedBatch> fetched = broker.FetchViews("t", 0, produced.value().offset, 1);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 1u);
  EXPECT_EQ(fetched.value().messages[0].timestamp, 5000);
  EXPECT_EQ(SingleRecordBatchBytes(fetched.value().messages[0]), Batch({stamped}).data);
}

TEST(StreamLogTest, AppendBatchAssignsDenseOffsetsAcrossBatches) {
  PartitionLog log;
  Result<int64_t> first = log.AppendBatch(Batch({Msg("", "a"), Msg("", "b")}));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0);
  // Single-message compatibility append interleaves with batches.
  EXPECT_EQ(log.Append(Msg("", "c")), 2);
  Result<int64_t> second = log.AppendBatch(Batch({Msg("", "d")}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 3);
  EXPECT_EQ(log.EndOffset(), 4);
  Result<FetchedBatch> views = log.ReadViews(0, 10);
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views.value().size(), 4u);
  const char* expected[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(views.value().messages[i].offset, i);
    EXPECT_EQ(views.value().messages[i].value, expected[i]);
  }
}

TEST(StreamLogTest, OffsetContinuityAcrossTruncation) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) log.Append(Msg("", "m" + std::to_string(i), 100 + i));
  RetentionPolicy policy;
  policy.max_age_ms = 5;
  ASSERT_EQ(log.ApplyRetention(policy, /*now=*/110), 5);  // ts 100..104 dropped
  EXPECT_EQ(log.BeginOffset(), 5);
  EXPECT_EQ(log.EndOffset(), 10);
  // Offsets are never renumbered: message 7 is still at offset 7.
  Result<FetchedBatch> views = log.ReadViews(7, 1);
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views.value().size(), 1u);
  EXPECT_EQ(views.value().messages[0].value, "m7");
  // Truncated-away and beyond-end offsets are OutOfRange; appends continue
  // from the preserved numbering.
  EXPECT_TRUE(log.ReadViews(4, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(log.ReadViews(11, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_EQ(log.Append(Msg("", "next")), 10);
}

TEST(StreamLogTest, AppendBatchAtRejectsGaps) {
  PartitionLog log;
  ASSERT_TRUE(log.AppendBatchAt(Batch({Msg("", "a"), Msg("", "b")}), 0).ok());
  // Skips 2..4 on a non-empty log.
  EXPECT_EQ(log.AppendBatchAt(Batch({Msg("", "c")}), 5).code(),
            StatusCode::kInvalidArgument);
  // Already taken.
  EXPECT_EQ(log.AppendBatchAt(Batch({Msg("", "c")}), 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.EndOffset(), 2);
  ASSERT_TRUE(log.AppendBatchAt(Batch({Msg("", "c")}), 2).ok());
  // Later appends never move the begin offset: every record stays readable.
  EXPECT_EQ(log.BeginOffset(), 0);
  EXPECT_EQ(log.Size(), 3);
  Result<FetchedBatch> all = log.ReadViews(0, 3);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value().messages[0].value, "a");
  EXPECT_EQ(all.value().messages[2].value, "c");
  // An empty log takes no gap either: a later start goes through StartAt.
  PartitionLog empty;
  EXPECT_EQ(empty.AppendBatchAt(Batch({Msg("", "x")}), 3).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamLogTest, StartAtMovesEmptyLogStartOffset) {
  // An empty log starts at the source's log start offset (a source
  // truncated by retention), never an earlier one.
  PartitionLog log;
  ASSERT_TRUE(log.StartAt(18).ok());
  EXPECT_EQ(log.BeginOffset(), 18);
  EXPECT_EQ(log.EndOffset(), 18);
  ASSERT_TRUE(log.AppendBatchAt(Batch({Msg("", "r18"), Msg("", "r19")}), 18).ok());
  ASSERT_TRUE(log.AppendBatchAt(Batch({Msg("", "r20")}), 20).ok());
  EXPECT_EQ(log.BeginOffset(), 18);
  EXPECT_EQ(log.EndOffset(), 21);
  EXPECT_EQ(log.ReadViews(19, 1).value().messages[0].value, "r19");
  EXPECT_TRUE(log.ReadViews(0, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_EQ(log.Append(Msg("", "next")), 21);
  // Only an empty log moves.
  EXPECT_EQ(log.StartAt(30).code(), StatusCode::kFailedPrecondition);
  PartitionLog advanced;
  advanced.Append(Msg("", "a"));
  RetentionPolicy expire_all;
  expire_all.max_age_ms = 1;
  advanced.ApplyRetention(expire_all, /*now=*/1'000'000);
  ASSERT_EQ(advanced.BeginOffset(), 1);
  EXPECT_EQ(advanced.StartAt(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(advanced.AppendBatchAt(Batch({Msg("", "b")}), 0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(advanced.StartAt(1).ok());  // no-op at the current offset
  EXPECT_EQ(advanced.EndOffset(), 1);
}

TEST(StreamLogTest, ViewsSurviveRetentionViaPins) {
  PartitionLogOptions options;
  options.segment_bytes = 64;  // force an arena per batch
  PartitionLog log(options);
  log.AppendBatch(Batch({Msg("k0", "first-batch-value", 10)})).value();
  log.AppendBatch(Batch({Msg("k1", "second-batch-value", 20)})).value();
  Result<FetchedBatch> fetched = log.ReadViews(0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 2u);
  // Retention truncates everything the views point at...
  RetentionPolicy policy;
  policy.max_age_ms = 1;
  ASSERT_EQ(log.ApplyRetention(policy, /*now=*/1000), 2);
  EXPECT_EQ(log.BeginOffset(), 2);
  // ...but the FetchedBatch pins the arena segments, so the borrowed views
  // stay valid until the batch is destroyed.
  EXPECT_EQ(fetched.value().messages[0].value, "first-batch-value");
  EXPECT_EQ(fetched.value().messages[1].value, "second-batch-value");
  EXPECT_EQ(fetched.value().messages[1].ToMessage().key, "k1");
}

TEST(StreamLogTest, BytesTracksEncodedBatchSizes) {
  PartitionLog log;
  EXPECT_EQ(log.Bytes(), 0);
  Message m = Msg("key", "value", 3);
  m.headers["uid"] = "u";
  wire::EncodedBatch batch = Batch({m, m});
  log.AppendBatch(batch).value();
  EXPECT_EQ(log.Bytes(), static_cast<int64_t>(batch.bytes()));
  EXPECT_EQ(batch.bytes(), wire::kBatchHeaderSize + 2 * m.FrameSize());
  // Retention accounting returns to zero when everything is truncated.
  RetentionPolicy policy;
  policy.max_age_ms = 1;
  log.ApplyRetention(policy, 1000);
  EXPECT_EQ(log.Bytes(), 0);
}

// --- retention bugfix regressions -------------------------------------------

TEST(StreamLogTest, SizeRetentionNeverDropsNewestBatch) {
  PartitionLog log;
  // A single batch far larger than the budget must survive: an acked produce
  // is never truncated by its own arrival.
  log.AppendBatch(Batch({Msg("", std::string(4096, 'x'), 1)})).value();
  RetentionPolicy policy;
  policy.max_bytes = 100;
  EXPECT_EQ(log.ApplyRetention(policy, 0), 0);
  EXPECT_EQ(log.Size(), 1);
  // Once a newer batch arrives, the old oversized one may go, but the newest
  // again stays even though it also exceeds the budget on its own.
  log.AppendBatch(Batch({Msg("", std::string(4096, 'y'), 2)})).value();
  EXPECT_EQ(log.ApplyRetention(policy, 0), 1);
  EXPECT_EQ(log.BeginOffset(), 1);
  EXPECT_EQ(log.Size(), 1);
  EXPECT_EQ(log.ReadViews(1, 1).value().messages[0].value[0], 'y');
}

TEST(StreamLogTest, AgeRetentionUsesMonotoneWatermark) {
  PartitionLogOptions options;
  options.segment_bytes = 64;  // one arena per batch
  PartitionLog log(options);
  // Fresh data first, then a late record whose event timestamp is ancient.
  log.AppendBatch(Batch({Msg("", std::string(64, 'a'), 10000)})).value();
  log.AppendBatch(Batch({Msg("", "late", 10)})).value();
  // Drop the first batch via size retention so the late record is at the
  // front with its own timestamp ancient but its watermark fresh.
  RetentionPolicy size_policy;
  size_policy.max_bytes = 50;
  ASSERT_EQ(log.ApplyRetention(size_policy, 0), 1);
  ASSERT_EQ(log.BeginOffset(), 1);
  // Old semantics compared the record's own timestamp (10) and would expire
  // it here; the monotone watermark (10000) keeps it alive as long as the
  // data appended around it.
  RetentionPolicy age_policy;
  age_policy.max_age_ms = 500;
  EXPECT_EQ(log.ApplyRetention(age_policy, /*now=*/9000), 0);
  EXPECT_EQ(log.Size(), 1);
  // And it expires with its append cohort, not its event timestamp.
  EXPECT_EQ(log.ApplyRetention(age_policy, /*now=*/10501), 1);
  EXPECT_EQ(log.Size(), 0);
}

TEST(StreamLogTest, AgeRetentionStrictlyByAppendOrder) {
  PartitionLogOptions options;
  options.segment_bytes = 16;  // one arena per batch
  PartitionLog log(options);
  // Timestamps out of order across appends: 100, 5000, 300.
  log.AppendBatch(Batch({Msg("", "a", 100)})).value();
  log.AppendBatch(Batch({Msg("", "b", 5000)})).value();
  log.AppendBatch(Batch({Msg("", "c", 300)})).value();
  RetentionPolicy policy;
  policy.max_age_ms = 1000;
  // Threshold 4000: only the first batch's watermark (100) is expired. The
  // third batch (own ts 300, watermark 5000) is fenced by append order.
  EXPECT_EQ(log.ApplyRetention(policy, /*now=*/5000), 1);
  EXPECT_EQ(log.BeginOffset(), 1);
  EXPECT_EQ(log.Size(), 2);
  // Threshold 5500: everything behind the watermark expires together.
  EXPECT_EQ(log.ApplyRetention(policy, /*now=*/6500), 2);
  EXPECT_EQ(log.Size(), 0);
}

// --- batching producer / zero-copy consumer end to end ----------------------

TEST(StreamLogTest, BatchingProducerRoundTripsThroughBroker) {
  SimulatedClock clock(1000);
  Broker broker("c1", BrokerOptions{}, &clock);
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("t", config).ok());

  BatchingProducerOptions options;
  options.batch_records = 8;
  options.linger_ms = -1;  // flush on size or explicitly
  BatchingProducer producer(&broker, "t", options, &clock);
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("key" + std::to_string(i), "value" + std::to_string(i));
    m.headers["uid"] = "u" + std::to_string(i);
    ASSERT_TRUE(producer.Produce(m).ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(producer.produced(), 100);
  EXPECT_EQ(producer.buffered(), 0);
  // Batching amortization actually happened: far fewer batches than records.
  EXPECT_LT(producer.batches_flushed(), 30);

  Consumer consumer(&broker, "g", "t", "m1");
  ASSERT_TRUE(consumer.Subscribe().ok());
  size_t got = 0;
  std::map<std::string, std::string> seen;  // key -> value
  for (int i = 0; i < 50 && got < 100; ++i) {
    Result<FetchedBatch> batch = consumer.PollViews(32);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const wire::MessageView& v : batch.value().messages) {
      EXPECT_GE(v.partition, 0);
      EXPECT_LT(v.partition, 2);
      std::string_view uid;
      EXPECT_TRUE(v.GetHeader("uid", &uid));
      seen[std::string(v.key)] = std::string(v.value);
    }
    got += batch.value().size();
  }
  EXPECT_EQ(got, 100u);
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen["key42"], "value42");
}

TEST(StreamLogTest, LingerBudgetFlushesSparseTraffic) {
  SimulatedClock clock(0);
  Broker broker("c1", BrokerOptions{}, &clock);
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(broker.CreateTopic("t", config).ok());

  BatchingProducerOptions options;
  options.batch_records = 1000;  // never flush on size in this test
  options.linger_ms = 5;
  BatchingProducer producer(&broker, "t", options, &clock);
  ASSERT_TRUE(producer.Produce(Msg("", "sparse")).ok());
  EXPECT_EQ(producer.produced(), 0);  // still buffered
  EXPECT_EQ(producer.buffered(), 1);
  clock.AdvanceMs(10);
  ASSERT_TRUE(producer.MaybeFlushLinger().ok());
  EXPECT_EQ(producer.produced(), 1);
  EXPECT_EQ(broker.EndOffset("t", 0).value(), 1);
}

TEST(StreamLogTest, IndexCostsAtMost24BytesPerBatch) {
  // One batch per message, as the audited per-message produce appends.
  PartitionLog log;
  EXPECT_EQ(log.Footprint().batches, 0);
  constexpr int kBatches = 20000;
  for (int i = 0; i < kBatches; ++i) log.Append(Msg("k", "order-" + std::to_string(i), i));
  const LogFootprint footprint = log.Footprint();
  ASSERT_EQ(footprint.batches, kBatches);
  EXPECT_LE(footprint.index_bytes, 24 * kBatches);
  // Resident bytes are the arenas (whole segments, reserved up front) plus
  // the index; the arenas hold every encoded byte.
  EXPECT_GE(footprint.resident_bytes, log.Bytes() + footprint.index_bytes);
  EXPECT_LE(footprint.resident_bytes,
            log.Bytes() + footprint.index_bytes +
                2 * static_cast<int64_t>(PartitionLogOptions().segment_bytes));
}

TEST(StreamLogTest, ReadsAndRetentionMatchAModelAcrossSegments) {
  // Small segments so batches share some segments and others get a
  // dedicated one; appends interleave with age and size retention, which
  // sometimes empties the log and lets the active segment take new batches.
  PartitionLogOptions options;
  options.segment_bytes = 300;
  PartitionLog log(options);
  struct Ref {
    std::string value;
    int64_t batch_bytes = 0;  // on the batch's first record only
    int64_t hwm = 0;
  };
  std::vector<Ref> ref;  // indexed by offset
  std::vector<int64_t> batch_starts;
  int64_t begin = 0, hwm = INT64_MIN;
  Rng rng(20261020);
  for (int step = 0; step < 3000; ++step) {
    const int64_t kind = rng.Uniform(0, 9);
    if (kind <= 5) {
      const int64_t ts = step * 10 - rng.Uniform(0, 50);
      Message m = Msg("k", std::string(rng.Uniform(0, 80), 'v') + std::to_string(step), ts);
      hwm = std::max(hwm, ts);
      ASSERT_EQ(log.Append(m), static_cast<int64_t>(ref.size()));
      batch_starts.push_back(static_cast<int64_t>(ref.size()));
      ref.push_back({m.value, static_cast<int64_t>(wire::kBatchHeaderSize + m.FrameSize()), hwm});
    } else if (kind <= 7) {
      std::vector<Message> messages;
      for (int64_t i = rng.Uniform(1, 6); i > 0; --i) {
        messages.push_back(Msg("", "b" + std::to_string(step) + "-" + std::to_string(i),
                               step * 10));
      }
      wire::EncodedBatch batch = Batch(messages);
      hwm = std::max(hwm, batch.max_timestamp);
      Result<int64_t> base = log.AppendBatch(batch);
      ASSERT_TRUE(base.ok());
      ASSERT_EQ(base.value(), static_cast<int64_t>(ref.size()));
      batch_starts.push_back(base.value());
      for (size_t i = 0; i < messages.size(); ++i) {
        ref.push_back({messages[i].value, i == 0 ? static_cast<int64_t>(batch.bytes()) : 0, hwm});
      }
    } else if (kind == 8) {
      RetentionPolicy policy;
      policy.max_age_ms = rng.Uniform(0, 3000);
      const int64_t now = step * 10;
      int64_t expected = 0;
      while (!batch_starts.empty() && ref[batch_starts.front()].hwm < now - policy.max_age_ms) {
        const int64_t next = batch_starts.size() > 1 ? batch_starts[1] : static_cast<int64_t>(ref.size());
        expected += next - batch_starts.front();
        batch_starts.erase(batch_starts.begin());
      }
      ASSERT_EQ(log.ApplyRetention(policy, now), expected);
      begin += expected;
    } else {
      RetentionPolicy policy;
      policy.max_bytes = rng.Uniform(1, 4000);
      int64_t bytes = 0;
      for (int64_t start : batch_starts) bytes += ref[start].batch_bytes;
      int64_t expected = 0;
      while (batch_starts.size() > 1 && bytes > policy.max_bytes) {
        bytes -= ref[batch_starts.front()].batch_bytes;
        expected += batch_starts[1] - batch_starts.front();
        batch_starts.erase(batch_starts.begin());
      }
      ASSERT_EQ(log.ApplyRetention(policy, 0), expected);
      begin += expected;
    }
    ASSERT_EQ(log.BeginOffset(), begin);
    ASSERT_EQ(log.EndOffset(), static_cast<int64_t>(ref.size()));
    ASSERT_EQ(log.Footprint().batches, static_cast<int64_t>(batch_starts.size()));
    int64_t bytes = 0;
    for (int64_t start : batch_starts) bytes += ref[start].batch_bytes;
    ASSERT_EQ(log.Bytes(), bytes);
    // A read from a random retained offset returns the model's values.
    if (begin < static_cast<int64_t>(ref.size())) {
      const int64_t from = rng.Uniform(begin, static_cast<int64_t>(ref.size()) - 1);
      Result<FetchedBatch> views = log.ReadViews(from, static_cast<size_t>(rng.Uniform(1, 40)));
      ASSERT_TRUE(views.ok());
      for (const wire::MessageView& view : views.value().messages) {
        ASSERT_EQ(view.value, ref[view.offset].value) << "offset " << view.offset;
      }
      ASSERT_EQ(views.value().messages.front().offset, from);
    }
  }
  // A full read from the begin offset sees every retained record in order.
  Result<FetchedBatch> all = log.ReadViews(begin, ref.size());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(static_cast<int64_t>(all.value().size()), static_cast<int64_t>(ref.size()) - begin);
  for (size_t i = 0; i < all.value().size(); ++i) {
    EXPECT_EQ(all.value().messages[i].value, ref[begin + static_cast<int64_t>(i)].value);
  }
}

}  // namespace
}  // namespace uberrt::stream
