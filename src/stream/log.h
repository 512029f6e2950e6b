#ifndef UBERRT_STREAM_LOG_H_
#define UBERRT_STREAM_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/message.h"
#include "stream/wire.h"

namespace uberrt::stream {

/// How long data stays readable in a partition before truncation. The paper
/// (Section 7) notes Uber limits Kafka retention to "only a few days", which
/// is exactly why Kappa-style backfill from Kafka does not work and Kappa+
/// reads the archive instead.
///
/// Retention semantics (both policies truncate whole batches from the front,
/// in append order, as Kafka truncates whole segments):
///  - Age: each batch records a *monotone* high-watermark timestamp — the
///    max record timestamp over this and every earlier batch. A batch is
///    dropped when its watermark (not its own newest record) falls outside
///    `max_age_ms`. A late-arriving record with an old event timestamp
///    therefore lives exactly as long as the data appended around it, and an
///    out-of-order old timestamp sitting behind newer data cannot pin
///    expired prefixes: eligibility is strictly by append order.
///  - Size: batches are dropped from the front until the retained encoded
///    bytes fit `max_bytes`, but the newest batch is always retained (Kafka
///    never deletes the active segment), so an acked producer's last write
///    stays readable even when a single batch exceeds the budget.
struct RetentionPolicy {
  /// Age-based retention; <= 0 disables.
  int64_t max_age_ms = -1;
  /// Size-based retention; <= 0 disables.
  int64_t max_bytes = -1;
};

/// A fetched batch of borrowed message views. Views point into the log's
/// arena segments; the FetchedBatch pins those segments (shared ownership),
/// so every view stays valid until the FetchedBatch is destroyed — even if
/// retention truncates the range or the topic is deleted concurrently.
struct FetchedBatch {
  std::vector<wire::MessageView> messages;
  /// Arena segments (or decoded buffers) the views borrow from.
  std::vector<std::shared_ptr<const std::string>> pins;

  bool empty() const { return messages.empty(); }
  size_t size() const { return messages.size(); }

  /// Steals the other batch's views and pins (multi-partition polls).
  void Merge(FetchedBatch&& other) {
    for (auto& v : other.messages) messages.push_back(v);
    for (auto& p : other.pins) pins.push_back(std::move(p));
    other.messages.clear();
    other.pins.clear();
  }
};

/// Memory held by partition logs (one, or summed over a cluster).
struct LogFootprint {
  /// Reserved capacity of every arena segment held, plus the batch index.
  int64_t resident_bytes = 0;
  int64_t index_bytes = 0;  ///< the batch index alone
  int64_t batches = 0;      ///< retained batches
};

struct PartitionLogOptions {
  /// Arena segment capacity. A batch larger than this gets a dedicated
  /// segment sized to fit; segment memory is reclaimed when its last batch
  /// is truncated and the last borrowing FetchedBatch is released.
  size_t segment_bytes = 256 * 1024;
};

/// Append-only offset-addressed log for one topic partition, stored as
/// contiguous arena segments of binary batch frames (wire.h).
///
/// Produce appends a pre-encoded batch with one memcpy; ReadViews returns
/// borrowed string_view slices with zero per-message allocation. Offsets are
/// dense and monotonically increasing; truncation advances the begin offset
/// a whole batch at a time without renumbering (as in Kafka).
///
/// Thread-safe. Arena segments are append-only and fixed-capacity, so bytes
/// already written never move; concurrent appends only ever touch bytes past
/// every outstanding view.
class PartitionLog {
 public:
  explicit PartitionLog(PartitionLogOptions options = {}) : options_(options) {}

  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Appends one message as a single-record batch and returns its offset.
  /// The batch is encoded once, straight into the active arena segment
  /// (wire::AppendSingleRecordBatch: the bytes BatchBuilder would seal), so
  /// the per-message produce path builds no intermediate batch. Batched
  /// producers pre-encode with wire::BatchBuilder and use AppendBatch.
  int64_t Append(const Message& message);

  /// Appends a sealed batch with a single memcpy into the active arena
  /// segment. The batch is validated (magic, sizes, CRC, frame structure)
  /// before any state changes; Corruption means nothing was appended.
  /// Returns the base offset assigned to the batch's first record.
  Result<int64_t> AppendBatch(const wire::EncodedBatch& batch);

  /// Appends a sealed batch whose first record must land at `base_offset`
  /// (offset-preserving copies such as federated topic migration).
  /// `base_offset` must equal the end offset: InvalidArgument on a gap or an
  /// overlap, and nothing is appended.
  Status AppendBatchAt(const wire::EncodedBatch& batch, int64_t base_offset);

  /// Moves an empty log's begin and end offset forward to `offset`, as a
  /// Kafka log start offset moves, so the next append lands there. An
  /// offset-preserving copy of a source that retention has truncated starts
  /// here. FailedPrecondition if the log holds records, InvalidArgument if
  /// `offset` is below the end offset.
  Status StartAt(int64_t offset);

  /// Reads up to `max_messages` borrowed views starting at `offset`, with
  /// zero per-message allocation. OutOfRange if offset is below the begin
  /// offset (data truncated away) or above the end offset. An offset equal
  /// to the end offset yields an empty result (nothing new yet).
  Result<FetchedBatch> ReadViews(int64_t offset, size_t max_messages) const;

  /// First retained offset.
  int64_t BeginOffset() const;
  /// Offset that the next append will receive.
  int64_t EndOffset() const;
  /// Retained message count.
  int64_t Size() const;
  /// Retained encoded bytes (batch headers + record frames).
  int64_t Bytes() const;

  /// Applies the retention policy relative to `now`, truncating whole
  /// batches from the front (see RetentionPolicy for the exact semantics).
  /// Returns the number of messages dropped.
  int64_t ApplyRetention(const RetentionPolicy& policy, TimestampMs now);

  /// Memory this log holds: every arena segment its batches live in (plus
  /// the active one) and the batch index.
  LogFootprint Footprint() const;

 private:
  // Packed to 4-byte alignment so an entry takes 20 bytes, not 24.
#pragma pack(push, 4)
  /// Index entry for one appended batch. Its record count is the next
  /// entry's base offset (or the end offset) minus its own; its bytes end
  /// where the next batch of the same segment begins (or at the segment's
  /// size). Each batch starts past the previous one in its segment, and a
  /// fresh segment starts at 0, so `next.begin > begin` exactly when the
  /// next batch shares the segment.
  struct BatchEntry {
    int64_t base_offset = 0;
    /// Monotone high-watermark: max record timestamp over this and every
    /// earlier batch (survives truncation via hwm_timestamp_).
    int64_t hwm_timestamp = 0;
    uint32_t begin = 0;  ///< byte offset of the batch header in its segment
  };
#pragma pack(pop)
  /// One arena segment and the base offset of its first batch: the
  /// segment holds the batches from `base_offset` up to the next segment's.
  /// Each arena pointer is held once here, not once per batch.
  struct Segment {
    std::shared_ptr<const std::string> arena;
    int64_t base_offset = 0;
  };

  /// The active arena segment, first replaced by a fresh one when `need`
  /// more bytes would not fit its fixed capacity.
  std::string& ArenaForLocked(size_t need);
  /// Records the batch just written at [begin, end of the active arena) and
  /// returns its base offset.
  int64_t CommitLocked(size_t begin, uint32_t record_count, int64_t max_timestamp);
  int64_t AppendBatchLocked(const wire::EncodedBatch& batch);
  using BatchIter = std::deque<BatchEntry>::const_iterator;
  struct BatchExtent {
    uint32_t end = 0;   ///< one past the batch's last byte in its segment
    int64_t count = 0;  ///< records in the batch
  };
  /// Where the batch at `it`, which lives in `segment`, ends.
  BatchExtent ExtentLocked(BatchIter it, const Segment& segment) const;

  mutable std::mutex mu_;
  PartitionLogOptions options_;
  std::shared_ptr<std::string> arena_;  ///< active segment (fixed capacity)
  std::deque<BatchEntry> batches_;
  std::deque<Segment> segments_;  ///< every segment a retained batch lives in
  int64_t begin_offset_ = 0;
  int64_t end_offset_ = 0;
  int64_t bytes_ = 0;
  int64_t hwm_timestamp_ = INT64_MIN;  ///< running watermark across appends
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_LOG_H_
