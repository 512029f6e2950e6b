#ifndef UBERRT_STREAM_WIRE_H_
#define UBERRT_STREAM_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"
#include "stream/message.h"

namespace uberrt::stream::wire {

/// Compact binary frame format for the partition log (DESIGN.md "Binary log
/// format"). All integers are network byte order (big-endian, the
/// common/bytes.h *BE helpers).
///
/// Record frame — one message:
///
///   u32  frame_len      bytes that follow this length field
///   u64  timestamp      application/event timestamp (ms)
///   u32  key_len        then key bytes
///   u32  value_len      then value bytes
///   u32  header_count   then per header: u32 key_len, key, u32 value_len, value
///
/// Batch — the unit of append, CRC and retention:
///
///   u32  magic          kBatchMagic ("UBRT")
///   u32  record_count
///   u32  payload_len    bytes of record frames that follow the header
///   u32  crc32          CRC-32C (Castagnoli) over the payload only
///   u64  max_timestamp  largest record timestamp in the batch
///   payload             record_count record frames, back to back
///
/// Offsets and partitions are *not* stored in frames: a record's offset is
/// implied by the batch base offset plus its index, which is what lets
/// replication re-append fetched frames verbatim while the destination
/// assigns its own offsets.

inline constexpr uint32_t kBatchMagic = 0x55425254;  // "UBRT"
inline constexpr size_t kBatchHeaderSize = 4 + 4 + 4 + 4 + 8;
/// frame_len of an empty message: timestamp + key_len + value_len + header_count.
inline constexpr size_t kMinFrameLen = 8 + 4 + 4 + 4;

/// CRC-32C (Castagnoli polynomial, reflected) — the checksum Kafka uses for
/// record batches. Hardware-accelerated (SSE4.2) when the CPU supports it,
/// slicing-by-8 software fallback otherwise; the scope of the checksum is
/// one batch payload.
uint32_t Crc32(const char* data, size_t n);

inline uint32_t Crc32(std::string_view data) { return Crc32(data.data(), data.size()); }

// --- record frames ----------------------------------------------------------

/// Encodes `m` as one record frame appended to `buf`. The encoded size is
/// exactly `m.FrameSize()` (the one authoritative byte accounting).
void AppendFrame(std::string& buf, const Message& m);

/// Borrowed, zero-copy view of one record inside a log arena segment. The
/// string_views point into memory owned by the log (or an EncodedBatch);
/// validity follows the pin that produced the view (see FetchedBatch).
struct MessageView {
  std::string_view key;
  std::string_view value;
  TimestampMs timestamp = 0;
  int64_t offset = -1;     ///< assigned at read time from the batch base offset
  int32_t partition = -1;  ///< assigned at read time by the broker
  /// The whole encoded frame including its length prefix — re-appendable
  /// verbatim via BatchBuilder::AddEncodedFrame (replication hot path).
  std::string_view raw_frame;
  /// Concatenated header entries (u32 klen, key, u32 vlen, value) x count.
  std::string_view headers_raw;
  uint32_t header_count = 0;

  /// Linear scan for a header value; false when absent.
  bool GetHeader(std::string_view name, std::string_view* out) const;

  /// Deep-copies into an owning Message — only where a caller must own the
  /// data (queued endpoints, DLQ reinjection).
  Message ToMessage() const;
};

/// Bounds-checked decode of the frame starting at (*pos); advances *pos past
/// it. Corruption on any truncated or inconsistent length.
Result<MessageView> DecodeFrame(std::string_view data, size_t* pos);

/// Unchecked decode for data that already passed ValidateBatch (the log only
/// serves views from validated arena segments). This is the fetch hot path:
/// a handful of length reads, no branches on malformed input.
MessageView DecodeFrameTrusted(std::string_view data, size_t* pos);

// --- batches ----------------------------------------------------------------

/// A sealed, CRC'd batch ready for a single-memcpy append into a partition
/// log. `data` holds the batch header followed by the payload.
struct EncodedBatch {
  std::string data;
  uint32_t record_count = 0;
  int64_t max_timestamp = 0;

  size_t bytes() const { return data.size(); }
};

/// Appends `m` to `buf` as a sealed one-record batch, byte-identical to
/// BatchBuilder::Add(m) then Finish(), in one pass with no intermediate
/// buffer: PartitionLog::Append encodes straight into its arena segment.
/// Appends exactly kBatchHeaderSize + m.FrameSize() bytes.
void AppendSingleRecordBatch(std::string& buf, const Message& m);

/// Accumulates record frames, then seals them into an EncodedBatch with one
/// CRC pass. Records are encoded directly after a reserved header slot, so
/// Finish() patches the header and *moves* the buffer out — sealing a batch
/// never copies the payload. Reusable after Finish().
class BatchBuilder {
 public:
  BatchBuilder() { Reset(); }

  /// Encodes the message directly into the payload buffer (no Message copy).
  void Add(const Message& m);

  /// Appends an already-encoded record frame verbatim (e.g. a fetched view's
  /// raw_frame) — replication never materializes Messages.
  void AddEncodedFrame(std::string_view frame, TimestampMs timestamp);

  bool empty() const { return count_ == 0; }
  uint32_t count() const { return count_; }
  /// Payload bytes so far (excludes the batch header).
  size_t payload_bytes() const { return payload_.size() - kBatchHeaderSize; }
  int64_t max_timestamp() const { return max_timestamp_; }

  /// Seals the accumulated records into a batch and resets the builder.
  EncodedBatch Finish();

 private:
  void Reset();

  std::string payload_;  ///< header placeholder + record frames
  uint32_t count_ = 0;
  int64_t max_timestamp_ = 0;
};

/// Validates a batch end to end: magic, header/payload sizes, CRC, and a
/// full bounds-checked walk of every record frame. A batch that passes is
/// safe to index and serve views from without further checks.
Status ValidateBatch(std::string_view batch);

/// Iterates the records of a validated batch (validates on Open).
class BatchReader {
 public:
  /// Corruption / InvalidArgument when the batch fails validation.
  static Result<BatchReader> Open(std::string_view batch);

  uint32_t record_count() const { return record_count_; }
  int64_t max_timestamp() const { return max_timestamp_; }
  bool Done() const { return read_ == record_count_; }

  /// Next record frame as a view into the batch buffer.
  Result<MessageView> Next();

 private:
  BatchReader(std::string_view payload, uint32_t record_count, int64_t max_timestamp)
      : payload_(payload), record_count_(record_count), max_timestamp_(max_timestamp) {}

  std::string_view payload_;
  uint32_t record_count_ = 0;
  int64_t max_timestamp_ = 0;
  uint32_t read_ = 0;
  size_t pos_ = 0;
};

}  // namespace uberrt::stream::wire

#endif  // UBERRT_STREAM_WIRE_H_
