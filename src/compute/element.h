#ifndef UBERRT_COMPUTE_ELEMENT_H_
#define UBERRT_COMPUTE_ELEMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.h"
#include "common/value.h"

namespace uberrt::compute {

/// Watermark value meaning "input exhausted; flush everything".
inline constexpr TimestampMs kMaxWatermark = std::numeric_limits<TimestampMs>::max();

/// One unit flowing through a dataflow channel: a data record, a watermark,
/// a checkpoint barrier or an end-of-stream marker. Mirrors Flink's
/// StreamElement plus its CheckpointBarrier.
struct Element {
  enum class Kind { kRecord = 0, kWatermark = 1, kEnd = 2, kBarrier = 3 };

  Kind kind = Kind::kRecord;
  Row row;                    ///< payload (kRecord)
  /// Record event time, the watermark value, or the barrier's checkpoint
  /// sequence.
  TimestampMs event_time = 0;
  /// Upstream instance index (watermark and barrier alignment).
  int32_t from_channel = 0;
  int32_t side = 0;           ///< input side for two-input operators (joins)

  static Element Record(Row row, TimestampMs event_time, int32_t side = 0) {
    Element e;
    e.kind = Kind::kRecord;
    e.row = std::move(row);
    e.event_time = event_time;
    e.side = side;
    return e;
  }
  static Element Watermark(TimestampMs watermark) {
    Element e;
    e.kind = Kind::kWatermark;
    e.event_time = watermark;
    return e;
  }
  static Element End() {
    Element e;
    e.kind = Kind::kEnd;
    return e;
  }
  /// Cuts the channel for checkpoint `sequence`: everything ahead of it is in
  /// the snapshot, everything behind it is not.
  static Element Barrier(int64_t sequence) {
    Element e;
    e.kind = Kind::kBarrier;
    e.event_time = sequence;
    return e;
  }
};

/// Unit carried through a dataflow channel: a run of records optionally
/// followed by control elements (watermark / barrier / end), in order.
/// Every element of a batch comes from one producer, so all share one
/// `from_channel`. Batching amortizes the queue mutex, the wakeup CAS and
/// the dispatch bookkeeping over every element in the batch instead of
/// paying them per record (Flink's network-buffer batching, Section 4.2). A
/// batch of one element degenerates to the old per-record dataflow, which
/// the bench keeps as its baseline.
///
/// Rows inside the batch own their values outright (decoded from borrowed
/// stream views at the source boundary), so a batch has no lifetime tie to
/// the broker arenas it was read from: the FetchedBatch pin is released at
/// the end of the source poll cycle that decoded it.
struct ElementBatch {
  std::vector<Element> items;

  bool empty() const { return items.empty(); }
  size_t size() const { return items.size(); }
};

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_ELEMENT_H_
