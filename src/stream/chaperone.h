#ifndef UBERRT_STREAM_CHAPERONE_H_
#define UBERRT_STREAM_CHAPERONE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "stream/message.h"

namespace uberrt::stream {

/// Audit statistics for one tumbling window at one pipeline stage.
struct WindowStats {
  TimestampMs window_start = 0;
  int64_t count = 0;   ///< messages observed
  int64_t unique = 0;  ///< distinct uids observed (duplication = count - unique)
};

/// The distinct uids of one audit window, stored compactly: each uid once,
/// u32-length-prefixed, back to back in one byte arena, found through an
/// open-addressing (linear probing) index of 8-byte slots. A slot packs the
/// top 24 bits of the uid's hash as a tag with the uid's arena position + 1
/// (0 = empty), so a probe reads the arena only when the tags agree, and
/// every tag match is confirmed against the stored bytes — membership is
/// exact. An insert allocates nothing unless the arena or the index grows
/// (both double; the index stays at most half full). Positions take 40
/// bits, so one window holds up to 1 TiB of uid bytes.
class UidSet {
 public:
  /// Adds the uid; false when it was already present.
  bool Insert(std::string_view uid);
  /// Sizes an empty set for about `like`'s contents, so a window that fills
  /// like the one before it grows neither its index nor its arena.
  void ReserveLike(const UidSet& like);
  int64_t size() const { return size_; }
  /// Heap bytes the set holds (arena and index capacity).
  int64_t ResidentBytes() const;

  /// The hash the index probes by: one multiply per 8 bytes of uid, then
  /// murmur3's 64-bit finalizer, so the low bits that pick the home slot and
  /// the top bits kept as the tag both depend on every input bit.
  static uint64_t Hash(std::string_view uid);

 private:
  std::string_view StoredAt(uint64_t slot) const;
  void Grow();

  std::string arena_;
  std::vector<uint64_t> slots_;  ///< power-of-two size; 0 = empty
  int64_t size_ = 0;
};

/// A detected mismatch between two stages for one window.
struct AuditAlert {
  enum class Kind { kLoss, kDuplication };
  Kind kind = Kind::kLoss;
  std::string topic;
  TimestampMs window_start = 0;
  int64_t upstream_count = 0;
  int64_t downstream_count = 0;

  std::string ToString() const;
};

/// End-to-end auditing service modeled on Uber's Chaperone
/// (Section 4.1.4): every stage of a pipeline (producer, regional Kafka,
/// uReplicator output, aggregate Kafka, Flink input, ...) reports each
/// message it sees; Chaperone buckets the reports into tumbling windows by
/// the message's application timestamp, counts total and unique messages
/// per (stage, topic, window), and raises alerts where adjacent stages
/// disagree — detecting both loss and duplication.
///
/// Memory stays bounded however long a series runs: once a series records
/// into a window that starts kFinalizeHorizonMs or more after window w
/// ends, w is finalized — its count and unique count freeze into a 24-byte
/// WindowStats and its uid set is freed. Finalized windows stay in GetStats
/// and Compare unchanged. A record for a window at or behind the newest
/// finalized one (finalized, or a gap never recorded into) is late: it
/// counts in TotalCount and LateCount and changes no window.
class Chaperone {
 public:
  /// How far event time must move past a window's end before the window is
  /// finalized: 10 minutes, 600 one-second windows.
  static constexpr int64_t kFinalizeHorizonMs = 10 * 60 * 1000;

  explicit Chaperone(int64_t window_size_ms = 1000) : window_size_ms_(window_size_ms) {}

  /// Reports one message observation at a stage. Uses the message's `uid`
  /// header for duplicate detection (messages without one are only counted).
  void Record(std::string_view stage, std::string_view topic, const Message& message);

  /// Reports one observation with its uid given directly (empty = no uid).
  void RecordRaw(std::string_view stage, std::string_view topic, TimestampMs event_time,
                 std::string_view uid);

  /// Per-window statistics for a stage/topic, ordered by window start.
  std::vector<WindowStats> GetStats(std::string_view stage, std::string_view topic) const;

  /// Total messages observed at a stage/topic, late ones included.
  int64_t TotalCount(std::string_view stage, std::string_view topic) const;

  /// Messages at a stage/topic that arrived after their window was
  /// finalized (see the class comment); no window counts them.
  int64_t LateCount(std::string_view stage, std::string_view topic) const;

  /// Heap bytes held by every series: live windows with their uid sets,
  /// and the finalized windows' stats.
  int64_t ResidentBytes() const;

  /// Compares an upstream stage against a downstream stage for one topic and
  /// returns an alert per window where they disagree:
  ///  - downstream unique count < upstream unique count -> loss
  ///  - downstream count > downstream unique            -> duplication
  std::vector<AuditAlert> Compare(std::string_view upstream_stage,
                                  std::string_view downstream_stage,
                                  std::string_view topic) const;

 private:
  struct Bucket {
    int64_t count = 0;
    UidSet uids;
  };
  using Windows = std::map<TimestampMs, Bucket>;
  /// One (stage, topic) series: the finalized windows in start order, then
  /// the live ones (window start -> bucket, all starting at or after
  /// `finalized_before`), plus the bucket last recorded into. Event times
  /// mostly advance, so most records land in it without a map lookup (map
  /// nodes never move).
  struct Series {
    std::deque<WindowStats> finalized;
    Windows windows;
    /// Windows starting before this are finalized; a record for one is late.
    TimestampMs finalized_before = INT64_MIN;
    int64_t total = 0;
    int64_t late = 0;
    TimestampMs last_start = 0;
    Bucket* last = nullptr;
  };

  /// Start of the tumbling window holding t (floor division, so negative
  /// times fall into the window below).
  TimestampMs WindowStart(TimestampMs t) const {
    TimestampMs r = t % window_size_ms_;
    return r < 0 ? t - r - window_size_ms_ : t - r;
  }

  /// Finalizes every live window of `series` that ends kFinalizeHorizonMs
  /// or more before `start`. Called when the series moves to a new window;
  /// each window is finalized once, so the cost is amortized O(1) a record.
  void FinalizeBeforeLocked(Series* series, TimestampMs start) const;

  /// The series of (stage, topic), or nullptr when nothing was recorded.
  const Series* FindLocked(std::string_view stage, std::string_view topic) const;
  /// Every window of (stage, topic), finalized and live, by window start.
  std::vector<WindowStats> StatsLocked(std::string_view stage, std::string_view topic) const;

  int64_t window_size_ms_;
  mutable std::mutex mu_;
  // stage -> topic -> windows. The transparent comparators look stages and
  // topics up by string_view, so recording builds no key string.
  std::map<std::string, std::map<std::string, Series, std::less<>>, std::less<>> series_;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_CHAPERONE_H_
