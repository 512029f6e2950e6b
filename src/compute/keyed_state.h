#ifndef UBERRT_COMPUTE_KEYED_STATE_H_
#define UBERRT_COMPUTE_KEYED_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"

namespace uberrt::compute {

/// Open-addressing flat hash map for keyed window state, keyed by
/// (encoded key bytes, window start). Mirrors the PR 5 group-by design:
/// linear probing over a power-of-two slot array of dense entry indexes,
/// with the caller pre-computing the FNV-1a hash of the key bytes once per
/// record (from a reused scratch buffer) so probing never re-hashes and a
/// miss costs one cache line, not a std::map pointer chase with full string
/// comparisons at every node.
///
/// Erase uses tombstones plus a free list of dead entry slots; the table
/// rehashes (dropping tombstones) when live+tombstone occupancy passes 75%,
/// at the same capacity when tombstones are at least as many as live
/// entries, so insert/erase churn (a join keyed by unique ids) keeps the
/// slot array sized by live keys, not by total inserts.
/// Iteration order is unspecified — callers that need the legacy
/// std::map<(start,key)> ordering (snapshot blobs, fire order) sort the
/// collected entries, which is O(k log k) in the touched entries only.
template <typename V>
class FlatKeyedMap {
 public:
  struct Entry {
    uint64_t hash = 0;
    std::string key;
    TimestampMs start = 0;
    V value{};
    bool live = false;
  };

  FlatKeyedMap() { Rehash(64); }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Slot-array length (tests pin that churn does not grow it).
  size_t capacity() const { return slots_.size(); }

  /// Pointer to the value for (hash, key, start), or nullptr.
  V* Find(uint64_t hash, std::string_view key, TimestampMs start) {
    size_t mask = slots_.size() - 1;
    size_t slot = Mix(hash, start) & mask;
    while (true) {
      uint32_t e = slots_[slot];
      if (e == kEmpty) return nullptr;
      if (e != kTombstone) {
        Entry& entry = entries_[e];
        if (entry.hash == hash && entry.start == start && entry.key == key) {
          return &entry.value;
        }
      }
      slot = (slot + 1) & mask;
    }
  }

  /// Value for (hash, key, start), default-constructed and inserted if new.
  /// `inserted` reports whether a new entry was created (the key bytes are
  /// copied out of the caller's scratch buffer only then).
  V& FindOrInsert(uint64_t hash, std::string_view key, TimestampMs start,
                  bool* inserted) {
    if ((live_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
      Rehash(tombstones_ >= live_ ? slots_.size() : slots_.size() * 2);
    }
    size_t mask = slots_.size() - 1;
    size_t slot = Mix(hash, start) & mask;
    size_t first_tombstone = kNoSlot;
    while (true) {
      uint32_t e = slots_[slot];
      if (e == kEmpty) {
        if (first_tombstone != kNoSlot) {
          slot = first_tombstone;
          --tombstones_;
        }
        uint32_t idx = AllocEntry();
        Entry& entry = entries_[idx];
        entry.hash = hash;
        entry.key.assign(key.data(), key.size());
        entry.start = start;
        entry.value = V{};
        entry.live = true;
        slots_[slot] = idx;
        ++live_;
        *inserted = true;
        return entry.value;
      }
      if (e == kTombstone) {
        if (first_tombstone == kNoSlot) first_tombstone = slot;
      } else {
        Entry& entry = entries_[e];
        if (entry.hash == hash && entry.start == start && entry.key == key) {
          *inserted = false;
          return entry.value;
        }
      }
      slot = (slot + 1) & mask;
    }
  }

  /// Removes (hash, key, start); false when absent.
  bool Erase(uint64_t hash, std::string_view key, TimestampMs start) {
    size_t mask = slots_.size() - 1;
    size_t slot = Mix(hash, start) & mask;
    while (true) {
      uint32_t e = slots_[slot];
      if (e == kEmpty) return false;
      if (e != kTombstone) {
        Entry& entry = entries_[e];
        if (entry.hash == hash && entry.start == start && entry.key == key) {
          entry.live = false;
          entry.key.clear();
          entry.value = V{};
          free_.push_back(e);
          slots_[slot] = kTombstone;
          --live_;
          ++tombstones_;
          return true;
        }
      }
      slot = (slot + 1) & mask;
    }
  }

  void Clear() {
    entries_.clear();
    free_.clear();
    live_ = 0;
    tombstones_ = 0;
    Rehash(64);
  }

  /// Visits every live entry; `fn(const Entry&)`. Unspecified order.
  template <typename F>
  void ForEach(F&& fn) const {
    for (const Entry& entry : entries_) {
      if (entry.live) fn(entry);
    }
  }

  /// Mutable variant of ForEach (session-window merges edit accumulators in
  /// place).
  template <typename F>
  void ForEachMutable(F&& fn) {
    for (Entry& entry : entries_) {
      if (entry.live) fn(entry);
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr uint32_t kTombstone = 0xFFFFFFFEu;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Folds the window start into the precomputed key hash and finalizes, so
  /// the same key across adjacent windows doesn't cluster into one probe run.
  static size_t Mix(uint64_t hash, TimestampMs start) {
    uint64_t h = hash ^ (static_cast<uint64_t>(start) * 0x9E3779B97F4A7C15ULL);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  uint32_t AllocEntry() {
    if (!free_.empty()) {
      uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    entries_.emplace_back();
    return static_cast<uint32_t>(entries_.size() - 1);
  }

  void Rehash(size_t new_capacity) {
    slots_.assign(new_capacity, kEmpty);
    tombstones_ = 0;
    size_t mask = new_capacity - 1;
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (!entries_[e].live) continue;
      size_t slot = Mix(entries_[e].hash, entries_[e].start) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(e);
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_;  ///< dead entry indexes available for reuse
  size_t live_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_KEYED_STATE_H_
