#include "stream/chaperone.h"

#include <cstring>
#include <set>
#include <sstream>

#include "common/bytes.h"

namespace uberrt::stream {

namespace {

constexpr int kTagShift = 40;  ///< slot = tag << 40 | (arena position + 1)
constexpr uint64_t kPosMask = (uint64_t{1} << kTagShift) - 1;
constexpr size_t kInitialSlots = 16;

/// Finds the entry for `key` in a map with a transparent comparator, adding
/// a default one (and only then building a key string) when it is missing.
template <typename Map>
typename Map::mapped_type& FindOrAdd(Map& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::string(key), typename Map::mapped_type()).first;
  return it->second;
}

}  // namespace

uint64_t UidSet::Hash(std::string_view uid) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  uint64_t h = uid.size() * kMul;
  size_t i = 0;
  for (; i + 8 <= uid.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, uid.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  if (i < uid.size()) std::memcpy(&tail, uid.data() + i, uid.size() - i);
  h = (h ^ tail) * kMul;
  // murmur3 fmix64.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::string_view UidSet::StoredAt(uint64_t slot) const {
  size_t pos = static_cast<size_t>((slot & kPosMask) - 1);
  uint32_t len;
  std::memcpy(&len, arena_.data() + pos, 4);
  return std::string_view(arena_.data() + pos + 4, len);
}

bool UidSet::Insert(std::string_view uid) {
  if (static_cast<size_t>(size_ + 1) * 2 > slots_.size()) Grow();
  const uint64_t hash = Hash(uid);
  const uint64_t tag = hash >> kTagShift;  // the top 24 bits
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) {
      slots_[i] = tag << kTagShift | (arena_.size() + 1);
      bytes::AppendString(&arena_, uid);
      ++size_;
      return true;
    }
    if (slot >> kTagShift == tag && StoredAt(slot) == uid) return false;
  }
}

void UidSet::ReserveLike(const UidSet& like) {
  if (size_ != 0 || like.size_ == 0) return;
  slots_.assign(like.slots_.size(), 0);
  arena_.reserve(like.arena_.size());
}

void UidSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = Hash(StoredAt(slot)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::string AuditAlert::ToString() const {
  std::ostringstream os;
  os << (kind == Kind::kLoss ? "LOSS" : "DUPLICATION") << " topic=" << topic
     << " window=" << window_start << " upstream=" << upstream_count
     << " downstream=" << downstream_count;
  return os.str();
}

void Chaperone::Record(std::string_view stage, std::string_view topic,
                       const Message& message) {
  auto it = message.headers.find(kHeaderUid);
  RecordRaw(stage, topic, message.timestamp,
            it == message.headers.end() ? std::string_view() : it->second);
}

void Chaperone::RecordRaw(std::string_view stage, std::string_view topic,
                          TimestampMs event_time, std::string_view uid) {
  const TimestampMs start = WindowStart(event_time);
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = FindOrAdd(FindOrAdd(series_, stage), topic);
  if (series.last == nullptr || series.last_start != start) {
    Bucket* previous = series.last;
    series.last = &series.windows[start];
    series.last_start = start;
    if (previous != nullptr) series.last->uids.ReserveLike(previous->uids);
  }
  ++series.last->count;
  if (!uid.empty()) series.last->uids.Insert(uid);
}

const Chaperone::Windows* Chaperone::FindLocked(std::string_view stage,
                                                std::string_view topic) const {
  auto sit = series_.find(stage);
  if (sit == series_.end()) return nullptr;
  auto tit = sit->second.find(topic);
  return tit == sit->second.end() ? nullptr : &tit->second.windows;
}

std::vector<WindowStats> Chaperone::GetStats(std::string_view stage,
                                             std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WindowStats> out;
  const Windows* windows = FindLocked(stage, topic);
  if (windows == nullptr) return out;
  for (const auto& [window, bucket] : *windows) {
    out.push_back({window, bucket.count, bucket.uids.size()});
  }
  return out;
}

int64_t Chaperone::TotalCount(std::string_view stage, std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Windows* windows = FindLocked(stage, topic);
  if (windows == nullptr) return 0;
  int64_t total = 0;
  for (const auto& [window, bucket] : *windows) total += bucket.count;
  return total;
}

std::vector<AuditAlert> Chaperone::Compare(std::string_view upstream_stage,
                                           std::string_view downstream_stage,
                                           std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditAlert> alerts;
  static const Windows kEmpty;
  const Windows* up_found = FindLocked(upstream_stage, topic);
  const Windows* down_found = FindLocked(downstream_stage, topic);
  const Windows& up = up_found == nullptr ? kEmpty : *up_found;
  const Windows& down = down_found == nullptr ? kEmpty : *down_found;

  // Union of windows.
  std::set<TimestampMs> windows;
  for (const auto& [w, b] : up) windows.insert(w);
  for (const auto& [w, b] : down) windows.insert(w);

  for (TimestampMs w : windows) {
    auto ub = up.find(w);
    auto db = down.find(w);
    int64_t up_unique = ub == up.end() ? 0 : ub->second.uids.size();
    int64_t down_count = db == down.end() ? 0 : db->second.count;
    int64_t down_unique = db == down.end() ? 0 : db->second.uids.size();
    if (down_unique < up_unique) {
      alerts.push_back({AuditAlert::Kind::kLoss, std::string(topic), w, up_unique,
                        down_unique});
    }
    if (down_count > down_unique) {
      alerts.push_back({AuditAlert::Kind::kDuplication, std::string(topic), w,
                        down_unique, down_count});
    }
  }
  return alerts;
}

}  // namespace uberrt::stream
