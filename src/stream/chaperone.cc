#include "stream/chaperone.h"

#include <cstring>
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

int64_t UidSet::ResidentBytes() const {
  return static_cast<int64_t>(arena_.capacity() + slots_.capacity() * sizeof(uint64_t));
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
  ++series.total;
  if (series.last == nullptr || series.last_start != start) {
    if (start < series.finalized_before) {
      ++series.late;
      return;
    }
    Bucket* previous = series.last;
    series.last = &series.windows[start];
    series.last_start = start;
    if (previous != nullptr) series.last->uids.ReserveLike(previous->uids);
    FinalizeBeforeLocked(&series, start);
  }
  ++series.last->count;
  if (!uid.empty()) series.last->uids.Insert(uid);
}

void Chaperone::FinalizeBeforeLocked(Series* series, TimestampMs start) const {
  // w is finalized once w + window + horizon <= start.
  if (start < INT64_MIN + kFinalizeHorizonMs + window_size_ms_) return;
  const TimestampMs before = start - kFinalizeHorizonMs - window_size_ms_ + 1;
  if (before <= series->finalized_before) return;
  series->finalized_before = before;
  Windows& windows = series->windows;
  while (!windows.empty() && windows.begin()->first < before) {
    auto it = windows.begin();
    series->finalized.push_back({it->first, it->second.count, it->second.uids.size()});
    windows.erase(it);  // frees the window's uid set
  }
}

const Chaperone::Series* Chaperone::FindLocked(std::string_view stage,
                                               std::string_view topic) const {
  auto sit = series_.find(stage);
  if (sit == series_.end()) return nullptr;
  auto tit = sit->second.find(topic);
  return tit == sit->second.end() ? nullptr : &tit->second;
}

std::vector<WindowStats> Chaperone::StatsLocked(std::string_view stage,
                                                std::string_view topic) const {
  std::vector<WindowStats> out;
  const Series* series = FindLocked(stage, topic);
  if (series == nullptr) return out;
  out.reserve(series->finalized.size() + series->windows.size());
  out.assign(series->finalized.begin(), series->finalized.end());
  for (const auto& [window, bucket] : series->windows) {
    out.push_back({window, bucket.count, bucket.uids.size()});
  }
  return out;
}

std::vector<WindowStats> Chaperone::GetStats(std::string_view stage,
                                             std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked(stage, topic);
}

int64_t Chaperone::TotalCount(std::string_view stage, std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindLocked(stage, topic);
  return series == nullptr ? 0 : series->total;
}

int64_t Chaperone::LateCount(std::string_view stage, std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindLocked(stage, topic);
  return series == nullptr ? 0 : series->late;
}

int64_t Chaperone::ResidentBytes() const {
  // A std::map node: the red-black links and color ahead of the value.
  constexpr int64_t kMapNode = 32 + sizeof(std::pair<const TimestampMs, Bucket>);
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [stage, topics] : series_) {
    for (const auto& [topic, series] : topics) {
      total += static_cast<int64_t>(sizeof(Series) + series.finalized.size() * sizeof(WindowStats));
      for (const auto& [window, bucket] : series.windows) {
        total += kMapNode + bucket.uids.ResidentBytes();
      }
    }
  }
  return total;
}

std::vector<AuditAlert> Chaperone::Compare(std::string_view upstream_stage,
                                           std::string_view downstream_stage,
                                           std::string_view topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<WindowStats> up = StatsLocked(upstream_stage, topic);
  const std::vector<WindowStats> down = StatsLocked(downstream_stage, topic);
  // Merge the two start-ordered window lists; a window one side lacks
  // counts as empty there.
  std::vector<AuditAlert> alerts;
  size_t u = 0, d = 0;
  while (u < up.size() || d < down.size()) {
    const TimestampMs w =
        d == down.size() || (u < up.size() && up[u].window_start < down[d].window_start)
            ? up[u].window_start
            : down[d].window_start;
    const bool has_up = u < up.size() && up[u].window_start == w;
    const bool has_down = d < down.size() && down[d].window_start == w;
    const int64_t up_unique = has_up ? up[u].unique : 0;
    const int64_t down_count = has_down ? down[d].count : 0;
    const int64_t down_unique = has_down ? down[d].unique : 0;
    if (down_unique < up_unique) {
      alerts.push_back({AuditAlert::Kind::kLoss, std::string(topic), w, up_unique,
                        down_unique});
    }
    if (down_count > down_unique) {
      alerts.push_back({AuditAlert::Kind::kDuplication, std::string(topic), w,
                        down_unique, down_count});
    }
    u += has_up;
    d += has_down;
  }
  return alerts;
}

}  // namespace uberrt::stream
