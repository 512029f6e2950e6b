#include "olap/lifecycle.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"

namespace uberrt::olap {

// --- URT_SEG1 frame codec ----------------------------------------------------

namespace {

constexpr uint64_t kFrameMagic = 0x314745535F545255ULL;  // "URT_SEG1"

/// Parses the frame header into `out` (everything but the segment), leaving
/// `*pos` at the start of the segment blob. A blob without the magic is
/// Corruption.
Status ParseFrameHeader(const std::string& blob, SegmentFrame* out, size_t* pos) {
  size_t p = 0;
  uint64_t magic = 0;
  if (!bytes::ReadU64(blob, &p, &magic) || magic != kFrameMagic) {
    return Status::Corruption("archived segment frame: bad magic");
  }
  auto corrupt = [] { return Status::Corruption("archived segment frame truncated"); };
  uint64_t seq, min_time, max_time, has_validity;
  if (!bytes::ReadU64(blob, &p, &seq) || !bytes::ReadU64(blob, &p, &min_time) ||
      !bytes::ReadU64(blob, &p, &max_time) ||
      !bytes::ReadU64(blob, &p, &has_validity)) {
    return corrupt();
  }
  out->seq = static_cast<int64_t>(seq);
  out->min_time = static_cast<TimestampMs>(min_time);
  out->max_time = static_cast<TimestampMs>(max_time);
  if (has_validity != 0) {
    uint64_t num_bits;
    if (!bytes::ReadU64(blob, &p, &num_bits)) return corrupt();
    const uint64_t num_words = (num_bits + 63) / 64;
    if (num_words > (blob.size() - p) / 8) return corrupt();
    auto validity = std::make_shared<std::vector<bool>>(num_bits, true);
    for (uint64_t w = 0; w < num_words; ++w) {
      uint64_t word;
      if (!bytes::ReadU64(blob, &p, &word)) return corrupt();
      const uint64_t base = w * 64;
      for (uint64_t b = 0; b < 64 && base + b < num_bits; ++b) {
        (*validity)[base + b] = ((word >> b) & 1) != 0;
      }
    }
    out->validity = std::move(validity);
  }
  *pos = p;
  return Status::Ok();
}

}  // namespace

std::string EncodeSegmentFrame(const SegmentFrame& frame) {
  std::string out;
  bytes::AppendU64(&out, kFrameMagic);
  bytes::AppendU64(&out, static_cast<uint64_t>(frame.seq));
  bytes::AppendU64(&out, static_cast<uint64_t>(frame.min_time));
  bytes::AppendU64(&out, static_cast<uint64_t>(frame.max_time));
  if (frame.validity == nullptr) {
    bytes::AppendU64(&out, 0);
  } else {
    bytes::AppendU64(&out, 1);
    bytes::AppendU64(&out, frame.validity->size());
    uint64_t word = 0;
    int bit = 0;
    for (size_t i = 0; i < frame.validity->size(); ++i) {
      if ((*frame.validity)[i]) word |= 1ULL << bit;
      if (++bit == 64) {
        bytes::AppendU64(&out, word);
        word = 0;
        bit = 0;
      }
    }
    if (bit > 0) bytes::AppendU64(&out, word);
  }
  out.append(frame.segment->Serialize());
  return out;
}

Result<SegmentFrame> DecodeSegmentFrame(const std::string& blob) {
  SegmentFrame frame;
  size_t pos = 0;
  UBERRT_RETURN_IF_ERROR(ParseFrameHeader(blob, &frame, &pos));
  Result<std::shared_ptr<Segment>> segment = Segment::Deserialize(blob.substr(pos));
  if (!segment.ok()) return segment.status();
  frame.segment = std::move(segment.value());
  if (frame.validity != nullptr &&
      static_cast<int64_t>(frame.validity->size()) != frame.segment->NumRows()) {
    return Status::Corruption("archived segment validity length mismatch");
  }
  return frame;
}

Result<std::shared_ptr<Segment>> DecodeSegmentFrameLazy(
    std::shared_ptr<const std::string> blob) {
  SegmentFrame header;  // validity/seq/bounds discarded: the handle keeps them
  size_t pos = 0;
  UBERRT_RETURN_IF_ERROR(ParseFrameHeader(*blob, &header, &pos));
  return Segment::DeserializeLazy(std::move(blob), pos);
}

// --- SegmentHandle -----------------------------------------------------------

std::shared_ptr<SegmentHandle> SegmentHandle::Create(
    std::shared_ptr<Segment> segment, int64_t seq, TimestampMs min_time,
    TimestampMs max_time, std::shared_ptr<std::vector<bool>> validity,
    std::string store_key, LifecycleManager* manager) {
  auto handle = std::shared_ptr<SegmentHandle>(new SegmentHandle());
  handle->name_ = segment->name();
  handle->store_key_ = std::move(store_key);
  handle->num_rows_ = segment->NumRows();
  handle->seq_ = seq;
  handle->min_time_ = min_time;
  handle->max_time_ = max_time;
  handle->prune_ = segment->BuildPruneInfo();
  handle->manager_ = manager;
  handle->segment_ = std::move(segment);
  handle->validity_ = std::move(validity);
  if (manager != nullptr) {
    handle->last_touch_.store(manager->Tick(), std::memory_order_relaxed);
    manager->Register(handle);
  }
  return handle;
}

SegmentTier SegmentHandle::tier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tier_;
}

bool SegmentHandle::CanMatch(const FilterPredicate& pred) const {
  std::shared_ptr<Segment> hot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tier_ == SegmentTier::kHot) hot = segment_;
  }
  // Hot: the exact dictionary-backed check. Demoted: the detached prune
  // info (a warm lazy segment has no zone maps of its own).
  if (hot != nullptr) return hot->CanMatch(pred);
  return prune_.CanMatch(pred);
}

void SegmentHandle::Touch() {
  if (manager_ != nullptr) {
    last_touch_.store(manager_->Tick(), std::memory_order_relaxed);
  }
}

Result<std::shared_ptr<Segment>> SegmentHandle::Acquire(SegmentTier* observed) {
  Touch();
  std::lock_guard<std::mutex> lock(mu_);
  if (observed != nullptr) *observed = tier_;
  if (segment_ != nullptr) return segment_;
  // Cold: reload the packed frame (bounded retries) and come back warm.
  // Only managed handles ever go cold.
  Result<std::string> blob = manager_->LoadBlob(store_key_);
  if (!blob.ok()) return blob.status();
  auto packed = std::make_shared<const std::string>(std::move(blob.value()));
  Result<std::shared_ptr<Segment>> segment = DecodeSegmentFrameLazy(packed);
  if (!segment.ok()) return segment.status();
  packed_ = std::move(packed);
  segment_ = segment.value();
  tier_ = SegmentTier::kWarm;
  cold_bytes_ = 0;
  manager_->CountPromotion();
  return segment;
}

Result<std::shared_ptr<Segment>> SegmentHandle::AcquireFull() {
  Result<std::shared_ptr<Segment>> segment = Acquire();
  if (!segment.ok()) return segment;
  UBERRT_RETURN_IF_ERROR(segment.value()->EnsureAllColumns());
  return segment;
}

void SegmentHandle::SetValidity(std::shared_ptr<std::vector<bool>> validity) {
  std::lock_guard<std::mutex> lock(validity_mu_);
  validity_ = std::move(validity);
}

void SegmentHandle::InvalidateRow(size_t row) {
  std::lock_guard<std::mutex> lock(validity_mu_);
  if (validity_ != nullptr && row < validity_->size()) (*validity_)[row] = false;
}

std::shared_ptr<std::vector<bool>> SegmentHandle::SnapshotValidity() const {
  std::lock_guard<std::mutex> lock(validity_mu_);
  if (validity_ == nullptr) return nullptr;
  return std::make_shared<std::vector<bool>>(*validity_);
}

Status SegmentHandle::DemoteToWarm() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tier_ != SegmentTier::kHot || manager_ == nullptr) return Status::Ok();
  SegmentFrame frame;
  frame.seq = seq_;
  frame.min_time = min_time_;
  frame.max_time = max_time_;
  frame.validity = SnapshotValidity();
  frame.segment = segment_;
  auto packed = std::make_shared<const std::string>(EncodeSegmentFrame(frame));
  Result<std::shared_ptr<Segment>> lazy = DecodeSegmentFrameLazy(packed);
  if (!lazy.ok()) return lazy.status();
  packed_ = std::move(packed);
  segment_ = std::move(lazy.value());  // in-flight pins keep the hot one alive
  tier_ = SegmentTier::kWarm;
  manager_->CountDemotion();
  return Status::Ok();
}

Status SegmentHandle::DemoteToCold() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tier_ != SegmentTier::kWarm || manager_ == nullptr) return Status::Ok();
  // Put-if-absent (the archival queue usually uploaded this key already);
  // on failure the segment simply stays warm for the next pass.
  UBERRT_RETURN_IF_ERROR(manager_->EnsureDurable(store_key_, *packed_));
  cold_bytes_ = static_cast<int64_t>(packed_->size());
  packed_.reset();
  segment_.reset();
  tier_ = SegmentTier::kCold;
  manager_->CountDemotion();
  return Status::Ok();
}

void SegmentHandle::ShrinkWarm() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tier_ != SegmentTier::kWarm || packed_ == nullptr) return;
  // Swap in a fresh lazy segment over the same frame: the materialized
  // columns of the old one stay alive for any pinned reader and are freed
  // with its last pin. Never mutate a shared Segment backwards.
  Result<std::shared_ptr<Segment>> lazy = DecodeSegmentFrameLazy(packed_);
  if (lazy.ok()) segment_ = std::move(lazy.value());
}

int64_t SegmentHandle::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bytes = 64 + prune_.MemoryBytes();
  if (segment_ != nullptr) bytes += segment_->MemoryBytes();
  if (packed_ != nullptr) bytes += static_cast<int64_t>(packed_->size());
  {
    std::lock_guard<std::mutex> vlock(validity_mu_);
    if (validity_ != nullptr) {
      bytes += static_cast<int64_t>(validity_->size() / 8) + 16;
    }
  }
  return bytes;
}

int64_t SegmentHandle::ColdBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_bytes_;
}

// --- LifecycleManager --------------------------------------------------------

LifecycleManager::LifecycleManager(storage::ObjectStore* store,
                                   MetricsRegistry* metrics,
                                   int64_t memory_budget_bytes)
    : store_(store),
      store_retry_(std::make_unique<common::RetryPolicy>(
          "olap.tier", common::RetryOptions{.max_attempts = 4},
          SystemClock::Instance(), metrics)),
      budget_(memory_budget_bytes),
      hot_bytes_(metrics->GetGauge("olap.tier.hot_bytes")),
      warm_bytes_(metrics->GetGauge("olap.tier.warm_bytes")),
      cold_bytes_(metrics->GetGauge("olap.tier.cold_bytes")),
      demotions_(metrics->GetCounter("olap.tier.demotions")),
      promotions_(metrics->GetCounter("olap.tier.promotions")),
      materializations_(metrics->GetCounter("olap.tier.materializations")) {}

void LifecycleManager::Register(const std::shared_ptr<SegmentHandle>& handle) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  handles_.push_back(handle);
}

std::vector<std::shared_ptr<SegmentHandle>> LifecycleManager::SnapshotLru() {
  // Sort on one read of each last_touch: concurrent queries bump it, and a
  // key that moves mid-sort breaks the ordering std::stable_sort relies on
  // (it then reads out of bounds).
  std::vector<std::pair<uint64_t, std::shared_ptr<SegmentHandle>>> touched;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < handles_.size(); ++i) {
      std::shared_ptr<SegmentHandle> h = handles_[i].lock();
      if (h == nullptr) continue;  // dropped table/partition: prune the slot
      handles_[keep++] = handles_[i];
      touched.emplace_back(h->last_touch(), std::move(h));
    }
    handles_.resize(keep);
  }
  std::stable_sort(touched.begin(), touched.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::shared_ptr<SegmentHandle>> out;
  out.reserve(touched.size());
  for (auto& entry : touched) out.push_back(std::move(entry.second));
  return out;
}

int64_t LifecycleManager::EnforceBudget() {
  const int64_t budget = memory_budget_bytes();
  if (budget <= 0) {
    RefreshGauges();
    return 0;
  }
  std::lock_guard<std::mutex> lock(enforce_mu_);
  std::vector<std::shared_ptr<SegmentHandle>> lru = SnapshotLru();
  // One ResidentBytes walk up front, then delta bookkeeping per demotion —
  // never a full recompute per step.
  std::vector<int64_t> resident(lru.size());
  int64_t total = external_bytes_fn_ ? external_bytes_fn_() : 0;
  for (size_t i = 0; i < lru.size(); ++i) {
    resident[i] = lru[i]->ResidentBytes();
    total += resident[i];
  }
  int64_t demoted = 0;
  auto settle = [&](size_t i) {
    int64_t after = lru[i]->ResidentBytes();
    total += after - resident[i];
    resident[i] = after;
  };
  // Phase 1: hot -> warm, least recently queried first.
  for (size_t i = 0; i < lru.size() && total > budget; ++i) {
    if (lru[i]->tier() != SegmentTier::kHot) continue;
    if (!lru[i]->DemoteToWarm().ok()) continue;
    settle(i);
    ++demoted;
  }
  // Phase 2: re-pack warm segments, dropping lazily materialized columns.
  for (size_t i = 0; i < lru.size() && total > budget; ++i) {
    if (lru[i]->tier() != SegmentTier::kWarm) continue;
    lru[i]->ShrinkWarm();
    settle(i);
  }
  // Phase 3: warm -> cold. Store I/O: stop at the first failure and let the
  // next pass retry once the store heals — never spin on an outage.
  for (size_t i = 0; i < lru.size() && total > budget; ++i) {
    if (lru[i]->tier() != SegmentTier::kWarm) continue;
    if (!lru[i]->DemoteToCold().ok()) break;
    settle(i);
    ++demoted;
  }
  RefreshGauges();
  return demoted;
}

Status LifecycleManager::ApplyTierTargets(int64_t max_hot, int64_t max_warm) {
  std::lock_guard<std::mutex> lock(enforce_mu_);
  std::vector<std::shared_ptr<SegmentHandle>> lru = SnapshotLru();
  std::reverse(lru.begin(), lru.end());  // most recently queried kept hottest
  Status first_error = Status::Ok();
  int64_t hot = 0, warm = 0;
  for (const std::shared_ptr<SegmentHandle>& handle : lru) {
    SegmentTier tier = handle->tier();
    if (tier == SegmentTier::kHot) {
      if (hot < max_hot) {
        ++hot;
        continue;
      }
      Status st = handle->DemoteToWarm();
      if (!st.ok()) {
        if (first_error.ok()) first_error = st;
        continue;
      }
      tier = SegmentTier::kWarm;
    }
    if (tier == SegmentTier::kWarm && warm < max_warm) {
      // Re-apply the tier definition: a warm segment holds the packed frame
      // plus an undecoded skeleton, so drop any columns queries have
      // materialized since the last pass (pinned readers keep theirs alive).
      handle->ShrinkWarm();
      ++warm;
      continue;
    }
    if (tier == SegmentTier::kWarm) {
      Status st = handle->DemoteToCold();
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  RefreshGauges();
  return first_error;
}

int64_t LifecycleManager::ManagedBytes() {
  int64_t total = 0;
  for (const std::shared_ptr<SegmentHandle>& handle : SnapshotLru()) {
    total += handle->ResidentBytes();
  }
  return total;
}

int64_t LifecycleManager::BudgetedBytes() {
  return ManagedBytes() + (external_bytes_fn_ ? external_bytes_fn_() : 0);
}

void LifecycleManager::RefreshGauges() {
  int64_t hot = 0, warm = 0, cold = 0;
  for (const std::shared_ptr<SegmentHandle>& handle : SnapshotLru()) {
    // tier() and the byte reads are two separate locks; a concurrent tier
    // flip can skew one handle's attribution for one refresh — gauges are
    // dashboards, not invariants.
    switch (handle->tier()) {
      case SegmentTier::kHot:
        hot += handle->ResidentBytes();
        break;
      case SegmentTier::kWarm:
        warm += handle->ResidentBytes();
        break;
      case SegmentTier::kCold:
        cold += handle->ColdBytes();
        break;
    }
  }
  hot_bytes_->Set(hot);
  warm_bytes_->Set(warm);
  cold_bytes_->Set(cold);
}

Result<std::string> LifecycleManager::LoadBlob(const std::string& key) {
  return store_retry_->RunResult<std::string>(
      [&]() -> Result<std::string> { return store_->Get(key); });
}

Status LifecycleManager::EnsureDurable(const std::string& key,
                                       const std::string& blob) {
  if (store_->Exists(key)) return Status::Ok();
  return store_retry_->Run([&] { return store_->Put(key, blob); });
}

}  // namespace uberrt::olap
