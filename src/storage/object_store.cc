#include "storage/object_store.h"

namespace uberrt::storage {

InMemoryObjectStore::InMemoryObjectStore()
    : puts_(metrics_.GetCounter("storage.puts")),
      gets_(metrics_.GetCounter("storage.gets")),
      bytes_written_(metrics_.GetCounter("storage.bytes_written")),
      unavailable_errors_(metrics_.GetCounter("storage.unavailable_errors")) {}

Status InMemoryObjectStore::CheckAvailable(const char* site) const {
  if (faults_ == nullptr) return Status::Ok();
  Status injected = faults_->Check(site);
  if (!injected.ok()) unavailable_errors_->Increment();
  return injected;
}

Status InMemoryObjectStore::Put(const std::string& key, const std::string& data) {
  UBERRT_RETURN_IF_ERROR(CheckAvailable("store.put"));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    total_bytes_ -= static_cast<int64_t>(it->second.size());
    it->second = data;
  } else {
    objects_.emplace(key, data);
  }
  total_bytes_ += static_cast<int64_t>(data.size());
  puts_->Increment();
  bytes_written_->Increment(static_cast<int64_t>(data.size()));
  return Status::Ok();
}

Result<std::string> InMemoryObjectStore::Get(const std::string& key) const {
  UBERRT_RETURN_IF_ERROR(CheckAvailable("store.get"));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no object: " + key);
  gets_->Increment();
  return it->second;
}

Status InMemoryObjectStore::Delete(const std::string& key) {
  UBERRT_RETURN_IF_ERROR(CheckAvailable("store.delete"));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no object: " + key);
  total_bytes_ -= static_cast<int64_t>(it->second.size());
  objects_.erase(it);
  return Status::Ok();
}

bool InMemoryObjectStore::Exists(const std::string& key) const {
  if (faults_ != nullptr && faults_->IsDown("store")) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.count(key) > 0;
}

std::vector<std::string> InMemoryObjectStore::List(const std::string& prefix) const {
  std::vector<std::string> out;
  if (faults_ != nullptr && faults_->IsDown("store")) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

int64_t InMemoryObjectStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

}  // namespace uberrt::storage
