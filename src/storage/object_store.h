#ifndef UBERRT_STORAGE_OBJECT_STORE_H_
#define UBERRT_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/status.h"

namespace uberrt::storage {

/// Blob store interface — the paper's "Storage" layer (Section 3) and the
/// role HDFS/S3/GCS play in Section 4.4: long-term archival for raw Kafka
/// logs, Flink checkpoints and Pinot segments, with read-after-write
/// consistency and a write-optimized access pattern.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Writes (or overwrites) the object at `key`. Read-after-write: a
  /// subsequent Get on any thread sees this data.
  virtual Status Put(const std::string& key, const std::string& data) = 0;

  /// Reads the object. NotFound if absent, Unavailable during outages.
  virtual Result<std::string> Get(const std::string& key) const = 0;

  virtual Status Delete(const std::string& key) = 0;
  virtual bool Exists(const std::string& key) const = 0;

  /// Keys with the given prefix, sorted. Used for directory-style listing
  /// of checkpoints and segment archives.
  virtual std::vector<std::string> List(const std::string& prefix) const = 0;

  /// Total bytes currently stored. Drives the disk-footprint comparisons.
  virtual int64_t TotalBytes() const = 0;
};

/// Behaviour knobs for the in-memory store: injected latency models the
/// network hop to a remote archival cluster. Outages (the HDFS outages that
/// motivated peer-to-peer segment recovery, Section 4.3.4) are scripted on
/// the fault plane: SetDown("store") fails every operation.
struct ObjectStoreOptions {
  int64_t put_latency_ms = 0;
  int64_t get_latency_ms = 0;
};

/// In-memory object store with failure injection.
class InMemoryObjectStore : public ObjectStore {
 public:
  explicit InMemoryObjectStore(ObjectStoreOptions options = {},
                               Clock* clock = SystemClock::Instance());

  Status Put(const std::string& key, const std::string& data) override;
  Result<std::string> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) const override;
  std::vector<std::string> List(const std::string& prefix) const override;
  int64_t TotalBytes() const override;

  /// Attaches the process-wide fault plane. Put/Get/Delete consult
  /// Check("store.<op>"), Exists/List consult IsDown("store"). Pass nullptr
  /// to detach. Not synchronized with in-flight operations: attach before
  /// sharing the store across threads.
  void SetFaultInjector(common::FaultInjector* faults) { faults_ = faults; }

  /// Operation counters (puts/gets/failures), for the recovery benches.
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry* mutable_metrics() { return &metrics_; }

 private:
  Status CheckAvailable(const char* site) const;

  ObjectStoreOptions options_;
  Clock* clock_;
  common::FaultInjector* faults_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::string, std::string> objects_;
  int64_t total_bytes_ = 0;
  mutable MetricsRegistry metrics_;
  // Handles resolved once at construction: the per-op registry lookup (map
  // lock + string hash) would otherwise sit on the Put/Get hot path.
  Counter* puts_;
  Counter* gets_;
  Counter* bytes_written_;
  Counter* unavailable_errors_;
};

}  // namespace uberrt::storage

#endif  // UBERRT_STORAGE_OBJECT_STORE_H_
