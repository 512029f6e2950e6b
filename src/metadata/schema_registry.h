#ifndef UBERRT_METADATA_SCHEMA_REGISTRY_H_
#define UBERRT_METADATA_SCHEMA_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace uberrt::metadata {

/// One registered schema version for a subject (topic or table name).
struct SchemaVersion {
  int version = 0;
  RowSchema schema;
};

/// Centralized metadata repository — the paper's "Metadata" layer
/// (Section 3) and the data-discovery source of truth of Section 9.4.
/// Stores versioned schemas per subject with backward-compatibility
/// enforcement, plus the data-lineage edges between datasets.
class SchemaRegistry {
 public:
  /// Registers a new schema version for `subject`.
  ///
  /// Backward compatibility (the Section 3 minimum requirement) means a
  /// reader with the new schema can read data written with the previous
  /// one: existing fields may not change type or be removed; new fields may
  /// only be appended. Returns FailedPrecondition when violated.
  /// Registering an identical schema is idempotent and returns the existing
  /// version number.
  Result<int> Register(const std::string& subject, const RowSchema& schema);

  /// Latest version for a subject, or NotFound.
  Result<SchemaVersion> GetLatest(const std::string& subject) const;

  /// Specific version, or NotFound.
  Result<SchemaVersion> GetVersion(const std::string& subject, int version) const;

  /// All subjects, sorted.
  std::vector<std::string> ListSubjects() const;

  /// Records that dataset `to` is derived from dataset `from` (e.g. a Flink
  /// job reading topic A and writing Pinot table B adds A -> B).
  void AddLineage(const std::string& from, const std::string& to);

  /// Downstream datasets reachable from `subject` (transitively, BFS order,
  /// deduplicated, excluding the subject itself).
  std::vector<std::string> Downstream(const std::string& subject) const;

  /// Direct upstream datasets of `subject`.
  std::vector<std::string> Upstream(const std::string& subject) const;

 private:
  static Status CompatibleStep(const RowSchema& old_schema, const RowSchema& new_schema);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<SchemaVersion>> subjects_;
  std::map<std::string, std::vector<std::string>> lineage_out_;
  std::map<std::string, std::vector<std::string>> lineage_in_;
};

}  // namespace uberrt::metadata

#endif  // UBERRT_METADATA_SCHEMA_REGISTRY_H_
