#ifndef UBERRT_COMPUTE_CHECKPOINT_H_
#define UBERRT_COMPUTE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "storage/object_store.h"

namespace uberrt::compute {

/// One job checkpoint: a flat key/value snapshot holding every source's
/// per-partition offsets and every operator instance's serialized state.
/// Keys: "source.<source_index>.<partition>" -> offset (decimal string),
///       "op.<stage>.<instance>"             -> operator state blob.
///
/// Checkpoints are what let Flink jobs at Uber recover from failures and
/// restart with state (Section 4.2); they are persisted to the archival
/// store exactly as Flink persists to HDFS (Section 4.4).
struct CheckpointData {
  int64_t sequence = 0;
  std::map<std::string, std::string> entries;

  std::string Encode() const;
  static Result<CheckpointData> Decode(const std::string& blob);
};

/// Persists/loads checkpoints under "checkpoints/<job>/chk-<seq>", tracking
/// the latest sequence in "checkpoints/<job>/LATEST". Only the checkpoint
/// LATEST names is retained (Flink's default of one): once a save has moved
/// LATEST, it deletes the job's other chk-* blobs. A delete that fails never
/// fails the save; the next save collects the leftover blob.
class CheckpointStore {
 public:
  CheckpointStore(storage::ObjectStore* store, const std::string& job);

  Status Save(const CheckpointData& data);
  Result<CheckpointData> Load(int64_t sequence) const;
  /// Latest sequence, or NotFound when no checkpoint exists.
  Result<int64_t> LatestSequence() const;
  Result<CheckpointData> LoadLatest() const;

 private:
  std::string Key(int64_t sequence) const;

  storage::ObjectStore* store_;
  std::string dir_;  ///< "checkpoints/<job>/"
};

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_CHECKPOINT_H_
