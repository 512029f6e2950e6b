#ifndef UBERRT_COMPUTE_OPERATOR_H_
#define UBERRT_COMPUTE_OPERATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/value.h"
#include "compute/element.h"
#include "compute/job_graph.h"

namespace uberrt::compute {

/// Downstream output of an operator instance. Implementations partition to
/// the next stage's instances and do in-flight accounting.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(Row row, TimestampMs event_time) = 0;
};

/// One parallel instance of a transformation. Driven by one runner task at
/// a time, so implementations need no internal locking; state snapshots are
/// taken on that same task when the instance aligns on a checkpoint barrier.
class OperatorInstance {
 public:
  virtual ~OperatorInstance() = default;

  /// Processes one data record. `element.side` distinguishes join inputs.
  virtual void ProcessRecord(const Element& element, Emitter* out) = 0;

  /// Processes a contiguous run of data records (no watermarks/ends). The
  /// default is the per-record loop; vectorizable operators override to
  /// amortize per-record overheads (virtual dispatch, key-scratch setup)
  /// across the run. The runner splits channel batches into record runs and
  /// control elements, so overrides never see non-records.
  virtual void ProcessBatch(const Element* elements, size_t count, Emitter* out) {
    for (size_t i = 0; i < count; ++i) ProcessRecord(elements[i], out);
  }

  /// Called when the instance's aligned watermark (min across input
  /// channels) advances. Window operators fire here.
  virtual void OnWatermark(TimestampMs watermark, Emitter* out) {
    (void)watermark;
    (void)out;
  }

  /// Keyed-state snapshot for checkpoints; empty for stateless operators.
  virtual std::string SnapshotState() const { return {}; }
  virtual Status RestoreState(const std::string& blob) {
    (void)blob;
    return Status::Ok();
  }

  /// Approximate bytes of retained state (drives the memory-profile
  /// comparisons of Sections 4.2 / 4.2.1).
  virtual int64_t StateBytes() const { return 0; }

  /// Records dropped for arriving later than allowed lateness.
  virtual int64_t late_dropped() const { return 0; }
};

/// Builds the instance for `spec`. `input` is the schema entering the
/// stage; for window joins, `left`/`right` are the two source schemas and
/// `input` is ignored.
std::unique_ptr<OperatorInstance> CreateOperatorInstance(const TransformSpec& spec,
                                                         const RowSchema& input,
                                                         const RowSchema& left,
                                                         const RowSchema& right);

/// True for the stateless record transforms (map/filter/flatmap) that are
/// eligible for operator chaining — they keep no keyed state, need no keyed
/// partitioning of their input, and snapshot nothing.
bool IsStatelessTransform(const TransformSpec& spec);

/// Fuses consecutive stateless transforms into one instance (Flink task
/// chaining, Section 4.2): records flow through the chain as local calls
/// with zero intermediate channel hops. `specs` must all satisfy
/// IsStatelessTransform and share one parallelism.
std::unique_ptr<OperatorInstance> CreateChainedOperatorInstance(
    std::vector<TransformSpec> specs);

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_OPERATOR_H_
