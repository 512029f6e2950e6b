#ifndef UBERRT_COMPUTE_JOB_GRAPH_H_
#define UBERRT_COMPUTE_JOB_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/aggregate.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/value.h"

namespace uberrt::compute {

/// Event-time window shape (Flink-style).
struct WindowSpec {
  enum class Type { kTumbling, kSliding, kSession };
  Type type = Type::kTumbling;
  int64_t size_ms = 60000;
  int64_t slide_ms = 0;  ///< sliding windows only
  int64_t gap_ms = 0;    ///< session windows only

  static WindowSpec Tumbling(int64_t size_ms) {
    WindowSpec w;
    w.type = Type::kTumbling;
    w.size_ms = size_ms;
    return w;
  }
  static WindowSpec Sliding(int64_t size_ms, int64_t slide_ms) {
    WindowSpec w;
    w.type = Type::kSliding;
    w.size_ms = size_ms;
    w.slide_ms = slide_ms;
    return w;
  }
  static WindowSpec Session(int64_t gap_ms) {
    WindowSpec w;
    w.type = Type::kSession;
    w.gap_ms = gap_ms;
    return w;
  }
};

/// One aggregation inside a window: the shared spec of common/aggregate.h.
using ::uberrt::AggregateSpec;

/// A stream source: a topic (or, for backfill, an archive table standing in
/// for the topic) plus how to extract event time from rows.
struct SourceSpec {
  std::string topic;
  RowSchema schema;
  /// Field carrying the event timestamp (ms). Empty -> ingestion time.
  std::string time_field;
  /// Bounded out-of-orderness watermark generator: watermark = max seen
  /// event time minus this slack.
  int64_t out_of_orderness_ms = 0;
  /// Emit a watermark every this many records.
  int64_t watermark_interval_records = 64;
};

/// One transformation stage.
struct TransformSpec {
  enum class Kind { kMap, kFilter, kFlatMap, kWindowAggregate, kWindowJoin };

  Kind kind = Kind::kMap;
  std::string name;
  int32_t parallelism = 1;

  // kMap / kFilter / kFlatMap.
  std::function<Row(const Row&)> map_fn;
  std::function<bool(const Row&)> filter_fn;
  std::function<std::vector<Row>(const Row&)> flatmap_fn;
  RowSchema output_schema;  ///< schema after this stage

  // kWindowAggregate / kWindowJoin.
  std::vector<std::string> key_fields;
  WindowSpec window;
  std::vector<AggregateSpec> aggregates;
  int64_t allowed_lateness_ms = 0;

  // kWindowJoin: key/time fields resolved against each side's schema.
  // Output schema is left fields then right fields (key fields deduped).
};

/// Where results go.
struct SinkSpec {
  enum class Kind { kTopic, kCollector };
  Kind kind = Kind::kCollector;
  std::string topic;
  /// Collector callback; must be thread-safe. Receives the output row and
  /// its event time.
  std::function<void(const Row&, TimestampMs)> collector;
};

/// Declarative dataflow description — what FlinkSQL compiles to and what
/// both the streaming runner and the Kappa+ backfill runner execute
/// (Section 7: "execute the same code ... on both streaming or batch data
/// sources"). One or two sources; with two sources the first transform must
/// be a window join.
class JobGraph {
 public:
  JobGraph() = default;
  explicit JobGraph(std::string job_name) : name_(std::move(job_name)) {}

  const std::string& name() const { return name_; }

  JobGraph& AddSource(SourceSpec source) {
    sources_.push_back(std::move(source));
    return *this;
  }

  JobGraph& Map(std::string name, std::function<Row(const Row&)> fn,
                RowSchema output_schema, int32_t parallelism = 1) {
    TransformSpec t;
    t.kind = TransformSpec::Kind::kMap;
    t.name = std::move(name);
    t.map_fn = std::move(fn);
    t.output_schema = std::move(output_schema);
    t.parallelism = parallelism;
    transforms_.push_back(std::move(t));
    return *this;
  }

  JobGraph& Filter(std::string name, std::function<bool(const Row&)> fn,
                   int32_t parallelism = 1) {
    TransformSpec t;
    t.kind = TransformSpec::Kind::kFilter;
    t.name = std::move(name);
    t.filter_fn = std::move(fn);
    t.parallelism = parallelism;
    transforms_.push_back(std::move(t));
    return *this;
  }

  JobGraph& FlatMap(std::string name, std::function<std::vector<Row>(const Row&)> fn,
                    RowSchema output_schema, int32_t parallelism = 1) {
    TransformSpec t;
    t.kind = TransformSpec::Kind::kFlatMap;
    t.name = std::move(name);
    t.flatmap_fn = std::move(fn);
    t.output_schema = std::move(output_schema);
    t.parallelism = parallelism;
    transforms_.push_back(std::move(t));
    return *this;
  }

  /// Keyed event-time windowed aggregation. Output schema: key fields,
  /// then "window_start" (INT, ms), then one column per aggregate.
  JobGraph& WindowAggregate(std::string name, std::vector<std::string> key_fields,
                            WindowSpec window, std::vector<AggregateSpec> aggregates,
                            int64_t allowed_lateness_ms = 0, int32_t parallelism = 1) {
    TransformSpec t;
    t.kind = TransformSpec::Kind::kWindowAggregate;
    t.name = std::move(name);
    t.key_fields = std::move(key_fields);
    t.window = window;
    t.aggregates = std::move(aggregates);
    t.allowed_lateness_ms = allowed_lateness_ms;
    t.parallelism = parallelism;
    transforms_.push_back(std::move(t));
    return *this;
  }

  /// Keyed tumbling-window stream-stream join of the two sources; must be
  /// the first transform of a two-source graph. Output: left row fields
  /// followed by right row fields.
  JobGraph& WindowJoin(std::string name, std::vector<std::string> key_fields,
                       WindowSpec window, int64_t allowed_lateness_ms = 0,
                       int32_t parallelism = 1) {
    TransformSpec t;
    t.kind = TransformSpec::Kind::kWindowJoin;
    t.name = std::move(name);
    t.key_fields = std::move(key_fields);
    t.window = window;
    t.allowed_lateness_ms = allowed_lateness_ms;
    t.parallelism = parallelism;
    transforms_.push_back(std::move(t));
    return *this;
  }

  JobGraph& SinkToTopic(std::string topic) {
    sink_.kind = SinkSpec::Kind::kTopic;
    sink_.topic = std::move(topic);
    return *this;
  }

  JobGraph& SinkToCollector(std::function<void(const Row&, TimestampMs)> fn) {
    sink_.kind = SinkSpec::Kind::kCollector;
    sink_.collector = std::move(fn);
    return *this;
  }

  const std::vector<SourceSpec>& sources() const { return sources_; }
  const std::vector<TransformSpec>& transforms() const { return transforms_; }
  const SinkSpec& sink() const { return sink_; }

  /// Schema of rows leaving the given transform (resolving window/join
  /// output schemas). `index == -1` gives the (first) source schema.
  RowSchema SchemaAfter(int index) const;

  /// Structural validation (source present, join arity, fields resolvable).
  Status Validate() const;

  /// True when the graph keeps keyed window state (join or window
  /// aggregation) — the memory-bound job class of Section 4.2.1, vs the
  /// CPU-bound stateless class.
  bool IsStateful() const;

  /// Copy with source `index` replaced — how backfill re-points a job at a
  /// replay topic without touching its logic (Section 7).
  JobGraph WithSource(size_t index, SourceSpec source) const {
    JobGraph copy = *this;
    if (index < copy.sources_.size()) copy.sources_[index] = std::move(source);
    return copy;
  }

  /// Copy renamed (checkpoints are namespaced by job name).
  JobGraph WithName(std::string job_name) const {
    JobGraph copy = *this;
    copy.name_ = std::move(job_name);
    return copy;
  }

  /// Copy with every transform's parallelism set — the job manager's
  /// auto-scaling lever (Section 4.2.1).
  JobGraph WithParallelism(int32_t parallelism) const {
    JobGraph copy = *this;
    for (TransformSpec& t : copy.transforms_) t.parallelism = parallelism;
    return copy;
  }

 private:
  std::string name_ = "job";
  std::vector<SourceSpec> sources_;
  std::vector<TransformSpec> transforms_;
  SinkSpec sink_;
};

/// Output schema of a window aggregation given input schema and spec.
RowSchema WindowAggregateOutputSchema(const RowSchema& input,
                                      const std::vector<std::string>& key_fields,
                                      const std::vector<AggregateSpec>& aggregates);

/// Output schema of a window join of two inputs.
RowSchema WindowJoinOutputSchema(const RowSchema& left, const RowSchema& right);

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_JOB_GRAPH_H_
