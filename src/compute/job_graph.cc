#include "compute/job_graph.h"

namespace uberrt::compute {

RowSchema WindowAggregateOutputSchema(const RowSchema& input,
                                      const std::vector<std::string>& key_fields,
                                      const std::vector<AggregateSpec>& aggregates) {
  std::vector<FieldSpec> fields;
  for (const std::string& key : key_fields) {
    int idx = input.FieldIndex(key);
    fields.push_back({key, idx >= 0 ? input.fields()[static_cast<size_t>(idx)].type
                                    : ValueType::kString});
  }
  fields.push_back({"window_start", ValueType::kInt});
  for (const AggregateSpec& agg : aggregates) {
    fields.push_back({agg.output_name, agg.ResultType()});
  }
  return RowSchema(fields);
}

RowSchema WindowJoinOutputSchema(const RowSchema& left, const RowSchema& right) {
  std::vector<FieldSpec> fields = left.fields();
  for (const FieldSpec& f : right.fields()) {
    // Dedup identically-named fields (typically the join key).
    bool exists = false;
    for (const FieldSpec& existing : fields) {
      if (existing.name == f.name) {
        exists = true;
        break;
      }
    }
    if (!exists) fields.push_back(f);
  }
  return RowSchema(fields);
}

RowSchema JobGraph::SchemaAfter(int index) const {
  RowSchema schema = sources_.empty() ? RowSchema() : sources_[0].schema;
  for (int i = 0; i <= index && i < static_cast<int>(transforms_.size()); ++i) {
    const TransformSpec& t = transforms_[static_cast<size_t>(i)];
    switch (t.kind) {
      case TransformSpec::Kind::kMap:
      case TransformSpec::Kind::kFlatMap:
        schema = t.output_schema;
        break;
      case TransformSpec::Kind::kFilter:
        break;  // schema unchanged
      case TransformSpec::Kind::kWindowAggregate:
        schema = WindowAggregateOutputSchema(schema, t.key_fields, t.aggregates);
        break;
      case TransformSpec::Kind::kWindowJoin:
        schema = WindowJoinOutputSchema(sources_[0].schema, sources_[1].schema);
        break;
    }
  }
  return schema;
}

Status JobGraph::Validate() const {
  if (sources_.empty()) return Status::InvalidArgument("job has no source");
  if (sources_.size() > 2) return Status::InvalidArgument("at most two sources");
  if (sources_.size() == 2) {
    if (transforms_.empty() ||
        transforms_[0].kind != TransformSpec::Kind::kWindowJoin) {
      return Status::InvalidArgument(
          "two-source job must start with a window join");
    }
  }
  for (const SourceSpec& s : sources_) {
    if (s.topic.empty()) return Status::InvalidArgument("source topic empty");
    if (s.schema.NumFields() == 0) return Status::InvalidArgument("source schema empty");
    if (!s.time_field.empty() && !s.schema.HasField(s.time_field)) {
      return Status::InvalidArgument("time field '" + s.time_field +
                                     "' not in source schema");
    }
  }
  RowSchema schema = sources_[0].schema;
  for (size_t i = 0; i < transforms_.size(); ++i) {
    const TransformSpec& t = transforms_[i];
    if (t.parallelism <= 0) return Status::InvalidArgument("parallelism must be >= 1");
    switch (t.kind) {
      case TransformSpec::Kind::kMap:
        if (!t.map_fn) return Status::InvalidArgument(t.name + ": map fn missing");
        break;
      case TransformSpec::Kind::kFilter:
        if (!t.filter_fn) return Status::InvalidArgument(t.name + ": filter fn missing");
        break;
      case TransformSpec::Kind::kFlatMap:
        if (!t.flatmap_fn) return Status::InvalidArgument(t.name + ": flatmap fn missing");
        break;
      case TransformSpec::Kind::kWindowAggregate: {
        for (const std::string& key : t.key_fields) {
          if (!schema.HasField(key)) {
            return Status::InvalidArgument(t.name + ": key field '" + key +
                                           "' not in input schema " + schema.ToString());
          }
        }
        for (const AggregateSpec& agg : t.aggregates) {
          if (agg.kind != AggregateSpec::Kind::kCount && !schema.HasField(agg.field)) {
            return Status::InvalidArgument(t.name + ": aggregate field '" + agg.field +
                                           "' not in input schema");
          }
        }
        if (t.window.type == WindowSpec::Type::kSliding && t.window.slide_ms <= 0) {
          return Status::InvalidArgument(t.name + ": sliding window needs slide_ms");
        }
        if (t.window.type == WindowSpec::Type::kSession && t.window.gap_ms <= 0) {
          return Status::InvalidArgument(t.name + ": session window needs gap_ms");
        }
        break;
      }
      case TransformSpec::Kind::kWindowJoin: {
        if (i != 0 || sources_.size() != 2) {
          return Status::InvalidArgument("window join must be first, with two sources");
        }
        for (const std::string& key : t.key_fields) {
          if (!sources_[0].schema.HasField(key) || !sources_[1].schema.HasField(key)) {
            return Status::InvalidArgument(t.name + ": join key '" + key +
                                           "' missing from one side");
          }
        }
        break;
      }
    }
    schema = SchemaAfter(static_cast<int>(i));
  }
  return Status::Ok();
}

bool JobGraph::IsStateful() const {
  for (const TransformSpec& t : transforms_) {
    if (t.kind == TransformSpec::Kind::kWindowAggregate ||
        t.kind == TransformSpec::Kind::kWindowJoin) {
      return true;
    }
  }
  return false;
}

}  // namespace uberrt::compute
