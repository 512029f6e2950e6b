#include "olap/baselines.h"

#include <algorithm>

#include "olap/cluster.h"
#include "olap/table.h"

namespace uberrt::olap {

namespace {

std::string ToJsonDoc(const RowSchema& schema, const Row& row) {
  std::string doc = "{";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) doc += ",";
    doc += "\"" + schema.fields()[i].name + "\":";
    if (row[i].type() == ValueType::kString) {
      doc += "\"" + row[i].AsString() + "\"";
    } else {
      doc += row[i].ToString();
    }
  }
  doc += "}";
  return doc;
}

int64_t ValueBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.type() == ValueType::kString) bytes += static_cast<int64_t>(v.AsString().size());
  return bytes;
}

}  // namespace

EsLikeStore::EsLikeStore(RowSchema schema) : schema_(std::move(schema)) {
  postings_.resize(schema_.NumFields());
  fielddata_.resize(schema_.NumFields());
}

Status EsLikeStore::Ingest(const Row& row) {
  if (row.size() != schema_.NumFields()) {
    return Status::InvalidArgument("row width mismatch");
  }
  uint32_t doc_id = static_cast<uint32_t>(docs_.size());
  std::string doc = ToJsonDoc(schema_, row);
  docs_bytes_ += static_cast<int64_t>(doc.size()) + 32;
  docs_.push_back(std::move(doc));
  for (size_t f = 0; f < row.size(); ++f) {
    auto [it, inserted] = postings_[f].try_emplace(row[f]);
    if (inserted) postings_bytes_ += ValueBytes(row[f]) + 48;
    it->second.push_back(doc_id);
    postings_bytes_ += 4;
    // Keep already-materialized fielddata arrays in sync.
    if (fielddata_[f].size() == static_cast<size_t>(doc_id) && doc_id > 0) {
      fielddata_[f].push_back(row[f]);
      fielddata_bytes_ += ValueBytes(row[f]);
    }
  }
  return Status::Ok();
}

const std::vector<Value>& EsLikeStore::Fielddata(int field_index) const {
  std::vector<Value>& data = fielddata_[static_cast<size_t>(field_index)];
  if (data.size() == docs_.size()) return data;
  // Materialize from postings (uninverting, as ES fielddata does).
  data.assign(docs_.size(), Value::Null());
  for (const auto& [term, doc_ids] : postings_[static_cast<size_t>(field_index)]) {
    for (uint32_t d : doc_ids) {
      data[d] = term;
      fielddata_bytes_ += ValueBytes(term);
    }
  }
  return data;
}

Result<std::vector<uint32_t>> EsLikeStore::FilterDocs(
    const std::vector<FilterPredicate>& preds, bool* all) const {
  *all = preds.empty();
  if (*all) return std::vector<uint32_t>{};
  std::vector<uint32_t> candidates;
  bool have = false;
  for (const FilterPredicate& pred : preds) {
    int idx = schema_.FieldIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.column);
    const auto& terms = postings_[static_cast<size_t>(idx)];
    std::vector<uint32_t> matched;
    auto add_range = [&](auto begin, auto end) {
      for (auto it = begin; it != end; ++it) {
        matched.insert(matched.end(), it->second.begin(), it->second.end());
      }
    };
    switch (pred.op) {
      case FilterPredicate::Op::kEq: {
        auto it = terms.find(pred.value);
        if (it != terms.end()) matched = it->second;
        break;
      }
      case FilterPredicate::Op::kNe: {
        for (const auto& [term, ids] : terms) {
          if (!(term < pred.value) && !(pred.value < term)) continue;
          matched.insert(matched.end(), ids.begin(), ids.end());
        }
        break;
      }
      case FilterPredicate::Op::kLt:
        add_range(terms.begin(), terms.lower_bound(pred.value));
        break;
      case FilterPredicate::Op::kLe:
        add_range(terms.begin(), terms.upper_bound(pred.value));
        break;
      case FilterPredicate::Op::kGt:
        add_range(terms.upper_bound(pred.value), terms.end());
        break;
      case FilterPredicate::Op::kGe:
        add_range(terms.lower_bound(pred.value), terms.end());
        break;
    }
    std::sort(matched.begin(), matched.end());
    if (!have) {
      candidates = std::move(matched);
      have = true;
    } else {
      std::vector<uint32_t> merged;
      std::set_intersection(candidates.begin(), candidates.end(), matched.begin(),
                            matched.end(), std::back_inserter(merged));
      candidates = std::move(merged);
    }
    if (candidates.empty()) break;
  }
  return candidates;
}

Result<OlapResult> EsLikeStore::Query(const OlapQuery& query) const {
  bool all = false;
  Result<std::vector<uint32_t>> docs = FilterDocs(query.filters, &all);
  if (!docs.ok()) return docs.status();

  std::vector<Row> partials;
  if (!query.aggregations.empty()) {
    std::vector<const std::vector<Value>*> group_data;
    for (const std::string& g : query.group_by) {
      int idx = schema_.FieldIndex(g);
      if (idx < 0) return Status::InvalidArgument("unknown group column: " + g);
      group_data.push_back(&Fielddata(idx));
    }
    std::vector<const std::vector<Value>*> agg_data(query.aggregations.size(), nullptr);
    for (size_t a = 0; a < query.aggregations.size(); ++a) {
      if (query.aggregations[a].field.empty()) continue;
      int idx = schema_.FieldIndex(query.aggregations[a].field);
      if (idx < 0) return Status::InvalidArgument("unknown aggregate column");
      agg_data[a] = &Fielddata(idx);
    }
    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    auto process = [&](uint32_t d) {
      std::string key;
      for (const auto* data : group_data) {
        key.append((*data)[d].ToString());
        key.push_back('\0');
      }
      GroupEntry& entry = groups[key];
      if (entry.accs.empty()) {
        entry.accs.resize(query.aggregations.size());
        for (const auto* data : group_data) entry.key_values.push_back((*data)[d]);
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        entry.accs[a].Add(agg_data[a] != nullptr ? (*agg_data[a])[d].ToNumeric() : 0.0);
      }
    };
    if (all) {
      for (uint32_t d = 0; d < docs_.size(); ++d) process(d);
    } else {
      for (uint32_t d : docs.value()) process(d);
    }
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (const AggAccumulator& acc : entry.accs) AppendAccumulator(&row, acc);
      partials.push_back(std::move(row));
    }
  } else {
    std::vector<const std::vector<Value>*> select_data;
    for (const std::string& s : query.select_columns) {
      int idx = schema_.FieldIndex(s);
      if (idx < 0) return Status::InvalidArgument("unknown column: " + s);
      select_data.push_back(&Fielddata(idx));
    }
    auto emit = [&](uint32_t d) {
      Row row;
      for (const auto* data : select_data) row.push_back((*data)[d]);
      partials.push_back(std::move(row));
    };
    if (all) {
      for (uint32_t d = 0; d < docs_.size(); ++d) emit(d);
    } else {
      for (uint32_t d : docs.value()) emit(d);
    }
  }
  return MergeAndFinalize(query, schema_, std::move(partials));
}

int64_t EsLikeStore::MemoryBytes() const {
  return docs_bytes_ + postings_bytes_ + fielddata_bytes_;
}

int64_t EsLikeStore::DiskBytes() const { return docs_bytes_ + postings_bytes_; }

SegmentIndexConfig DruidLikeIndexConfig(const std::vector<std::string>& inverted_columns) {
  SegmentIndexConfig config;
  config.inverted_columns = inverted_columns;
  config.bit_packed_forward_index = false;
  return config;
}

Result<OlapResult> ScalarBaselineExecute(const Segment& segment, OlapQuery query,
                                         OlapQueryStats* stats) {
  query.force_scalar = true;
  return segment.Execute(query, /*validity=*/nullptr, stats);
}

}  // namespace uberrt::olap
