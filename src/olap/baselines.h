#ifndef UBERRT_OLAP_BASELINES_H_
#define UBERRT_OLAP_BASELINES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "olap/query.h"
#include "olap/segment.h"

namespace uberrt::olap {

/// Elasticsearch-like document store baseline for the Section 4.3
/// comparison ("Elasticsearch's memory usage was 4x higher and disk usage
/// was 8x higher than Pinot ... query latency was 2x-4x higher").
///
/// Models the cost structure that drives those ratios:
///  - every document is retained as its JSON source (field names repeated
///    per document), as ES stores `_source`;
///  - every field is term-indexed (postings per distinct value per field),
///    as ES indexes all fields by default;
///  - aggregations and grouping read per-document "fielddata" arrays,
///    materialized lazily per field and kept on heap.
/// Query semantics match the OlapQuery subset so identical workloads run on
/// both stores.
class EsLikeStore {
 public:
  explicit EsLikeStore(RowSchema schema);

  Status Ingest(const Row& row);

  Result<OlapResult> Query(const OlapQuery& query) const;

  /// Heap footprint: source docs + postings + materialized fielddata.
  int64_t MemoryBytes() const;
  /// On-disk footprint: source docs + serialized postings.
  int64_t DiskBytes() const;

 private:
  Result<std::vector<uint32_t>> FilterDocs(const std::vector<FilterPredicate>& preds,
                                           bool* all) const;
  const std::vector<Value>& Fielddata(int field_index) const;

  RowSchema schema_;
  std::vector<std::string> docs_;  ///< JSON source per document
  /// Per field: ordered term -> doc ids ("index everything").
  std::vector<std::map<Value, std::vector<uint32_t>>> postings_;
  /// Lazily materialized column views used by aggregations (ES fielddata /
  /// doc_values loaded to heap).
  mutable std::vector<std::vector<Value>> fielddata_;
  mutable int64_t fielddata_bytes_ = 0;
  int64_t docs_bytes_ = 0;
  int64_t postings_bytes_ = 0;
};

/// Index configuration for the Druid-like baseline of Section 4.3: same
/// dictionary + inverted architecture as Pinot but without the bit-packed
/// forward index, star-tree, sorted or range specializations.
SegmentIndexConfig DruidLikeIndexConfig(const std::vector<std::string>& inverted_columns);

/// Runs `query` on `segment` through the row-at-a-time scalar engine
/// (the pre-vectorization execution path, kept as the parity oracle). Used
/// by the benches as the "scalar" engine under identical storage so the
/// vectorized speedup is isolated from index/layout effects.
Result<OlapResult> ScalarBaselineExecute(const Segment& segment, OlapQuery query,
                                         OlapQueryStats* stats);

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_BASELINES_H_
