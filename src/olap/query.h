#ifndef UBERRT_OLAP_QUERY_H_
#define UBERRT_OLAP_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aggregate.h"
#include "common/clock.h"
#include "common/value.h"

namespace uberrt::olap {

/// One ANDed predicate of an OLAP filter.
struct FilterPredicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string column;
  Op op = Op::kEq;
  Value value;

  static FilterPredicate Eq(std::string column, Value v) {
    return {std::move(column), Op::kEq, std::move(v)};
  }
  static FilterPredicate Range(std::string column, Op op, Value v) {
    return {std::move(column), op, std::move(v)};
  }
};

/// Aggregation requested from the OLAP layer: the shared spec of
/// common/aggregate.h (`field` is the aggregated column).
using OlapAggregation = AggregateSpec;

/// The limited-SQL query shape the OLAP layer serves (paper Section 3,
/// "OLAP"): filters, aggregations, group by, order by, limit — but no joins
/// or subqueries (those belong to the SQL layer on top, Section 4.3.2).
struct OlapQuery {
  /// Raw selection mode: project these columns (empty + no aggregations is
  /// invalid). Mutually exclusive with aggregations.
  std::vector<std::string> select_columns;
  /// Segments return *partial* rows — group values followed by one
  /// accumulator (AppendAccumulator layout) per aggregation — which the
  /// broker merges across segments and servers and then finishes
  /// (scatter-gather-merge, Section 4.3).
  std::vector<AggregateSpec> aggregations;
  std::vector<FilterPredicate> filters;  ///< ANDed
  std::vector<std::string> group_by;
  /// Output column to order by ("" = none).
  std::string order_by;
  bool order_desc = true;
  int64_t limit = -1;  ///< -1 = unlimited
  /// Degraded-mode switch: when true, a server whose sub-query still fails
  /// after retries is dropped from the gather (stats.servers_failed counts
  /// it) instead of failing the whole query. Default keeps strict semantics.
  bool allow_partial = false;
  /// Debug oracle: bypass the vectorized engine AND the star-tree and run
  /// the row-at-a-time scalar path (per-value forward-index reads, boxed
  /// Values, map-keyed groups). Kept compiled-in forever so the parity fuzz
  /// can diff the vectorized engine against it on any query.
  bool force_scalar = false;
  /// Dashboard-path switch: serve this query from the broker's per-table
  /// result cache when a fresh entry exists (invalidated per partition on
  /// ingest/seal/kill/recover). Off by default so one-shot queries and the
  /// stats-asserting tests see real executions.
  bool use_cache = false;
};

/// Canonical cache key for a query: identical semantics -> identical key
/// (filters are order-insensitive because they are ANDed, so they are
/// sorted; values use the typed EncodeRow bytes, never ToString). The table
/// name is NOT part of the key — the cache itself is per-table.
std::string CanonicalQueryKey(const OlapQuery& query);

/// Per-query execution statistics (observability + bench assertions).
struct OlapQueryStats {
  int64_t segments_scanned = 0;
  int64_t segments_pruned = 0;   ///< sealed segments skipped by zone-map/time pruning
  int64_t rows_scanned = 0;      ///< rows visited by scans (0 for pure index hits)
  int64_t star_tree_hits = 0;    ///< segments answered from the star-tree
  int64_t servers_queried = 0;
  int64_t servers_failed = 0;    ///< sub-queries dropped (allow_partial only)
  int64_t exec_batches = 0;      ///< non-empty row batches the vectorized engine ran
  int64_t bitmap_words = 0;      ///< words touched by selection-bitmap kernels
  int64_t segments_hot = 0;      ///< morsels served from fully decoded segments
  int64_t segments_warm = 0;     ///< morsels served from packed (lazy) segments
  int64_t segments_cold = 0;     ///< morsels that reloaded a segment from the store
  int64_t columns_materialized = 0;  ///< lazy column decodes this query triggered
  bool from_cache = false;       ///< answered from the broker result cache
};

struct OlapResult {
  RowSchema schema;
  std::vector<Row> rows;
  OlapQueryStats stats;
};

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_QUERY_H_
