#ifndef UBERRT_OLAP_SEGMENT_H_
#define UBERRT_OLAP_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "olap/bitmap.h"
#include "olap/query.h"

namespace uberrt::olap {

/// Bit-packed unsigned integer vector: n values of ceil(log2(cardinality))
/// bits each — Pinot's "bit compressed forward indices" that the paper
/// credits for its small footprint versus Druid (Section 4.3).
class BitPackedVector {
 public:
  BitPackedVector() = default;
  /// Packs `values`, sizing cells for `max_value`.
  BitPackedVector(const std::vector<uint32_t>& values, uint32_t max_value);

  /// Adopts an already-packed word array (deserialization fast path — no
  /// unpack/repack round trip). `bits` must be in [1, 32] and `words` must
  /// hold exactly ceil(size*bits/64) entries.
  static Result<BitPackedVector> FromWords(int bits, size_t size,
                                           std::vector<uint64_t> words);

  uint32_t Get(size_t index) const;
  /// Batch decoder: writes `count` dict ids starting at row `start` into
  /// `out`. One pass over the underlying words instead of per-value bit
  /// arithmetic; the vectorized engine calls this with 1-4K rows at a time
  /// into a reusable buffer (also used by index rebuild and blob
  /// validation on deserialize).
  void Unpack(size_t start, size_t count, uint32_t* out) const;
  size_t size() const { return size_; }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t)) + 24;
  }
  int bits_per_value() const { return bits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  int bits_ = 1;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Per-column index configuration (paper Section 4.3: inverted, range,
/// sorted and star-tree indexes).
struct SegmentIndexConfig {
  std::vector<std::string> inverted_columns;
  /// At most one; rows are sorted by it at build time, giving contiguous
  /// row ranges per value (and for value ranges).
  std::string sorted_column;
  /// Star-tree pre-aggregation: split-order dimensions and metric columns.
  /// Aggregates per dimension-prefix combination; answers filter/group-by
  /// queries that touch only these dimensions in O(cube) instead of O(rows).
  std::vector<std::string> star_tree_dimensions;
  std::vector<std::string> star_tree_metrics;
  /// Disable to emulate plain 32-bit forward indexes (Druid-like baseline).
  bool bit_packed_forward_index = true;
};

/// Always-resident pruning metadata for a segment whose columns may not be
/// decoded (warm tier) or not in memory at all (cold tier): per-column
/// min/max plus the bloom membership words, detached from the segment so
/// `PlanMorsels` prunes demoted segments without materializing them. Built
/// once at seal from the hot segment's zone maps. Strictly conservative
/// relative to Segment::CanMatch: equality has no exact dictionary
/// backstop, so a bloom false positive scans a segment the hot check would
/// have skipped — never the reverse.
class SegmentPruneInfo {
 public:
  struct ColumnPrune {
    std::string name;
    ValueType type = ValueType::kNull;
    bool any_rows = false;
    Value min;
    Value max;
    std::vector<uint64_t> bloom;  ///< empty = no bloom (low cardinality)
    uint64_t bloom_mask = 0;
  };

  SegmentPruneInfo() = default;
  explicit SegmentPruneInfo(std::vector<ColumnPrune> columns)
      : columns_(std::move(columns)) {}

  /// False means no row can satisfy `pred` (safe to skip the segment).
  bool CanMatch(const FilterPredicate& pred) const;

  int64_t MemoryBytes() const;
  bool empty() const { return columns_.empty(); }

 private:
  std::vector<ColumnPrune> columns_;
};

/// Columnar segment: dictionary-encoded columns with a bit-packed forward
/// index and the optional indexes above, served concurrently (read-only).
///
/// Every segment starts *consuming* (paper Section 4.3: realtime servers
/// answer queries from the segment while it fills). A consuming segment
/// grows one row at a time: each column keeps an append-only dictionary in
/// first-seen order, a value -> id hash index and a plain u32 id forward
/// index, so Append costs one hash probe per column. Seal sorts each
/// dictionary, remaps and bit-packs the ids and builds the configured
/// indexes; after that the segment is immutable. Both states run through
/// the same Execute engine: predicates on an unsorted dictionary resolve to
/// dict ids before the scan (see IdSet).
///
/// A segment can also be opened *lazily* over a serialized blob
/// (DeserializeLazy): only the header is parsed up front and each column's
/// dictionary + forward index decode on first touch, synchronized by an
/// internal mutex (decode is monotone — a column never un-decodes, so
/// readers that Ensure'd their columns proceed lock-free afterwards).
class Segment {
 public:
  /// Builds a sealed segment: appends every row to a consuming segment, then
  /// seals it (rows are reordered if a sorted column is configured).
  static Result<std::shared_ptr<Segment>> Build(std::string name, RowSchema schema,
                                                std::vector<Row> rows,
                                                SegmentIndexConfig config);

  /// An empty consuming segment (no name until Seal).
  static std::shared_ptr<Segment> Consuming(RowSchema schema);
  /// Appends one row to a consuming segment: each cell is coerced to its
  /// column type, found or added in the column's dictionary by one hash
  /// probe, and its dict id pushed onto the forward index. O(columns).
  Status Append(Row row);
  /// Seals a consuming segment in place: sorts each dictionary, remaps the
  /// ids (reordering rows by the sorted column, if any), bit-packs them and
  /// builds zone maps and the configured indexes. Fails without touching
  /// the segment when the sorted column is not in the schema.
  Status Seal(std::string name, const SegmentIndexConfig& config);

  const std::string& name() const { return name_; }
  const RowSchema& schema() const { return schema_; }
  int64_t NumRows() const { return static_cast<int64_t>(num_rows_); }

  /// Materializes one row (dictionary-decoded).
  Row GetRow(size_t row_index) const;
  /// One cell.
  Value GetValue(size_t row_index, int column_index) const;
  /// Smallest and largest value of a column as numbers (null reads as 0),
  /// read off its dictionary; {0, 0} for an empty segment.
  std::pair<double, double> NumericBounds(int column_index) const;

  /// Executes filter+aggregate/select on this segment. `validity` (may be
  /// null) marks rows superseded by upserts; invalid rows are skipped.
  /// Grouped results are keyed rows [group cols..., agg accumulators...]
  /// merged later by the broker; accumulator layout documented in
  /// MergeGroupedResults.
  ///
  /// Default path is the vectorized engine: star-tree short-circuit, then
  /// selection bitmaps + batched forward-index decode + typed (dict-id
  /// native) aggregation kernels. `query.force_scalar` runs the
  /// row-at-a-time oracle instead (no star-tree, per-value decode).
  /// `stats->segments_scanned` counts sealed segments only.
  Result<OlapResult> Execute(const OlapQuery& query,
                             const std::vector<bool>* validity,
                             OlapQueryStats* stats) const;

  /// Approximate resident memory: dictionaries + forward + inverted +
  /// star-tree.
  int64_t MemoryBytes() const;

  /// Zone-map / bloom pruning probe: false means NO row of this segment can
  /// satisfy `pred`, so the whole segment may be skipped without executing.
  /// Conservative: unknown columns return true (the execute path then
  /// reports the error exactly as an unpruned scan would). Range operators
  /// compare against the per-column min/max; equality consults the
  /// bloom-style membership filter (high-cardinality columns) or the
  /// dictionary itself.
  bool CanMatch(const FilterPredicate& pred) const;

  /// Columnar serialization (dictionaries + packed forward indexes + bloom
  /// filters); inverted/star-tree indexes are rebuilt on load.
  std::string Serialize() const;
  static Result<std::shared_ptr<Segment>> Deserialize(const std::string& blob);

  /// Warm-tier open: parses only the header at `offset` and defers each
  /// column's dictionary + forward index to first touch. The blob stays
  /// pinned (shared) for the segment's lifetime. Lazy segments carry no
  /// inverted/star-tree indexes and no zone maps — plan-time pruning for
  /// them lives in the detached SegmentPruneInfo.
  static Result<std::shared_ptr<Segment>> DeserializeLazy(
      std::shared_ptr<const std::string> blob, size_t offset);

  /// Decodes every still-lazy column (recovery replay, through
  /// SegmentHandle::AcquireFull). No-op on eager segments.
  Status EnsureAllColumns() const;

  /// Detached pruning metadata (see SegmentPruneInfo). Requires decoded
  /// zone maps, i.e. an eagerly built/deserialized segment.
  SegmentPruneInfo BuildPruneInfo() const;

  /// Serialized size without serializing (for footprint accounting).
  int64_t DiskBytes() const;

  bool HasStarTree() const { return !star_tree_.empty(); }

 private:
  Segment() = default;

  struct Column {
    ValueType type = ValueType::kNull;
    /// Sorted once sealed; first-seen order while consuming.
    std::vector<Value> dictionary;
    /// dict id -> ToNumeric(), extended as values arrive so the aggregation
    /// kernels never construct a Value on the scan path.
    std::vector<double> dict_numeric;
    BitPackedVector packed;         ///< dict ids per row (when packing on)
    /// dict ids per row: packing off, or any consuming segment.
    std::vector<uint32_t> plain;
    bool has_inverted = false;
    std::vector<std::vector<uint32_t>> inverted;  ///< dict id -> sorted row ids
    /// Consuming only: value -> dict id hash index (open addressing, linear
    /// probing, power-of-two size at most half full; kNoId = empty slot).
    std::vector<uint32_t> id_slots;

    uint32_t IdAt(size_t row) const {
      return plain.empty() ? packed.Get(row) : plain[row];
    }
    /// Batch decode of rows [start, start+count) into `out`.
    void UnpackRange(size_t start, size_t count, uint32_t* out) const;
    int64_t MemoryBytes() const;
    /// Dict id of `v`, appending it to the dictionary when new.
    uint32_t FindOrAddId(Value v);
    /// id_slots index holding `v`, or the empty slot where it belongs.
    size_t ProbeSlot(const Value& v) const;
  };
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  /// The dict ids a predicate selects: the range [lo, hi), or — a range
  /// predicate over a consuming segment's unsorted dictionary — the ids
  /// whose `table` entry is set (one pass over the dictionary). Eq on either
  /// kind of dictionary is a range of 0 or 1 id.
  struct IdSet {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::vector<uint8_t> table;  ///< per dict id; empty = use [lo, hi)

    bool None() const { return table.empty() && lo >= hi; }
    bool Contains(uint32_t id) const {
      return table.empty() ? id >= lo && id < hi : table[id] != 0;
    }
  };

  /// Per-column pruning metadata, computed at seal (Build) and carried
  /// through serialization. min/max fall out of the sorted dictionary; the
  /// bloom filter covers every distinct value of high-cardinality columns
  /// so equality predicates prune in O(1) probes. With dictionaries
  /// resident the bloom is a fast pre-filter backed by an exact dictionary
  /// check; it is serialized so a future tiered (dictionary-not-resident)
  /// path can prune from the zone map alone.
  struct ZoneMap {
    Value min;
    Value max;
    std::vector<uint64_t> bloom;  ///< empty = no bloom (low cardinality)
    uint64_t bloom_mask = 0;      ///< bit count - 1 (bit count is a power of 2)
  };

  /// One star-tree level: the cube cells of one dimension-prefix length k,
  /// as flat arrays sorted ascending by the cells' dict-id tuples, so a
  /// query that pins the leading dimensions binary-searches its cell range.
  /// Cell c's tuple is ids[c*k, c*k + k). Its accumulators are
  /// accs[c*stride, c*stride + stride) with stride = 1 + metrics: slot 0
  /// is the row count (sum/min/max 0, exactly what COUNT merges) and slot
  /// 1 + m holds metric m's count/sum/min/max.
  struct StarTreeLevel {
    std::vector<uint32_t> ids;
    std::vector<AggAccumulator> accs;
  };

  /// Deferred decode state for DeserializeLazy. `decoded[c]` flips true
  /// exactly once, under `mu`; the mutex acquisition in Ensure* gives
  /// readers their happens-before edge to the decoded column data.
  struct LazyColumn {
    size_t dict_pos = 0;   ///< start of the length-prefixed dictionary row
    uint32_t bits = 0;     ///< packed forward index width (packing on)
    uint64_t num_words = 0;
    size_t words_pos = 0;  ///< packed words (packing on)
    size_t plain_pos = 0;  ///< plain u32 ids (packing off)
  };
  struct LazySource {
    std::shared_ptr<const std::string> blob;
    size_t base_offset = 0;  ///< segment blob = [base_offset, blob->size())
    std::vector<LazyColumn> columns;
    std::mutex mu;
    std::vector<bool> decoded;  // guarded by mu
  };

  /// Parses the header and records where each column's payload lives
  /// (so a truncated blob fails here, not mid-query) without decoding any
  /// column. `*end` receives the offset of the trailing bloom sections.
  static Result<std::shared_ptr<Segment>> OpenBlob(const std::string& data,
                                                   size_t offset,
                                                   std::vector<LazyColumn>* layout,
                                                   size_t* end);
  /// Decodes one column's dictionary + forward index at `layout`, rejecting
  /// dict ids outside the dictionary, and fills its dict_numeric table. The
  /// single column decoder of both the eager and the lazy open.
  Status DecodeColumn(const std::string& data, const LazyColumn& layout,
                      Column* column) const;
  /// Decodes the given columns if still lazy; counts each actual decode
  /// into `stats->columns_materialized` (stats may be null).
  Status EnsureColumnIndexes(const std::vector<int>& indexes,
                             OlapQueryStats* stats) const;
  /// Ensure for every column the query names (filters, group-by,
  /// aggregates, selects). Unknown names are skipped so execution reports
  /// the same InvalidArgument an eager segment would.
  Status EnsureForQuery(const OlapQuery& query, OlapQueryStats* stats) const;

  void BuildIndexes(const SegmentIndexConfig& config);
  /// Fills zones_ from the sorted dictionaries; `keep_blooms` preserves
  /// bloom words adopted from a serialized blob instead of rehashing.
  void BuildZoneMaps(bool keep_blooms = false);
  int ColumnIndex(const std::string& name) const { return schema_.FieldIndex(name); }
  /// Dict ids matching `pred`; kNe resolves to its kEq set, which callers
  /// negate.
  IdSet PredicateIds(const Column& column, const FilterPredicate& pred) const;
  /// Rows [first, last) of the sorted column whose dict ids are in `ids`
  /// (a range).
  std::pair<size_t, size_t> SortedRowRange(const Column& column, const IdSet& ids) const;
  /// Row ids matching all predicates; `all` set true when unfiltered.
  /// Scalar-oracle path only; the vectorized engine uses BuildSelection.
  Result<std::vector<uint32_t>> FilterRows(const std::vector<FilterPredicate>& preds,
                                           bool* all, int64_t* rows_scanned) const;
  /// Answers an aggregate query from the star-tree when its filters are
  /// Eq on star dimensions, its group-bys are star dimensions and its
  /// aggregates are COUNT or star metrics (segment_exec.cc). Folds one level's
  /// cells, seeking the range of a pinned leading prefix; false = not
  /// servable here (the vectorized engine runs instead).
  bool TryStarTree(const OlapQuery& query, const std::vector<bool>* validity,
                   OlapResult* result) const;

  // --- Vectorized engine (segment_exec.cc) --------------------------------
  /// Evaluates all predicates + validity into a selection bitmap. Index-
  /// servable predicates become bitmap kernels; the rest run as one batched
  /// scan pass. `filter_scanned` reports whether that scan pass examined
  /// rows (it then owns the rows_scanned accounting for this query).
  Result<SelectionBitmap> BuildSelection(const std::vector<FilterPredicate>& preds,
                                         const std::vector<bool>* validity,
                                         bool* filter_scanned,
                                         OlapQueryStats* stats) const;
  Result<OlapResult> ExecuteVectorized(const OlapQuery& query,
                                       const std::vector<bool>* validity,
                                       OlapQueryStats* stats) const;
  /// The seed row-at-a-time engine, kept as the parity oracle.
  Result<OlapResult> ExecuteScalar(const OlapQuery& query,
                                   const std::vector<bool>* validity,
                                   OlapQueryStats* stats) const;

  std::string name_;
  RowSchema schema_;
  size_t num_rows_ = 0;
  bool consuming_ = false;  ///< true from Consuming() until Seal()
  /// Mutable only through the monotone lazy decode (Ensure*); immutable
  /// once decoded and always immutable for eager segments.
  mutable std::vector<Column> columns_;
  std::vector<ZoneMap> zones_;  ///< parallel to columns_; empty when lazy
  SegmentIndexConfig config_;
  int sorted_column_ = -1;
  /// Set iff opened via DeserializeLazy; never reset once set.
  mutable std::unique_ptr<LazySource> lazy_;

  /// Star-tree levels indexed by prefix length 0..dims; level 0 is the
  /// single root cell (present even for an empty segment).
  std::vector<StarTreeLevel> star_tree_;
  std::vector<int> star_dims_;     ///< column indexes of dimensions
  std::vector<int> star_metrics_;  ///< column indexes of metrics
};

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_SEGMENT_H_
