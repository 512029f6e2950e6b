#ifndef UBERRT_OLAP_BITMAP_H_
#define UBERRT_OLAP_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uberrt::olap {

/// Dense selection bitmap over segment rows: one bit per row, packed into
/// uint64 words. The vectorized execution engine represents every filter
/// result as one of these — inverted posting lists, sorted-column row
/// ranges, scan predicates and upsert validity vectors all produce/consume
/// bitmaps, combined with word-wide AND / ANDNOT kernels instead of sorted
/// row-id vector intersections.
///
/// Invariant: bits at positions >= size() are always zero, so Count() and
/// Extract() never need a tail mask.
class SelectionBitmap {
 public:
  SelectionBitmap() = default;
  SelectionBitmap(size_t size, bool value) : size_(size) {
    words_.assign(NumWordsFor(size), value ? ~0ULL : 0ULL);
    if (value) MaskTail();
  }

  size_t size() const { return size_; }
  size_t NumWords() const { return words_.size(); }
  const std::vector<uint64_t>& words() const { return words_; }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void Set(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  void ClearAll() { words_.assign(words_.size(), 0); }

  /// this &= other. Returns words touched (for olap.exec.bitmap_words).
  size_t And(const SelectionBitmap& other) {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) words_[w] &= other.words_[w];
    return n;
  }

  /// this &= ~other (e.g. Ne predicates via an inverted index). Returns
  /// words touched.
  size_t AndNot(const SelectionBitmap& other) {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) words_[w] &= ~other.words_[w];
    return n;
  }

  /// Keeps only bits in [lo, hi) — a sorted-column range filter. Returns
  /// words touched.
  size_t IntersectRange(size_t lo, size_t hi);

  /// Clears bits in [lo, hi). Returns words touched.
  size_t ClearRange(size_t lo, size_t hi);

  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

  /// Writes the positions of set bits in [lo, hi) to `out` (ascending).
  /// Returns how many were written; caller guarantees room for hi-lo.
  size_t Extract(size_t lo, size_t hi, uint32_t* out) const;

 private:
  static size_t NumWordsFor(size_t size) { return (size + 63) / 64; }
  /// Zeroes the bits beyond size_ in the last word.
  void MaskTail() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    }
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_BITMAP_H_
