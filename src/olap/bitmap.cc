#include "olap/bitmap.h"

namespace uberrt::olap {

namespace {

/// Mask with bits [lo, hi) set within one word, given in-word bit offsets.
inline uint64_t RangeMask(size_t lo, size_t hi) {
  uint64_t m = ~0ULL;
  if (hi < 64) m &= (1ULL << hi) - 1;
  m &= ~((lo >= 64) ? ~0ULL : ((1ULL << lo) - 1));
  return m;
}

}  // namespace

size_t SelectionBitmap::IntersectRange(size_t lo, size_t hi) {
  if (lo >= hi) {
    ClearAll();
    return words_.size();
  }
  size_t w_lo = lo >> 6, w_hi = (hi - 1) >> 6;
  for (size_t w = 0; w < words_.size(); ++w) {
    if (w < w_lo || w > w_hi) {
      words_[w] = 0;
    } else {
      size_t bit_lo = (w == w_lo) ? (lo & 63) : 0;
      size_t bit_hi = (w == w_hi) ? ((hi - 1) & 63) + 1 : 64;
      words_[w] &= RangeMask(bit_lo, bit_hi);
    }
  }
  return words_.size();
}

size_t SelectionBitmap::ClearRange(size_t lo, size_t hi) {
  if (lo >= hi) return 0;
  size_t w_lo = lo >> 6, w_hi = (hi - 1) >> 6;
  for (size_t w = w_lo; w <= w_hi; ++w) {
    size_t bit_lo = (w == w_lo) ? (lo & 63) : 0;
    size_t bit_hi = (w == w_hi) ? ((hi - 1) & 63) + 1 : 64;
    words_[w] &= ~RangeMask(bit_lo, bit_hi);
  }
  return w_hi - w_lo + 1;
}

size_t SelectionBitmap::Extract(size_t lo, size_t hi, uint32_t* out) const {
  if (lo >= hi) return 0;
  size_t n = 0;
  size_t w_lo = lo >> 6, w_hi = (hi - 1) >> 6;
  for (size_t w = w_lo; w <= w_hi; ++w) {
    size_t bit_lo = (w == w_lo) ? (lo & 63) : 0;
    size_t bit_hi = (w == w_hi) ? ((hi - 1) & 63) + 1 : 64;
    uint64_t word = words_[w] & RangeMask(bit_lo, bit_hi);
    size_t base = w << 6;
    while (word != 0) {
      out[n++] = static_cast<uint32_t>(base + std::countr_zero(word));
      word &= word - 1;
    }
  }
  return n;
}

}  // namespace uberrt::olap
