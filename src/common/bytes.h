#ifndef UBERRT_COMMON_BYTES_H_
#define UBERRT_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

/// The one fixed-width byte codec of the blob formats. Two byte orders:
///
/// - Host order (little-endian on every supported target): the persisted
///   blobs — EncodeRow, row batches, checkpoints, window state, segments
///   and their archive frames. Strings are u32-length-prefixed.
/// - Big-endian: the stream wire format (network order), and packed
///   group-by keys, whose bytes then sort in numeric order of the ids.
///
/// Readers take the blob as a string_view and a cursor, and return false
/// without reading past the end: these blobs come back from the object
/// store and may be truncated or corrupt.
namespace uberrt::bytes {

inline void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void AppendU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<char*>(&v), 4); }
inline void AppendU64(std::string* out, uint64_t v) { out->append(reinterpret_cast<char*>(&v), 8); }

/// u32 length, then the bytes.
inline void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline bool ReadU32(std::string_view data, size_t* pos, uint32_t* out) {
  if (*pos + 4 > data.size()) return false;
  std::memcpy(out, data.data() + *pos, 4);
  *pos += 4;
  return true;
}

inline bool ReadU64(std::string_view data, size_t* pos, uint64_t* out) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(out, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

/// Reads an AppendString field as a view into `data`.
inline bool ReadString(std::string_view data, size_t* pos, std::string_view* out) {
  uint32_t len;
  if (!ReadU32(data, pos, &len)) return false;
  if (*pos + len > data.size()) return false;
  *out = data.substr(*pos, len);
  *pos += len;
  return true;
}

inline bool ReadString(std::string_view data, size_t* pos, std::string* out) {
  std::string_view view;
  if (!ReadString(data, pos, &view)) return false;
  out->assign(view);
  return true;
}

// --- Big-endian (unchecked: callers bound the position) ----------------------

inline void PutU32BE(char* p, uint32_t v) {
  p[0] = static_cast<char>((v >> 24) & 0xFF);
  p[1] = static_cast<char>((v >> 16) & 0xFF);
  p[2] = static_cast<char>((v >> 8) & 0xFF);
  p[3] = static_cast<char>(v & 0xFF);
}

inline void PutU64BE(char* p, uint64_t v) {
  PutU32BE(p, static_cast<uint32_t>(v >> 32));
  PutU32BE(p + 4, static_cast<uint32_t>(v & 0xFFFFFFFFULL));
}

inline void AppendU32BE(std::string* out, uint32_t v) {
  char buf[4];
  PutU32BE(buf, v);
  out->append(buf, 4);
}

inline void AppendU64BE(std::string* out, uint64_t v) {
  char buf[8];
  PutU64BE(buf, v);
  out->append(buf, 8);
}

inline uint32_t ReadU32BE(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<uint32_t>(u[0]) << 24) | (static_cast<uint32_t>(u[1]) << 16) |
         (static_cast<uint32_t>(u[2]) << 8) | static_cast<uint32_t>(u[3]);
}

inline uint64_t ReadU64BE(const char* p) {
  return (static_cast<uint64_t>(ReadU32BE(p)) << 32) | ReadU32BE(p + 4);
}

}  // namespace uberrt::bytes

#endif  // UBERRT_COMMON_BYTES_H_
