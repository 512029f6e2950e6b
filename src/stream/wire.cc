#include "stream/wire.h"

#include <array>
#include <cstring>

#include "common/bytes.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define UBERRT_CRC32C_HW 1
#endif

namespace uberrt::stream::wire {

namespace {

// CRC-32C (Castagnoli, 0x1EDC6F41 reflected) — the polynomial Kafka uses for
// record batches (KIP-98), chosen because commodity CPUs check it in
// hardware. Software fallback is slicing-by-8: eight derived tables let the
// inner loop fold one u64 per iteration instead of one byte.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (int t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

uint32_t Crc32Sw(const char* data, size_t n, uint32_t crc) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables = BuildCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);  // little-endian host assumed for the fold
    chunk ^= crc;
    crc = kTables[7][chunk & 0xFF] ^ kTables[6][(chunk >> 8) & 0xFF] ^
          kTables[5][(chunk >> 16) & 0xFF] ^ kTables[4][(chunk >> 24) & 0xFF] ^
          kTables[3][(chunk >> 32) & 0xFF] ^ kTables[2][(chunk >> 40) & 0xFF] ^
          kTables[1][(chunk >> 48) & 0xFF] ^ kTables[0][chunk >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef UBERRT_CRC32C_HW
__attribute__((target("sse4.2"))) uint32_t Crc32Hw(const char* data, size_t n,
                                                   uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c = _mm_crc32_u64(c, chunk);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(c);
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}

bool HasCrc32Hw() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace

uint32_t Crc32(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
#ifdef UBERRT_CRC32C_HW
  if (HasCrc32Hw()) return Crc32Hw(data, n, crc) ^ 0xFFFFFFFFu;
#endif
  return Crc32Sw(data, n, crc) ^ 0xFFFFFFFFu;
}

void AppendFrame(std::string& buf, const Message& m) {
  // Append-mode with a patched length prefix: one pass over the message
  // (walking the header map twice — once to size, once to write — costs a
  // cache miss per node, and this runs once per produced message).
  size_t start = buf.size();
  buf.append(4, '\0');  // frame_len, patched below
  bytes::AppendU64BE(&buf, static_cast<uint64_t>(m.timestamp));
  bytes::AppendU32BE(&buf, static_cast<uint32_t>(m.key.size()));
  buf.append(m.key);
  bytes::AppendU32BE(&buf, static_cast<uint32_t>(m.value.size()));
  buf.append(m.value);
  bytes::AppendU32BE(&buf, static_cast<uint32_t>(m.headers.size()));
  for (const auto& [k, v] : m.headers) {
    bytes::AppendU32BE(&buf, static_cast<uint32_t>(k.size()));
    buf.append(k);
    bytes::AppendU32BE(&buf, static_cast<uint32_t>(v.size()));
    buf.append(v);
  }
  bytes::PutU32BE(&buf[start], static_cast<uint32_t>(buf.size() - start - 4));
}

bool MessageView::GetHeader(std::string_view name, std::string_view* out) const {
  size_t pos = 0;
  for (uint32_t i = 0; i < header_count; ++i) {
    uint32_t klen = bytes::ReadU32BE(headers_raw.data() + pos);
    pos += 4;
    std::string_view k = headers_raw.substr(pos, klen);
    pos += klen;
    uint32_t vlen = bytes::ReadU32BE(headers_raw.data() + pos);
    pos += 4;
    if (k == name) {
      *out = headers_raw.substr(pos, vlen);
      return true;
    }
    pos += vlen;
  }
  return false;
}

Message MessageView::ToMessage() const {
  Message m;
  m.key.assign(key);
  m.value.assign(value);
  m.timestamp = timestamp;
  m.offset = offset;
  m.partition = partition;
  size_t pos = 0;
  for (uint32_t i = 0; i < header_count; ++i) {
    uint32_t klen = bytes::ReadU32BE(headers_raw.data() + pos);
    pos += 4;
    std::string k(headers_raw.substr(pos, klen));
    pos += klen;
    uint32_t vlen = bytes::ReadU32BE(headers_raw.data() + pos);
    pos += 4;
    m.headers.emplace(std::move(k), std::string(headers_raw.substr(pos, vlen)));
    pos += vlen;
  }
  return m;
}

Result<MessageView> DecodeFrame(std::string_view data, size_t* pos) {
  size_t p = *pos;
  auto truncated = [] { return Status::Corruption("truncated record frame"); };
  if (p + 4 > data.size()) return truncated();
  uint32_t frame_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  if (frame_len < kMinFrameLen || p + frame_len > data.size()) return truncated();
  size_t frame_end = p + frame_len;

  MessageView view;
  view.raw_frame = data.substr(*pos, 4 + frame_len);
  view.timestamp = static_cast<TimestampMs>(bytes::ReadU64BE(data.data() + p));
  p += 8;
  uint32_t key_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  if (p + key_len + 4 > frame_end) return truncated();
  view.key = data.substr(p, key_len);
  p += key_len;
  uint32_t value_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  if (p + value_len + 4 > frame_end) return truncated();
  view.value = data.substr(p, value_len);
  p += value_len;
  view.header_count = bytes::ReadU32BE(data.data() + p);
  p += 4;
  size_t headers_begin = p;
  for (uint32_t i = 0; i < view.header_count; ++i) {
    if (p + 4 > frame_end) return truncated();
    uint32_t klen = bytes::ReadU32BE(data.data() + p);
    p += 4 + klen;
    if (p + 4 > frame_end) return truncated();
    uint32_t vlen = bytes::ReadU32BE(data.data() + p);
    p += 4 + vlen;
    if (p > frame_end) return truncated();
  }
  if (p != frame_end) {
    return Status::Corruption("record frame length mismatch");
  }
  view.headers_raw = data.substr(headers_begin, frame_end - headers_begin);
  *pos = frame_end;
  return view;
}

MessageView DecodeFrameTrusted(std::string_view data, size_t* pos) {
  size_t p = *pos;
  uint32_t frame_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  size_t frame_end = p + frame_len;
  MessageView view;
  view.raw_frame = data.substr(*pos, 4 + frame_len);
  view.timestamp = static_cast<TimestampMs>(bytes::ReadU64BE(data.data() + p));
  p += 8;
  uint32_t key_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  view.key = data.substr(p, key_len);
  p += key_len;
  uint32_t value_len = bytes::ReadU32BE(data.data() + p);
  p += 4;
  view.value = data.substr(p, value_len);
  p += value_len;
  view.header_count = bytes::ReadU32BE(data.data() + p);
  p += 4;
  // Validation already proved the header region spans exactly to frame_end,
  // so there is no need to walk the entries here.
  view.headers_raw = data.substr(p, frame_end - p);
  *pos = frame_end;
  return view;
}

namespace {

/// Writes the batch header in front of `payload_len` bytes of record frames
/// at h + kBatchHeaderSize: magic, count, length, CRC-32C, max timestamp.
void SealBatchHeader(char* h, uint32_t record_count, size_t payload_len,
                     int64_t max_timestamp) {
  bytes::PutU32BE(h, kBatchMagic);
  bytes::PutU32BE(h + 4, record_count);
  bytes::PutU32BE(h + 8, static_cast<uint32_t>(payload_len));
  bytes::PutU32BE(h + 12, Crc32(h + kBatchHeaderSize, payload_len));
  bytes::PutU64BE(h + 16, static_cast<uint64_t>(max_timestamp));
}

}  // namespace

void AppendSingleRecordBatch(std::string& buf, const Message& m) {
  size_t start = buf.size();
  buf.append(kBatchHeaderSize, '\0');  // sealed below, once the frame is in
  AppendFrame(buf, m);
  SealBatchHeader(&buf[start], 1, buf.size() - start - kBatchHeaderSize, m.timestamp);
}

void BatchBuilder::Add(const Message& m) {
  AppendFrame(payload_, m);
  if (count_ == 0 || m.timestamp > max_timestamp_) max_timestamp_ = m.timestamp;
  ++count_;
}

void BatchBuilder::AddEncodedFrame(std::string_view frame, TimestampMs timestamp) {
  payload_.append(frame);
  if (count_ == 0 || timestamp > max_timestamp_) max_timestamp_ = timestamp;
  ++count_;
}

void BatchBuilder::Reset() {
  payload_.assign(kBatchHeaderSize, '\0');
  count_ = 0;
  max_timestamp_ = 0;
}

EncodedBatch BatchBuilder::Finish() {
  EncodedBatch batch;
  batch.record_count = count_;
  batch.max_timestamp = max_timestamp_;
  SealBatchHeader(payload_.data(), count_, payload_.size() - kBatchHeaderSize,
                  max_timestamp_);
  batch.data = std::move(payload_);  // seal without copying the payload
  Reset();
  return batch;
}

Status ValidateBatch(std::string_view batch) {
  if (batch.size() < kBatchHeaderSize) {
    return Status::Corruption("batch shorter than header");
  }
  if (bytes::ReadU32BE(batch.data()) != kBatchMagic) {
    return Status::Corruption("bad batch magic");
  }
  uint32_t record_count = bytes::ReadU32BE(batch.data() + 4);
  uint32_t payload_len = bytes::ReadU32BE(batch.data() + 8);
  uint32_t crc = bytes::ReadU32BE(batch.data() + 12);
  if (batch.size() != kBatchHeaderSize + payload_len) {
    return Status::Corruption("batch payload length mismatch");
  }
  std::string_view payload = batch.substr(kBatchHeaderSize);
  if (Crc32(payload) != crc) {
    return Status::Corruption("batch CRC mismatch");
  }
  // Full structural walk: a batch that passes is safe to index and serve
  // views from with no further per-read checks. The checks mirror
  // DecodeFrame but only verify lengths — this runs once per record on the
  // append hot path, so it skips materializing views.
  const char* base = payload.data();
  size_t size = payload.size();
  size_t pos = 0;
  auto truncated = [] { return Status::Corruption("truncated record frame"); };
  for (uint32_t i = 0; i < record_count; ++i) {
    if (pos + 4 > size) return truncated();
    uint32_t frame_len = bytes::ReadU32BE(base + pos);
    pos += 4;
    if (frame_len < kMinFrameLen || pos + frame_len > size) return truncated();
    size_t frame_end = pos + frame_len;
    size_t p = pos + 8;  // timestamp needs no validation
    uint32_t key_len = bytes::ReadU32BE(base + p);
    p += 4;
    if (p + key_len + 4 > frame_end) return truncated();
    p += key_len;
    uint32_t value_len = bytes::ReadU32BE(base + p);
    p += 4;
    if (p + value_len + 4 > frame_end) return truncated();
    p += value_len;
    uint32_t header_count = bytes::ReadU32BE(base + p);
    p += 4;
    for (uint32_t h = 0; h < header_count; ++h) {
      if (p + 4 > frame_end) return truncated();
      p += 4 + bytes::ReadU32BE(base + p);
      if (p + 4 > frame_end) return truncated();
      p += 4 + bytes::ReadU32BE(base + p);
      if (p > frame_end) return truncated();
    }
    if (p != frame_end) {
      return Status::Corruption("record frame length mismatch");
    }
    pos = frame_end;
  }
  if (pos != size) {
    return Status::Corruption("batch record count mismatch");
  }
  return Status::Ok();
}

Result<BatchReader> BatchReader::Open(std::string_view batch) {
  UBERRT_RETURN_IF_ERROR(ValidateBatch(batch));
  return BatchReader(batch.substr(kBatchHeaderSize), bytes::ReadU32BE(batch.data() + 4),
                     static_cast<int64_t>(bytes::ReadU64BE(batch.data() + 16)));
}

Result<MessageView> BatchReader::Next() {
  if (Done()) return Status::OutOfRange("batch exhausted");
  Result<MessageView> view = DecodeFrame(payload_, &pos_);
  if (view.ok()) ++read_;
  return view;
}

}  // namespace uberrt::stream::wire
