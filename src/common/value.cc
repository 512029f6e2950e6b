#include "common/value.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/bytes.h"

namespace uberrt {

namespace {

/// Three-way exact comparison of an INT and a DOUBLE, without rounding the
/// int through double. NaN is equivalent to everything, as between doubles.
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return 0;
  if (d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const auto t = static_cast<int64_t>(d);  // truncates; exact in range
  if (i != t) return i < t ? -1 : 1;
  const double frac = d - static_cast<double>(t);
  return frac > 0.0 ? -1 : (frac < 0.0 ? 1 : 0);
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return "INT";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
    case ValueType::kBool: return "BOOL";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return AsString();
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
  }
  return "NULL";
}

bool Value::operator<(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Nulls sort first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    return a == ValueType::kNull && b != ValueType::kNull;
  }
  bool a_num = a != ValueType::kString;
  bool b_num = b != ValueType::kString;
  // Numbers compare exactly by value across types: two INTs as int64_t (not
  // through double, which merges 2^53 and 2^53 + 1), an INT and a DOUBLE
  // without rounding, so a mixed sort stays a strict weak order.
  if (a == ValueType::kInt && b == ValueType::kInt) return AsInt() < other.AsInt();
  if (a == ValueType::kInt && b == ValueType::kDouble) {
    return CompareIntDouble(AsInt(), other.AsDouble()) < 0;
  }
  if (a == ValueType::kDouble && b == ValueType::kInt) {
    return CompareIntDouble(other.AsInt(), AsDouble()) > 0;
  }
  if (a_num && b_num) return ToNumeric() < other.ToNumeric();
  if (a == ValueType::kString && b == ValueType::kString) {
    return AsString() < other.AsString();
  }
  // Mixed string/numeric: numerics sort before strings.
  return a_num;
}

int RowSchema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string RowSchema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << " " << ValueTypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

void AppendValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      bytes::AppendU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kDouble:
      bytes::AppendU64(out, std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueType::kString:
      bytes::AppendString(out, v.AsString());
      break;
    case ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
  }
}

namespace {

/// Bytes AppendValue writes for `v`.
size_t EncodedValueSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + v.AsString().size();
    case ValueType::kBool:
      return 1 + 1;
    case ValueType::kNull:
      break;
  }
  return 1;
}

}  // namespace

std::string EncodeRow(const Row& row) {
  // Sized first, so the row is encoded into one allocation.
  size_t size = 4;
  for (const Value& v : row) size += EncodedValueSize(v);
  std::string out;
  out.reserve(size);
  bytes::AppendU32(&out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) AppendValue(&out, v);
  return out;
}

Result<Row> DecodeRow(std::string_view data) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!bytes::ReadU32(data, &pos, &count)) {
    return Status::Corruption("row header truncated");
  }
  // Every field needs at least its 1-byte tag; a count beyond the remaining
  // bytes is corruption (and must not drive a huge reserve()).
  if (count > data.size() - pos) return Status::Corruption("row count implausible");
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (pos >= data.size()) return Status::Corruption("row body truncated");
    auto tag = static_cast<ValueType>(data[pos++]);
    switch (tag) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInt: {
        uint64_t raw;
        if (!bytes::ReadU64(data, &pos, &raw)) return Status::Corruption("int truncated");
        row.push_back(Value(static_cast<int64_t>(raw)));
        break;
      }
      case ValueType::kDouble: {
        uint64_t bits;
        if (!bytes::ReadU64(data, &pos, &bits)) return Status::Corruption("double truncated");
        row.push_back(Value(std::bit_cast<double>(bits)));
        break;
      }
      case ValueType::kString: {
        std::string_view s;
        if (!bytes::ReadString(data, &pos, &s)) return Status::Corruption("string truncated");
        row.push_back(Value(std::string(s)));
        break;
      }
      case ValueType::kBool: {
        if (pos >= data.size()) return Status::Corruption("bool truncated");
        row.push_back(Value(data[pos++] != 0));
        break;
      }
      default:
        return Status::Corruption("unknown value tag");
    }
  }
  return row;
}

}  // namespace uberrt
