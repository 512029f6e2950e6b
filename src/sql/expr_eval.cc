#include "sql/expr_eval.h"

#include <cmath>

namespace uberrt::sql {

void RowBinding::Add(const std::string& qualifier, const RowSchema& schema,
                     size_t offset) {
  for (size_t i = 0; i < schema.fields().size(); ++i) {
    entries_.push_back(
        {qualifier, schema.fields()[i].name, static_cast<int>(offset + i)});
  }
  total_fields_ = std::max(total_fields_, offset + schema.fields().size());
}

void RowBinding::Merge(const RowBinding& other, size_t offset) {
  for (const Entry& e : other.entries_) {
    entries_.push_back({e.qualifier, e.name, e.index + static_cast<int>(offset)});
  }
  total_fields_ = std::max(total_fields_, offset + other.total_fields_);
}

Result<int> RowBinding::Resolve(const std::string& qualifier,
                                const std::string& name) const {
  int found = -1;
  for (const Entry& e : entries_) {
    if (e.name != name) continue;
    if (!qualifier.empty() && e.qualifier != qualifier) continue;
    if (found >= 0 && qualifier.empty()) {
      return Status::InvalidArgument("ambiguous column: " + name);
    }
    found = e.index;
    if (!qualifier.empty()) break;
  }
  if (found < 0) {
    return Status::InvalidArgument(
        "unknown column: " + (qualifier.empty() ? name : qualifier + "." + name));
  }
  return found;
}

bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return false;
    case ValueType::kBool: return v.AsBool();
    case ValueType::kInt: return v.AsInt() != 0;
    case ValueType::kDouble: return v.AsDouble() != 0.0;
    case ValueType::kString: return !v.AsString().empty();
  }
  return false;
}

namespace {

Value NumericResult(double value, bool prefer_int) {
  if (prefer_int && value == std::floor(value) && std::abs(value) < 9.0e15) {
    return Value(static_cast<int64_t>(value));
  }
  return Value(value);
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const Row& row, const RowBinding& binding) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' is not a scalar expression");
    case Expr::Kind::kColumn: {
      Result<int> index = binding.Resolve(expr.qualifier, expr.name);
      if (!index.ok()) return index.status();
      if (index.value() >= static_cast<int>(row.size())) {
        return Status::Internal("row narrower than binding");
      }
      return row[static_cast<size_t>(index.value())];
    }
    case Expr::Kind::kUnary: {
      Result<Value> operand = EvalExpr(*expr.children[0], row, binding);
      if (!operand.ok()) return operand;
      if (expr.op == Expr::Op::kNot) return Value(!Truthy(operand.value()));
      if (expr.op == Expr::Op::kNeg) {
        bool is_int = operand.value().type() == ValueType::kInt;
        return NumericResult(-operand.value().ToNumeric(), is_int);
      }
      return Status::InvalidArgument("bad unary operator");
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logic first.
      if (expr.op == Expr::Op::kAnd || expr.op == Expr::Op::kOr) {
        Result<Value> left = EvalExpr(*expr.children[0], row, binding);
        if (!left.ok()) return left;
        bool lhs = Truthy(left.value());
        if (expr.op == Expr::Op::kAnd && !lhs) return Value(false);
        if (expr.op == Expr::Op::kOr && lhs) return Value(true);
        Result<Value> right = EvalExpr(*expr.children[1], row, binding);
        if (!right.ok()) return right;
        return Value(Truthy(right.value()));
      }
      Result<Value> left = EvalExpr(*expr.children[0], row, binding);
      if (!left.ok()) return left;
      Result<Value> right = EvalExpr(*expr.children[1], row, binding);
      if (!right.ok()) return right;
      const Value& a = left.value();
      const Value& b = right.value();
      switch (expr.op) {
        case Expr::Op::kEq:
          if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
            return Value(a == b);
          }
          return Value(a.ToNumeric() == b.ToNumeric());
        case Expr::Op::kNe:
          if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
            return Value(a != b);
          }
          return Value(a.ToNumeric() != b.ToNumeric());
        case Expr::Op::kLt: return Value(a < b);
        case Expr::Op::kLe: return Value(!(b < a));
        case Expr::Op::kGt: return Value(b < a);
        case Expr::Op::kGe: return Value(!(a < b));
        case Expr::Op::kAdd:
        case Expr::Op::kSub:
        case Expr::Op::kMul:
        case Expr::Op::kDiv: {
          double x = a.ToNumeric();
          double y = b.ToNumeric();
          bool ints = a.type() == ValueType::kInt && b.type() == ValueType::kInt;
          switch (expr.op) {
            case Expr::Op::kAdd: return NumericResult(x + y, ints);
            case Expr::Op::kSub: return NumericResult(x - y, ints);
            case Expr::Op::kMul: return NumericResult(x * y, ints);
            case Expr::Op::kDiv:
              if (y == 0.0) return Value::Null();
              return Value(x / y);
            default: break;
          }
          break;
        }
        default:
          break;
      }
      return Status::InvalidArgument("bad binary operator");
    }
    case Expr::Kind::kCall: {
      if (ParseAggregateKind(expr.name).has_value()) {
        return Status::InvalidArgument("aggregate '" + expr.name +
                                       "' in scalar context");
      }
      std::string upper = expr.name;
      for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      if (upper == "ABS" && expr.children.size() == 1) {
        Result<Value> arg = EvalExpr(*expr.children[0], row, binding);
        if (!arg.ok()) return arg;
        bool is_int = arg.value().type() == ValueType::kInt;
        return NumericResult(std::abs(arg.value().ToNumeric()), is_int);
      }
      if (upper == "LENGTH" && expr.children.size() == 1) {
        Result<Value> arg = EvalExpr(*expr.children[0], row, binding);
        if (!arg.ok()) return arg;
        if (arg.value().type() != ValueType::kString) {
          return Status::InvalidArgument("LENGTH expects a string");
        }
        return Value(static_cast<int64_t>(arg.value().AsString().size()));
      }
      return Status::InvalidArgument("unknown function: " + expr.name);
    }
  }
  return Status::Internal("unreachable expression kind");
}

std::string SelectItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == Expr::Kind::kColumn) return item.expr->name;
  return item.expr->ToString();
}

}  // namespace uberrt::sql
