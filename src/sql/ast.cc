#include "sql/ast.h"

#include <sstream>

namespace uberrt::sql {

namespace {

const char* OpSymbol(Expr::Op op) {
  switch (op) {
    case Expr::Op::kAnd: return "AND";
    case Expr::Op::kOr: return "OR";
    case Expr::Op::kEq: return "=";
    case Expr::Op::kNe: return "<>";
    case Expr::Op::kLt: return "<";
    case Expr::Op::kLe: return "<=";
    case Expr::Op::kGt: return ">";
    case Expr::Op::kGe: return ">=";
    case Expr::Op::kAdd: return "+";
    case Expr::Op::kSub: return "-";
    case Expr::Op::kMul: return "*";
    case Expr::Op::kDiv: return "/";
    case Expr::Op::kNot: return "NOT";
    case Expr::Op::kNeg: return "-";
    case Expr::Op::kNone: return "?";
  }
  return "?";
}

}  // namespace

Result<AggregateSpec> CompileAggregate(const Expr& call, const std::string& output) {
  std::optional<AggregateSpec::Kind> kind;
  if (call.kind == Expr::Kind::kCall) kind = ParseAggregateKind(call.name);
  if (!kind.has_value()) {
    return Status::InvalidArgument("unsupported aggregate: " + call.ToString());
  }
  AggregateSpec spec;
  spec.kind = *kind;
  spec.output_name = output;
  if (spec.kind == AggregateSpec::Kind::kCount) return spec;
  if (call.children.size() != 1 || call.children[0]->kind != Expr::Kind::kColumn) {
    return Status::InvalidArgument(call.name + " expects a single column argument");
  }
  spec.field = call.children[0]->name;
  return spec;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->op = op;
  copy->literal = literal;
  copy->qualifier = qualifier;
  copy->name = name;
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kLiteral:
      if (literal.type() == ValueType::kString) {
        os << "'" << literal.AsString() << "'";
      } else {
        os << literal.ToString();
      }
      break;
    case Kind::kColumn:
      if (!qualifier.empty()) os << qualifier << ".";
      os << name;
      break;
    case Kind::kBinary:
      os << "(" << children[0]->ToString() << " " << OpSymbol(op) << " "
         << children[1]->ToString() << ")";
      break;
    case Kind::kUnary:
      os << "(" << OpSymbol(op) << " " << children[0]->ToString() << ")";
      break;
    case Kind::kCall: {
      os << name << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) os << ", ";
        os << children[i]->ToString();
      }
      os << ")";
      break;
    }
    case Kind::kStar:
      os << "*";
      break;
  }
  return os.str();
}

bool Expr::ContainsAggregate() const {
  if (kind == Kind::kCall && ParseAggregateKind(name).has_value()) return true;
  for (const auto& child : children) {
    if (child->ContainsAggregate()) return true;
  }
  return false;
}

}  // namespace uberrt::sql
