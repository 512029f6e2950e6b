#ifndef UBERRT_SQL_AST_H_
#define UBERRT_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/aggregate.h"
#include "common/status.h"
#include "common/value.h"

namespace uberrt::sql {

/// Expression tree node. Owns its children.
struct Expr {
  enum class Kind {
    kLiteral,   ///< value
    kColumn,    ///< [qualifier.]name
    kBinary,    ///< op(left, right)
    kUnary,     ///< op(operand)
    kCall,      ///< function(args...) — aggregates and scalar functions
    kStar,      ///< '*' (only inside COUNT(*) or as a select item)
  };
  enum class Op {
    kNone,
    // binary
    kAnd, kOr, kEq, kNe, kLt, kLe, kGt, kGe, kAdd, kSub, kMul, kDiv,
    // unary
    kNot, kNeg,
  };

  Kind kind = Kind::kLiteral;
  Op op = Op::kNone;
  Value literal;
  std::string qualifier;  ///< table alias for kColumn ("" if unqualified)
  std::string name;       ///< column or function name
  std::vector<std::unique_ptr<Expr>> children;

  static std::unique_ptr<Expr> Literal(Value v) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static std::unique_ptr<Expr> Column(std::string qualifier, std::string name) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kColumn;
    e->qualifier = std::move(qualifier);
    e->name = std::move(name);
    return e;
  }
  static std::unique_ptr<Expr> Binary(Op op, std::unique_ptr<Expr> left,
                                      std::unique_ptr<Expr> right) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kBinary;
    e->op = op;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    return e;
  }
  static std::unique_ptr<Expr> Unary(Op op, std::unique_ptr<Expr> operand) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kUnary;
    e->op = op;
    e->children.push_back(std::move(operand));
    return e;
  }
  static std::unique_ptr<Expr> Call(std::string name,
                                    std::vector<std::unique_ptr<Expr>> args) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kCall;
    e->name = std::move(name);
    e->children = std::move(args);
    return e;
  }
  static std::unique_ptr<Expr> Star() {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kStar;
    return e;
  }

  std::unique_ptr<Expr> Clone() const;

  /// Rendering for plans and error messages.
  std::string ToString() const;

  /// True when this subtree contains an aggregate call
  /// (COUNT/SUM/MIN/MAX/AVG).
  bool ContainsAggregate() const;
};

/// The one SQL aggregate compiler, shared by FlinkSQL's window aggregation
/// and Presto's OLAP pushdown: `call` must be an aggregate call; COUNT
/// takes any argument (it counts rows), the others one column.
/// InvalidArgument otherwise.
Result<AggregateSpec> CompileAggregate(const Expr& call, const std::string& output);

struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  ///< "" = derive from expression

  SelectItem Clone() const {
    SelectItem item;
    item.expr = expr->Clone();
    item.alias = alias;
    return item;
  }
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// Streaming window in GROUP BY: TUMBLE/HOP/SESSION(time_col, intervals)
/// — the stream-processing SQL extension mentioned in Section 3.
struct WindowClause {
  enum class Type { kTumble, kHop, kSession };
  Type type = Type::kTumble;
  std::string time_column;
  int64_t size_ms = 0;
  int64_t slide_ms = 0;  ///< HOP only
  int64_t gap_ms = 0;    ///< SESSION only
};

struct SelectStmt;

/// FROM target: a named table, a parenthesized subquery, or a two-way join.
struct TableRef {
  enum class Kind { kNamed, kSubquery, kJoin };
  Kind kind = Kind::kNamed;
  std::string name;   ///< kNamed: table name (possibly catalog-qualified)
  std::string alias;  ///< optional
  std::unique_ptr<SelectStmt> subquery;
  // kJoin:
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  std::unique_ptr<Expr> join_condition;  ///< ON expression
};

/// One parsed SELECT statement (the only statement kind in this stack).
struct SelectStmt {
  std::vector<SelectItem> items;
  std::unique_ptr<TableRef> from;
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;  ///< column refs
  std::optional<WindowClause> window;
  std::unique_ptr<Expr> having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  ///< -1 = none
};

}  // namespace uberrt::sql

#endif  // UBERRT_SQL_AST_H_
