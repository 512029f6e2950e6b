#include "compute/flink_sql.h"

#include <algorithm>
#include <memory>

#include "sql/expr_eval.h"
#include "sql/parser.h"

namespace uberrt::compute {

namespace {

using sql::Expr;
using sql::RowBinding;
using sql::SelectItem;
using sql::SelectStmt;
using sql::WindowClause;

/// Infers a result type for a scalar expression (best-effort; used to name
/// and type projection outputs).
ValueType InferType(const Expr& expr, const RowSchema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.type();
    case Expr::Kind::kColumn: {
      int idx = schema.FieldIndex(expr.name);
      return idx >= 0 ? schema.fields()[static_cast<size_t>(idx)].type
                      : ValueType::kNull;
    }
    case Expr::Kind::kBinary:
      switch (expr.op) {
        case Expr::Op::kAnd: case Expr::Op::kOr: case Expr::Op::kEq:
        case Expr::Op::kNe: case Expr::Op::kLt: case Expr::Op::kLe:
        case Expr::Op::kGt: case Expr::Op::kGe:
          return ValueType::kBool;
        default:
          return ValueType::kDouble;
      }
    case Expr::Kind::kUnary:
      return expr.op == Expr::Op::kNot ? ValueType::kBool : ValueType::kDouble;
    case Expr::Kind::kCall:
      return ValueType::kDouble;
    case Expr::Kind::kStar:
      return ValueType::kNull;
  }
  return ValueType::kNull;
}

}  // namespace

Result<JobGraph> CompileStreamingSql(const std::string& sql,
                                     const RowSchema& input_schema,
                                     FlinkSqlOptions options) {
  Result<std::unique_ptr<SelectStmt>> parsed = sql::ParseSelect(sql);
  if (!parsed.ok()) return parsed.status();
  // Shared ownership so the compiled std::functions can outlive this call.
  std::shared_ptr<SelectStmt> stmt(parsed.value().release());

  if (!stmt->from || stmt->from->kind != sql::TableRef::Kind::kNamed) {
    return Status::InvalidArgument("streaming SQL requires FROM <topic>");
  }
  if (!stmt->order_by.empty() || stmt->limit >= 0) {
    return Status::InvalidArgument(
        "ORDER BY / LIMIT are batch semantics; a stream is unbounded "
        "(use the OLAP layer for ranked queries)");
  }
  bool has_aggregates = false;
  for (const SelectItem& item : stmt->items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (has_aggregates && !stmt->window.has_value()) {
    return Status::InvalidArgument(
        "aggregation over a stream requires a TUMBLE/HOP/SESSION window in "
        "GROUP BY");
  }
  if (!stmt->group_by.empty() && !has_aggregates) {
    return Status::InvalidArgument("GROUP BY without aggregates");
  }

  JobGraph graph("flinksql");
  SourceSpec source;
  source.topic = options.topic_override.empty() ? stmt->from->name
                                                : options.topic_override;
  source.schema = input_schema;
  source.out_of_orderness_ms = options.out_of_orderness_ms;
  if (stmt->window.has_value()) {
    if (!input_schema.HasField(stmt->window->time_column)) {
      return Status::InvalidArgument("window time column '" +
                                     stmt->window->time_column + "' not in schema");
    }
    source.time_field = stmt->window->time_column;
  }
  graph.AddSource(source);

  auto binding = std::make_shared<RowBinding>(input_schema);

  // WHERE -> Filter on the raw stream.
  if (stmt->where) {
    std::shared_ptr<SelectStmt> keep = stmt;  // keeps the Expr alive
    const Expr* where = stmt->where.get();
    auto bind = binding;
    graph.Filter(
        "where",
        [keep, where, bind](const Row& row) {
          Result<Value> v = sql::EvalExpr(*where, row, *bind);
          return v.ok() && sql::Truthy(v.value());
        },
        options.parallelism);
  }

  if (!has_aggregates) {
    // Pure projection (possibly SELECT *).
    bool star_only = stmt->items.size() == 1 &&
                     stmt->items[0].expr->kind == Expr::Kind::kStar;
    if (!star_only) {
      std::vector<FieldSpec> out_fields;
      for (const SelectItem& item : stmt->items) {
        if (item.expr->kind == Expr::Kind::kStar) {
          return Status::InvalidArgument("'*' must be the only select item");
        }
        out_fields.push_back(
            {sql::SelectItemName(item), InferType(*item.expr, input_schema)});
      }
      std::shared_ptr<SelectStmt> keep = stmt;
      auto bind = binding;
      graph.Map(
          "project",
          [keep, bind](const Row& row) {
            Row out;
            out.reserve(keep->items.size());
            for (const SelectItem& item : keep->items) {
              Result<Value> v = sql::EvalExpr(*item.expr, row, *bind);
              out.push_back(v.ok() ? v.value() : Value::Null());
            }
            return out;
          },
          RowSchema(out_fields), options.parallelism);
    }
    return graph;
  }

  // Windowed aggregation. Group keys must be plain columns.
  std::vector<std::string> key_fields;
  for (const auto& key : stmt->group_by) {
    if (key->kind != Expr::Kind::kColumn) {
      return Status::InvalidArgument("GROUP BY keys must be columns");
    }
    if (!input_schema.HasField(key->name)) {
      return Status::InvalidArgument("GROUP BY column '" + key->name +
                                     "' not in schema");
    }
    key_fields.push_back(key->name);
  }

  WindowSpec window;
  switch (stmt->window->type) {
    case WindowClause::Type::kTumble:
      window = WindowSpec::Tumbling(stmt->window->size_ms);
      break;
    case WindowClause::Type::kHop:
      window = WindowSpec::Sliding(stmt->window->size_ms, stmt->window->slide_ms);
      break;
    case WindowClause::Type::kSession:
      window = WindowSpec::Session(stmt->window->gap_ms);
      break;
  }

  // Aggregate select items in select order; validate the scalar ones.
  std::vector<AggregateSpec> aggregates;
  for (const SelectItem& item : stmt->items) {
    if (item.expr->kind == Expr::Kind::kCall) {
      Result<AggregateSpec> spec =
          sql::CompileAggregate(*item.expr, sql::SelectItemName(item));
      if (!spec.ok()) return spec.status();
      aggregates.push_back(std::move(spec.value()));
    } else if (item.expr->kind == Expr::Kind::kColumn) {
      const std::string& name = item.expr->name;
      bool is_key =
          std::find(key_fields.begin(), key_fields.end(), name) != key_fields.end();
      if (!is_key && name != "window_start") {
        return Status::InvalidArgument(
            "select item '" + name + "' is neither a group key, window_start, "
            "nor an aggregate");
      }
    } else {
      return Status::InvalidArgument("unsupported select item: " +
                                     item.expr->ToString());
    }
  }
  if (aggregates.empty()) {
    return Status::InvalidArgument("windowed query needs at least one aggregate");
  }

  graph.WindowAggregate("window_agg", key_fields, window, aggregates,
                        options.allowed_lateness_ms, options.parallelism);
  RowSchema agg_schema =
      WindowAggregateOutputSchema(input_schema, key_fields, aggregates);

  // HAVING -> Filter over aggregated rows.
  if (stmt->having) {
    std::shared_ptr<SelectStmt> keep = stmt;
    const Expr* having = stmt->having.get();
    auto agg_binding = std::make_shared<RowBinding>(agg_schema);
    graph.Filter("having", [keep, having, agg_binding](const Row& row) {
      Result<Value> v = sql::EvalExpr(*having, row, *agg_binding);
      return v.ok() && sql::Truthy(v.value());
    });
  }

  // Final projection into select-item order.
  std::vector<int> out_indices;
  std::vector<FieldSpec> out_fields;
  for (const SelectItem& item : stmt->items) {
    std::string name = item.expr->kind == Expr::Kind::kColumn
                           ? item.expr->name
                           : sql::SelectItemName(item);
    int idx = agg_schema.FieldIndex(name);
    if (idx < 0) return Status::Internal("projection lost column: " + name);
    out_indices.push_back(idx);
    out_fields.push_back({sql::SelectItemName(item),
                          agg_schema.fields()[static_cast<size_t>(idx)].type});
  }
  graph.Map(
      "select",
      [out_indices](const Row& row) {
        Row out;
        out.reserve(out_indices.size());
        for (int idx : out_indices) out.push_back(row[static_cast<size_t>(idx)]);
        return out;
      },
      RowSchema(out_fields));
  return graph;
}

}  // namespace uberrt::compute
