#include "sql/engine.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "sql/parser.h"

namespace uberrt::sql {

namespace {

using olap::FilterPredicate;
using olap::OlapQuery;

std::string ShortName(const std::string& table_name) {
  size_t dot = table_name.rfind('.');
  return dot == std::string::npos ? table_name : table_name.substr(dot + 1);
}

std::string RefAlias(const TableRef& ref) {
  if (!ref.alias.empty()) return ref.alias;
  if (ref.kind == TableRef::Kind::kNamed) return ShortName(ref.name);
  return "";
}

ValueType TypeOf(const Value& v) {
  return v.type() == ValueType::kNull ? ValueType::kString : v.type();
}

}  // namespace

void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == Expr::Op::kAnd) {
    SplitConjuncts(*expr.children[0], out);
    SplitConjuncts(*expr.children[1], out);
    return;
  }
  out->push_back(&expr);
}

bool ConjunctToPredicate(const Expr& conjunct, const RowSchema& schema,
                         const std::string& alias, FilterPredicate* out) {
  if (conjunct.kind != Expr::Kind::kBinary) return false;
  FilterPredicate::Op op;
  FilterPredicate::Op flipped;
  switch (conjunct.op) {
    case Expr::Op::kEq: op = flipped = FilterPredicate::Op::kEq; break;
    case Expr::Op::kNe: op = flipped = FilterPredicate::Op::kNe; break;
    case Expr::Op::kLt: op = FilterPredicate::Op::kLt; flipped = FilterPredicate::Op::kGt; break;
    case Expr::Op::kLe: op = FilterPredicate::Op::kLe; flipped = FilterPredicate::Op::kGe; break;
    case Expr::Op::kGt: op = FilterPredicate::Op::kGt; flipped = FilterPredicate::Op::kLt; break;
    case Expr::Op::kGe: op = FilterPredicate::Op::kGe; flipped = FilterPredicate::Op::kLe; break;
    default: return false;
  }
  const Expr* lhs = conjunct.children[0].get();
  const Expr* rhs = conjunct.children[1].get();
  auto is_table_column = [&](const Expr* e) {
    if (e->kind != Expr::Kind::kColumn) return false;
    if (!e->qualifier.empty() && e->qualifier != alias) return false;
    return schema.HasField(e->name);
  };
  if (is_table_column(lhs) && rhs->kind == Expr::Kind::kLiteral) {
    out->column = lhs->name;
    out->op = op;
    out->value = rhs->literal;
    return true;
  }
  if (is_table_column(rhs) && lhs->kind == Expr::Kind::kLiteral) {
    out->column = rhs->name;
    out->op = flipped;
    out->value = lhs->literal;
    return true;
  }
  return false;
}

// --- Connectors --------------------------------------------------------------

OlapConnector::OlapConnector(olap::OlapCluster* cluster, std::string table)
    : cluster_(cluster), table_(std::move(table)) {
  Result<olap::TableConfig> config = cluster_->GetTableConfig(table_);
  if (config.ok()) schema_ = config.value().schema;
}

Result<std::vector<Row>> OlapConnector::Scan(const std::vector<FilterPredicate>& filters,
                                             const std::vector<std::string>& columns) {
  OlapQuery query;
  query.filters = filters;
  if (columns.empty()) {
    for (const FieldSpec& f : schema_.fields()) query.select_columns.push_back(f.name);
  } else {
    query.select_columns = columns;
  }
  Result<olap::OlapResult> result = cluster_->Query(table_, query);
  if (!result.ok()) return result.status();
  return std::move(result.value().rows);
}

Result<olap::OlapResult> OlapConnector::ExecuteOlap(const OlapQuery& query) {
  return cluster_->Query(table_, query);
}

Result<std::vector<Row>> ArchiveConnector::Scan(
    const std::vector<FilterPredicate>& filters,
    const std::vector<std::string>& columns) {
  (void)filters;  // no pushdown: Hive-like full scan
  (void)columns;
  std::vector<Row> all;
  for (const std::string& partition : table_->ListPartitions()) {
    Result<std::vector<Row>> rows = table_->ReadPartition(partition);
    if (!rows.ok()) return rows.status();
    for (Row& row : rows.value()) all.push_back(std::move(row));
  }
  return all;
}

void Catalog::Register(const std::string& name, std::unique_ptr<Connector> connector) {
  connectors_[name] = std::move(connector);
}

Result<Connector*> Catalog::Find(const std::string& name) const {
  auto it = connectors_.find(name);
  if (it == connectors_.end()) {
    // Allow catalog-qualified lookups to fall back to the short name.
    auto short_it = connectors_.find(ShortName(name));
    if (short_it == connectors_.end()) return Status::NotFound("no table: " + name);
    return short_it->second.get();
  }
  return it->second.get();
}

// --- Engine -------------------------------------------------------------------

Result<QueryResult> PrestoEngine::Execute(const std::string& sql) const {
  Result<std::unique_ptr<SelectStmt>> stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteStmt(*stmt.value());
}

Result<PrestoEngine::Relation> PrestoEngine::ScanTable(const TableRef& ref,
                                                       const Expr* where,
                                                       ExecStats* stats) const {
  Result<Connector*> connector = catalog_->Find(ref.name);
  if (!connector.ok()) return connector.status();
  std::string alias = RefAlias(ref);

  std::vector<FilterPredicate> pushed;
  if (pushdown_ != PushdownLevel::kNone && connector.value()->SupportsPushdown() &&
      where != nullptr) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*where, &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      FilterPredicate pred;
      if (ConjunctToPredicate(*conjunct, connector.value()->schema(), alias, &pred)) {
        pushed.push_back(std::move(pred));
      }
    }
    stats->predicates_pushed += static_cast<int64_t>(pushed.size());
  }
  Result<std::vector<Row>> rows = connector.value()->Scan(pushed, {});
  if (!rows.ok()) return rows.status();
  stats->rows_fetched += static_cast<int64_t>(rows.value().size());

  Relation relation;
  relation.schema = connector.value()->schema();
  relation.binding.Add(alias, relation.schema, 0);
  relation.rows = std::move(rows.value());
  return relation;
}

Result<PrestoEngine::Relation> PrestoEngine::ExecuteJoin(const TableRef& ref,
                                                         const Expr* where,
                                                         ExecStats* stats) const {
  Result<Relation> left = ExecuteTableRef(*ref.left, where, stats);
  if (!left.ok()) return left;
  Result<Relation> right = ExecuteTableRef(*ref.right, where, stats);
  if (!right.ok()) return right;

  Relation joined;
  joined.binding = left.value().binding;
  joined.binding.Merge(right.value().binding, left.value().binding.NumFields());
  std::vector<FieldSpec> fields = left.value().schema.fields();
  for (const FieldSpec& f : right.value().schema.fields()) fields.push_back(f);
  joined.schema = RowSchema(fields);

  // Find equi-join keys among the ON conjuncts for a hash join; any
  // remaining condition is evaluated on the combined row.
  std::vector<std::pair<const Expr*, const Expr*>> equi;  // (left expr, right expr)
  if (ref.join_condition) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*ref.join_condition, &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      if (conjunct->kind != Expr::Kind::kBinary || conjunct->op != Expr::Op::kEq) continue;
      const Expr* a = conjunct->children[0].get();
      const Expr* b = conjunct->children[1].get();
      if (a->kind != Expr::Kind::kColumn || b->kind != Expr::Kind::kColumn) continue;
      bool a_left = left.value().binding.Resolve(a->qualifier, a->name).ok();
      bool b_right = right.value().binding.Resolve(b->qualifier, b->name).ok();
      if (a_left && b_right) {
        equi.emplace_back(a, b);
      } else if (right.value().binding.Resolve(a->qualifier, a->name).ok() &&
                 left.value().binding.Resolve(b->qualifier, b->name).ok()) {
        equi.emplace_back(b, a);
      }
    }
  }

  // Buckets rows by the equality `=` applies: a string only equals the same
  // string, every other value compares by its numeric view. So a STRING
  // keys as its bytes and anything else as the bits of ToNumeric(), with
  // -0.0 folded into 0.0: INT 1 meets DOUBLE 1.0, and -0.0 meets 0.0.
  auto key_of = [](const std::vector<const Expr*>& exprs, const Row& row,
                   const RowBinding& binding) -> Result<std::string> {
    std::string key;
    for (const Expr* e : exprs) {
      Result<Value> v = EvalExpr(*e, row, binding);
      if (!v.ok()) return v.status();
      if (v.value().type() == ValueType::kString) {
        key.push_back('s');
        bytes::AppendString(&key, v.value().AsString());
      } else {
        const double number = v.value().ToNumeric() + 0.0;  // -0.0 + 0.0 == +0.0
        uint64_t bits;
        std::memcpy(&bits, &number, sizeof(bits));
        key.push_back('n');
        bytes::AppendU64(&key, bits);
      }
    }
    return key;
  };

  auto combined_matches = [&](const Row& combined) {
    if (!ref.join_condition) return true;
    Result<Value> v = EvalExpr(*ref.join_condition, combined, joined.binding);
    return v.ok() && Truthy(v.value());
  };

  if (!equi.empty()) {
    std::vector<const Expr*> left_exprs, right_exprs;
    for (const auto& [l, r] : equi) {
      left_exprs.push_back(l);
      right_exprs.push_back(r);
    }
    std::map<std::string, std::vector<const Row*>> hash;
    for (const Row& row : right.value().rows) {
      Result<std::string> key = key_of(right_exprs, row, right.value().binding);
      if (!key.ok()) return key.status();
      hash[key.value()].push_back(&row);
    }
    for (const Row& lrow : left.value().rows) {
      Result<std::string> key = key_of(left_exprs, lrow, left.value().binding);
      if (!key.ok()) return key.status();
      auto it = hash.find(key.value());
      if (it == hash.end()) continue;
      for (const Row* rrow : it->second) {
        Row combined = lrow;
        combined.insert(combined.end(), rrow->begin(), rrow->end());
        if (combined_matches(combined)) joined.rows.push_back(std::move(combined));
      }
    }
  } else {
    for (const Row& lrow : left.value().rows) {
      for (const Row& rrow : right.value().rows) {
        Row combined = lrow;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        if (combined_matches(combined)) joined.rows.push_back(std::move(combined));
      }
    }
  }
  return joined;
}

Result<PrestoEngine::Relation> PrestoEngine::ExecuteTableRef(const TableRef& ref,
                                                             const Expr* where,
                                                             ExecStats* stats) const {
  switch (ref.kind) {
    case TableRef::Kind::kNamed:
      return ScanTable(ref, where, stats);
    case TableRef::Kind::kSubquery: {
      Result<QueryResult> sub = ExecuteStmt(*ref.subquery);
      if (!sub.ok()) return sub.status();
      stats->rows_fetched += sub.value().stats.rows_fetched;
      Relation relation;
      relation.schema = sub.value().schema;
      relation.binding.Add(ref.alias, relation.schema, 0);
      relation.rows = std::move(sub.value().rows);
      return relation;
    }
    case TableRef::Kind::kJoin:
      return ExecuteJoin(ref, where, stats);
  }
  return Status::Internal("bad table ref");
}

Result<QueryResult> PrestoEngine::ExecuteStmt(const SelectStmt& stmt) const {
  if (stmt.window.has_value()) {
    return Status::InvalidArgument(
        "TUMBLE/HOP/SESSION are streaming SQL; run this on FlinkSQL");
  }
  if (!stmt.from) return Status::InvalidArgument("missing FROM");
  QueryResult result;

  bool has_aggregates = false;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }

  // --- Full pushdown path (single OLAP table, simple shape). ---
  if (pushdown_ == PushdownLevel::kFull && stmt.from->kind == TableRef::Kind::kNamed) {
    Result<Connector*> connector = catalog_->Find(stmt.from->name);
    if (connector.ok() && connector.value()->SupportsPushdown()) {
      const RowSchema& schema = connector.value()->schema();
      std::string alias = RefAlias(*stmt.from);
      bool eligible = true;
      OlapQuery query;
      // All WHERE conjuncts must push down.
      if (stmt.where) {
        std::vector<const Expr*> conjuncts;
        SplitConjuncts(*stmt.where, &conjuncts);
        for (const Expr* conjunct : conjuncts) {
          FilterPredicate pred;
          if (!ConjunctToPredicate(*conjunct, schema, alias, &pred)) {
            eligible = false;
            break;
          }
          query.filters.push_back(std::move(pred));
        }
      }
      if (eligible && has_aggregates && !stmt.having) {
        for (const auto& key : stmt.group_by) {
          if (key->kind != Expr::Kind::kColumn || !schema.HasField(key->name)) {
            eligible = false;
            break;
          }
          query.group_by.push_back(key->name);
        }
        if (eligible) {
          for (const SelectItem& item : stmt.items) {
            if (item.expr->kind == Expr::Kind::kCall) {
              Result<AggregateSpec> agg = CompileAggregate(*item.expr, SelectItemName(item));
              if (!agg.ok()) {
                eligible = false;
                break;
              }
              query.aggregations.push_back(std::move(agg.value()));
            } else if (item.expr->kind == Expr::Kind::kColumn &&
                       std::find(query.group_by.begin(), query.group_by.end(),
                                 item.expr->name) != query.group_by.end()) {
              // group column in output
            } else {
              eligible = false;
              break;
            }
          }
        }
        if (eligible) {
          // Order/limit push down when they reference output columns.
          if (!stmt.order_by.empty()) {
            if (stmt.order_by.size() == 1 &&
                stmt.order_by[0].expr->kind == Expr::Kind::kColumn) {
              query.order_by = stmt.order_by[0].expr->name;
              query.order_desc = stmt.order_by[0].descending;
            } else {
              eligible = false;
            }
          }
          if (eligible) {
            query.limit = stmt.limit;
            Result<olap::OlapResult> pushed = connector.value()->ExecuteOlap(query);
            if (!pushed.ok()) return pushed.status();
            result.stats.aggregation_pushed = true;
            result.stats.predicates_pushed =
                static_cast<int64_t>(query.filters.size());
            result.stats.rows_fetched =
                static_cast<int64_t>(pushed.value().rows.size());
            result.stats.segments_pruned = pushed.value().stats.segments_pruned;
            // Re-project into select-item order.
            RowSchema pushed_schema = pushed.value().schema;
            std::vector<int> indices;
            std::vector<FieldSpec> fields;
            for (const SelectItem& item : stmt.items) {
              std::string name = item.expr->kind == Expr::Kind::kColumn
                                     ? item.expr->name
                                     : SelectItemName(item);
              int idx = pushed_schema.FieldIndex(name);
              if (idx < 0) return Status::Internal("pushdown lost column " + name);
              indices.push_back(idx);
              fields.push_back({SelectItemName(item),
                                pushed_schema.fields()[static_cast<size_t>(idx)].type});
            }
            result.schema = RowSchema(fields);
            for (const Row& row : pushed.value().rows) {
              Row out;
              for (int idx : indices) out.push_back(row[static_cast<size_t>(idx)]);
              result.rows.push_back(std::move(out));
            }
            return result;
          }
        }
      } else if (eligible && !has_aggregates && stmt.group_by.empty()) {
        // Projection + limit pushdown for plain column selections.
        bool star = stmt.items.size() == 1 && stmt.items[0].expr->kind == Expr::Kind::kStar;
        std::vector<std::string> columns;
        if (!star) {
          for (const SelectItem& item : stmt.items) {
            if (item.expr->kind != Expr::Kind::kColumn ||
                !schema.HasField(item.expr->name)) {
              eligible = false;
              break;
            }
            columns.push_back(item.expr->name);
          }
        } else {
          for (const FieldSpec& f : schema.fields()) columns.push_back(f.name);
        }
        if (eligible) {
          query.select_columns = columns;
          if (!stmt.order_by.empty()) {
            if (stmt.order_by.size() == 1 &&
                stmt.order_by[0].expr->kind == Expr::Kind::kColumn &&
                std::find(columns.begin(), columns.end(),
                          stmt.order_by[0].expr->name) != columns.end()) {
              query.order_by = stmt.order_by[0].expr->name;
              query.order_desc = stmt.order_by[0].descending;
            } else {
              eligible = false;
            }
          }
        }
        if (eligible) {
          query.limit = stmt.limit;
          Result<olap::OlapResult> pushed = connector.value()->ExecuteOlap(query);
          if (!pushed.ok()) return pushed.status();
          result.stats.aggregation_pushed = false;
          result.stats.predicates_pushed = static_cast<int64_t>(query.filters.size());
          result.stats.rows_fetched = static_cast<int64_t>(pushed.value().rows.size());
          result.stats.segments_pruned = pushed.value().stats.segments_pruned;
          std::vector<FieldSpec> fields;
          for (size_t i = 0; i < columns.size(); ++i) {
            fields.push_back({star ? columns[i] : SelectItemName(stmt.items[i]),
                              pushed.value().schema.fields()[i].type});
          }
          result.schema = RowSchema(fields);
          result.rows = std::move(pushed.value().rows);
          return result;
        }
      }
    }
  }

  // --- General path. ---
  Result<Relation> relation = ExecuteTableRef(*stmt.from, stmt.where.get(),
                                              &result.stats);
  if (!relation.ok()) return relation.status();
  Relation rel = std::move(relation.value());

  // Residual WHERE (full expression; pushed conjuncts re-check harmlessly).
  if (stmt.where) {
    std::vector<Row> kept;
    for (Row& row : rel.rows) {
      Result<Value> v = EvalExpr(*stmt.where, row, rel.binding);
      if (!v.ok()) return v.status();
      if (Truthy(v.value())) kept.push_back(std::move(row));
    }
    rel.rows = std::move(kept);
  }

  std::vector<Row> output;
  std::vector<FieldSpec> output_fields;

  if (has_aggregates || !stmt.group_by.empty()) {
    // Hash aggregation. Select items: aggregate calls or group expressions.
    struct GroupEntry {
      std::vector<Value> group_values;  ///< one per group_by expr
      std::vector<AggAccumulator> accs;
    };
    struct AggItem {
      const Expr* call = nullptr;  ///< aggregate call, of kind spec.kind
      AggregateSpec spec;
      int group_index = -1;        ///< else index into group_by
    };
    std::vector<AggItem> plan;
    for (const SelectItem& item : stmt.items) {
      AggItem ai;
      std::optional<AggregateSpec::Kind> kind;
      if (item.expr->kind == Expr::Kind::kCall) kind = ParseAggregateKind(item.expr->name);
      if (kind.has_value()) {
        ai.call = item.expr.get();
        ai.spec.kind = *kind;
      } else {
        std::string repr = item.expr->ToString();
        for (size_t g = 0; g < stmt.group_by.size(); ++g) {
          if (stmt.group_by[g]->ToString() == repr) {
            ai.group_index = static_cast<int>(g);
            break;
          }
        }
        // An ungrouped call is rejected as an aggregate, the way FlinkSQL
        // rejects it.
        if (ai.group_index < 0 && item.expr->kind == Expr::Kind::kCall) {
          return CompileAggregate(*item.expr, SelectItemName(item)).status();
        }
        if (ai.group_index < 0) {
          return Status::InvalidArgument("select item '" + repr +
                                         "' is neither aggregated nor grouped");
        }
      }
      plan.push_back(ai);
    }

    // Groups are keyed by the EncodeRow bytes of their values, as the OLAP
    // broker merge keys them: exact for every type (ToString would print
    // DOUBLEs to 6 significant digits and merge distinct keys).
    std::map<std::string, GroupEntry> groups;
    for (const Row& row : rel.rows) {
      Row group_values;
      for (const auto& g : stmt.group_by) {
        Result<Value> v = EvalExpr(*g, row, rel.binding);
        if (!v.ok()) return v.status();
        group_values.push_back(std::move(v.value()));
      }
      GroupEntry& entry = groups[EncodeRow(group_values)];
      if (entry.accs.empty()) {
        entry.group_values = std::move(group_values);
        entry.accs.resize(plan.size());
      }
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].call == nullptr) continue;
        double v = 0.0;
        if (!plan[i].call->children.empty() &&
            plan[i].call->children[0]->kind != Expr::Kind::kStar) {
          Result<Value> arg = EvalExpr(*plan[i].call->children[0], row, rel.binding);
          if (!arg.ok()) return arg.status();
          v = arg.value().ToNumeric();
        }
        entry.accs[i].Add(v);
      }
    }
    if (groups.empty() && stmt.group_by.empty()) {
      GroupEntry empty;
      empty.accs.resize(plan.size());
      groups.emplace("", std::move(empty));
    }
    for (auto& [key, entry] : groups) {
      Row row;
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].call != nullptr) {
          row.push_back(entry.accs[i].Finish(plan[i].spec.kind));
        } else {
          row.push_back(entry.group_values[static_cast<size_t>(plan[i].group_index)]);
        }
      }
      output.push_back(std::move(row));
    }
    // Aggregates are typed by their kind, as the pushdown path types them,
    // so an empty grouped result has the same schema on both paths.
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      ValueType type = output.empty() ? ValueType::kDouble : TypeOf(output[0][i]);
      if (plan[i].call != nullptr) type = plan[i].spec.ResultType();
      output_fields.push_back({SelectItemName(stmt.items[i]), type});
    }
  } else {
    // Plain projection (or star).
    bool star = stmt.items.size() == 1 && stmt.items[0].expr->kind == Expr::Kind::kStar;
    if (star) {
      output_fields = rel.schema.fields();
      output = std::move(rel.rows);
    } else {
      for (Row& row : rel.rows) {
        Row out;
        for (const SelectItem& item : stmt.items) {
          Result<Value> v = EvalExpr(*item.expr, row, rel.binding);
          if (!v.ok()) return v.status();
          out.push_back(std::move(v.value()));
        }
        output.push_back(std::move(out));
      }
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        ValueType type = output.empty() ? ValueType::kString : TypeOf(output[0][i]);
        output_fields.push_back({SelectItemName(stmt.items[i]), type});
      }
    }
  }

  result.schema = RowSchema(output_fields);
  RowBinding output_binding(result.schema);

  // HAVING over the output columns.
  if (stmt.having) {
    std::vector<Row> kept;
    for (Row& row : output) {
      Result<Value> v = EvalExpr(*stmt.having, row, output_binding);
      if (!v.ok()) return v.status();
      if (Truthy(v.value())) kept.push_back(std::move(row));
    }
    output = std::move(kept);
  }

  // ORDER BY over output columns.
  if (!stmt.order_by.empty()) {
    struct SortKey {
      const Expr* expr;
      bool desc;
    };
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      keys.push_back({item.expr.get(), item.descending});
    }
    Status sort_error = Status::Ok();
    std::stable_sort(output.begin(), output.end(), [&](const Row& a, const Row& b) {
      for (const SortKey& key : keys) {
        Result<Value> va = EvalExpr(*key.expr, a, output_binding);
        Result<Value> vb = EvalExpr(*key.expr, b, output_binding);
        if (!va.ok() || !vb.ok()) {
          if (sort_error.ok()) {
            sort_error = va.ok() ? vb.status() : va.status();
          }
          return false;
        }
        if (va.value() < vb.value()) return !key.desc;
        if (vb.value() < va.value()) return key.desc;
      }
      return false;
    });
    if (!sort_error.ok()) return sort_error;
  }

  if (stmt.limit >= 0 && static_cast<int64_t>(output.size()) > stmt.limit) {
    output.resize(static_cast<size_t>(stmt.limit));
  }
  result.rows = std::move(output);
  return result;
}

}  // namespace uberrt::sql
