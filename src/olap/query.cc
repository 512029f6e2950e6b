#include "olap/query.h"

#include <algorithm>

namespace uberrt::olap {

namespace {

void AppendField(std::string* out, const std::string& s) {
  // Length-prefixed so column names containing separators cannot collide.
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

}  // namespace

std::string CanonicalQueryKey(const OlapQuery& query) {
  std::string key;
  key.reserve(128);
  key.append("sel|");
  for (const std::string& c : query.select_columns) AppendField(&key, c);
  key.append("|agg|");
  for (const AggregateSpec& agg : query.aggregations) {
    key.push_back(static_cast<char>('0' + static_cast<int>(agg.kind)));
    AppendField(&key, agg.field);
    AppendField(&key, agg.output_name);
  }
  // Filters are one AND set: predicate order cannot change the result, so
  // two spellings of the same filter set share a cache entry.
  std::vector<std::string> filters;
  filters.reserve(query.filters.size());
  for (const FilterPredicate& pred : query.filters) {
    std::string f;
    AppendField(&f, pred.column);
    f.push_back(static_cast<char>('0' + static_cast<int>(pred.op)));
    AppendField(&f, EncodeRow({pred.value}));
    filters.push_back(std::move(f));
  }
  std::sort(filters.begin(), filters.end());
  key.append("|flt|");
  for (const std::string& f : filters) key.append(f);
  key.append("|grp|");
  for (const std::string& g : query.group_by) AppendField(&key, g);
  key.append("|ord|");
  AppendField(&key, query.order_by);
  key.push_back(query.order_desc ? 'd' : 'a');
  key.append("|lim|");
  key.append(std::to_string(query.limit));
  key.push_back(query.allow_partial ? 'p' : 's');
  key.push_back(query.force_scalar ? 'f' : 'v');
  return key;
}

}  // namespace uberrt::olap
