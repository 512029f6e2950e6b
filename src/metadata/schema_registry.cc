#include "metadata/schema_registry.h"

#include <deque>
#include <set>

namespace uberrt::metadata {

Status SchemaRegistry::CompatibleStep(const RowSchema& old_schema,
                                      const RowSchema& new_schema) {
  if (new_schema.NumFields() < old_schema.NumFields()) {
    return Status::FailedPrecondition("schema removes fields");
  }
  for (size_t i = 0; i < old_schema.NumFields(); ++i) {
    const FieldSpec& old_field = old_schema.fields()[i];
    const FieldSpec& new_field = new_schema.fields()[i];
    if (old_field.name != new_field.name) {
      return Status::FailedPrecondition("schema renames or reorders field '" +
                                        old_field.name + "'");
    }
    if (old_field.type != new_field.type) {
      return Status::FailedPrecondition("schema changes type of field '" +
                                        old_field.name + "'");
    }
  }
  return Status::Ok();
}

Result<int> SchemaRegistry::Register(const std::string& subject,
                                     const RowSchema& schema) {
  if (schema.NumFields() == 0) {
    return Status::InvalidArgument("schema has no fields");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& versions = subjects_[subject];
  if (!versions.empty()) {
    if (versions.back().schema == schema) return versions.back().version;
    Status compat = CompatibleStep(versions.back().schema, schema);
    if (!compat.ok()) return compat;
  }
  int version = versions.empty() ? 1 : versions.back().version + 1;
  versions.push_back({version, schema});
  return version;
}

Result<SchemaVersion> SchemaRegistry::GetLatest(const std::string& subject) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subjects_.find(subject);
  if (it == subjects_.end() || it->second.empty()) {
    return Status::NotFound("no schema for subject: " + subject);
  }
  return it->second.back();
}

Result<SchemaVersion> SchemaRegistry::GetVersion(const std::string& subject,
                                                 int version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) return Status::NotFound("no schema for subject: " + subject);
  for (const SchemaVersion& sv : it->second) {
    if (sv.version == version) return sv;
  }
  return Status::NotFound("no such version");
}

std::vector<std::string> SchemaRegistry::ListSubjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [subject, versions] : subjects_) out.push_back(subject);
  return out;
}

void SchemaRegistry::AddLineage(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  lineage_out_[from].push_back(to);
  lineage_in_[to].push_back(from);
}

std::vector<std::string> SchemaRegistry::Downstream(const std::string& subject) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  std::set<std::string> seen{subject};
  std::deque<std::string> frontier{subject};
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop_front();
    auto it = lineage_out_.find(current);
    if (it == lineage_out_.end()) continue;
    for (const std::string& next : it->second) {
      if (seen.insert(next).second) {
        out.push_back(next);
        frontier.push_back(next);
      }
    }
  }
  return out;
}

std::vector<std::string> SchemaRegistry::Upstream(const std::string& subject) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lineage_in_.find(subject);
  if (it == lineage_in_.end()) return {};
  return it->second;
}

}  // namespace uberrt::metadata
