#ifndef GTPL_COMMON_NAME_TABLE_H_
#define GTPL_COMMON_NAME_TABLE_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/status.h"

namespace gtpl {

/// The plain row of a name table: a registry key, a one-liner for --help
/// and error listings, and the enum value it names.
template <typename T>
struct NamedValue {
  const char* name;
  const char* summary;
  T value;
};

/// A fixed, ordered table of named enum values: the lookup behind the
/// engine, commit-path and lease-mode registries (--cc, --commit, --lease).
/// `Entry` is NamedValue<T> or any aggregate with the same three members
/// plus further columns. Table order is presentation order: --help, error
/// listings and the benches that sweep a registry all print in it.
template <typename Entry>
class NameTable {
 public:
  using Value = decltype(Entry::value);

  /// `noun` names one entry in error messages, e.g. "commit path".
  template <size_t N>
  constexpr NameTable(const char* noun, const Entry (&entries)[N])
      : noun_(noun), entries_(entries) {}

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }

  /// Entry registered under `name`, or nullptr.
  const Entry* Find(std::string_view name) const {
    for (const Entry& entry : entries_) {
      if (name == entry.name) return &entry;
    }
    return nullptr;
  }

  /// Entry of `value`; every value of the enum has exactly one.
  const Entry& For(Value value) const {
    for (const Entry& entry : entries_) {
      if (entry.value == value) return entry;
    }
    GTPL_CHECK(false) << noun_ << " without a table entry";
    return entries_.front();
  }

  /// Comma-separated names of the entries `keep` accepts (all of them by
  /// default), for error messages and usage text.
  std::string Names(
      const std::function<bool(const Entry&)>& keep = nullptr) const {
    std::string names;
    for (const Entry& entry : entries_) {
      if (keep && !keep(entry)) continue;
      if (!names.empty()) names += ", ";
      names += entry.name;
    }
    return names;
  }

  /// Resolves `name` to its value, or InvalidArgument listing the
  /// registered names (the CLI strict-parsing convention).
  Status Parse(std::string_view name, Value* value) const {
    const Entry* entry = Find(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("unknown " + std::string(noun_) + " '" +
                                     std::string(name) +
                                     "' (registered: " + Names() + ")");
    }
    *value = entry->value;
    return Status::Ok();
  }

 private:
  const char* noun_;
  std::span<const Entry> entries_;
};

}  // namespace gtpl

#endif  // GTPL_COMMON_NAME_TABLE_H_
