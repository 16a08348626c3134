#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file json.hpp
/// Minimal JSON document builder + serializer for the observability
/// exporters (Chrome traces, run reports, metrics snapshots). Write-only
/// by design: the repo never needs to parse JSON, only emit it with a
/// stable field order, so objects preserve insertion order and `dump`
/// is deterministic for identical inputs (golden-testable).

namespace ardbt::obs {

/// One JSON value: null, bool, number, string, array, or object.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::kString), str_(s) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Object member insertion; preserves insertion order, overwrites an
  /// existing key in place. Returns *this for chaining.
  Json& set(std::string key, Json value);

  /// Array element append.
  Json& push(Json value);

  std::size_t size() const { return items_.size(); }

  /// Members (objects) or elements (arrays; keys empty), insertion order.
  const std::vector<std::pair<std::string, Json>>& items() const { return items_; }

  /// Serialize. `indent == 0` emits the compact single-line form; a
  /// positive indent pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kInt, kUint, kString, kArray, kObject };

  void write(std::string& out, int indent, int depth) const;
  static void write_escaped(std::string& out, std::string_view s);
  static void write_number(std::string& out, double v);

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  /// Array elements (key empty) or object members, in insertion order.
  std::vector<std::pair<std::string, Json>> items_;
};

/// Write `value.dump(indent)` to `path`, throwing fault::IoError on I/O
/// failure.
void write_json_file(const std::string& path, const Json& value, int indent = 1);

}  // namespace ardbt::obs
