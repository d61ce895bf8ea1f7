// Minimal JSON value + recursive-descent parser, used by the
// introspection consumers (tools/dsctl, telemetry tests) to validate
// and walk sys/metrics snapshots. Writing is done with plain string
// appends at the producer sites (metrics.cpp, trace.cpp,
// address_space.cpp); AppendQuoted is their one string escaper.
//
// Supports the full JSON grammar except \uXXXX escapes beyond latin-1
// (sufficient: every producer in this repo emits ASCII).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dstampede/common/status.hpp"

namespace dstampede::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  std::int64_t AsInt() const { return static_cast<std::int64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  // Object member lookup; null when absent or not an object.
  const Value* Find(const std::string& key) const;
  // Dotted-path convenience: Find("registry.counters").
  const Value* FindPath(const std::string& path) const;

  static Value MakeNull() { return Value(); }

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

// Parses one JSON document (trailing whitespace allowed, trailing
// garbage is an error). Any malformed input, arrays and objects nested
// over 128 deep included, is kInvalidArgument.
Result<Value> Parse(std::string_view text);

// Appends `s` to `out` as a quoted JSON string: quote, backslash, \n
// and \t get their short escapes, other control bytes \u00XX.
void AppendQuoted(std::string& out, std::string_view s);

}  // namespace dstampede::json
