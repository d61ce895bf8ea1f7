#include "dstampede/common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dstampede::json {
namespace {

// Arrays and objects nest at most this deep; the parser recurses once
// per level, so an unbounded document could overflow the stack.
// sys/metrics snapshots nest four levels.
constexpr int kMaxDepth = 128;

}  // namespace

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const Value* Value::FindPath(const std::string& path) const {
  const Value* cur = this;
  std::size_t pos = 0;
  while (cur != nullptr && pos < path.size()) {
    const std::size_t dot = path.find('.', pos);
    const std::string key =
        path.substr(pos, dot == std::string::npos ? std::string::npos
                                                  : dot - pos);
    cur = cur->Find(key);
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  return cur;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    DS_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing garbage");
    return v;
  }

 private:
  Status Err(const char* what) const {
    return InvalidArgumentError(std::string("json: ") + what + " at offset " +
                                std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return Err("nested too deeply");
        ++depth_;
        Result<Value> v = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': return ParseString();
      case 't':
      case 'f': return ParseBool();
      case 'n': return ParseNull();
      default: return ParseNumber();
    }
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    Value v;
    v.kind_ = Value::Kind::kObject;
    SkipWs();
    if (Consume('}')) return v;
    for (;;) {
      SkipWs();
      DS_ASSIGN_OR_RETURN(Value key, ParseString());
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      DS_ASSIGN_OR_RETURN(Value member, ParseValue());
      v.object_.emplace(key.string_, std::move(member));
      SkipWs();
      if (Consume('}')) return v;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Value v;
    v.kind_ = Value::Kind::kArray;
    SkipWs();
    if (Consume(']')) return v;
    for (;;) {
      DS_ASSIGN_OR_RETURN(Value element, ParseValue());
      v.array_.push_back(std::move(element));
      SkipWs();
      if (Consume(']')) return v;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Value> ParseString() {
    if (!Consume('"')) return Err("expected string");
    Value v;
    v.kind_ = Value::Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string_.push_back('"'); break;
        case '\\': v.string_.push_back('\\'); break;
        case '/': v.string_.push_back('/'); break;
        case 'b': v.string_.push_back('\b'); break;
        case 'f': v.string_.push_back('\f'); break;
        case 'n': v.string_.push_back('\n'); break;
        case 'r': v.string_.push_back('\r'); break;
        case 't': v.string_.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // Latin-1 subset is enough for our ASCII producers.
          v.string_.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  Result<Value> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      Value v;
      v.kind_ = Value::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      Value v;
      v.kind_ = Value::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    return Err("bad literal");
  }

  Result<Value> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Value();
    }
    return Err("bad literal");
  }

  Result<Value> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      any = true;
      ++pos_;
    }
    if (!any) return Err("expected value");
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.number_ = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                            nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

void AppendQuoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace dstampede::json
