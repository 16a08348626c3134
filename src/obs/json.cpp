#include "src/obs/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/fault/status.hpp"

namespace ardbt::obs {

Json& Json::set(std::string key, Json value) {
  assert(kind_ == Kind::kObject && "Json::set on non-object");
  for (auto& [k, v] : items_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  items_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  assert(kind_ == Kind::kArray && "Json::push on non-array");
  items_.emplace_back(std::string(), std::move(value));
  return *this;
}

void Json::write_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::write_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf; emit null so consumers fail loudly, not parse
    // garbage.
    out += "null";
    return;
  }
  char buf[32];
  // Shortest round-trippable decimal: try increasing precision.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      write_number(out, num_);
      break;
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Kind::kUint: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    }
    case Kind::kString:
      write_escaped(out, str_);
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        items_[i].second.write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        write_escaped(out, items_[i].first);
        out += indent > 0 ? ": " : ":";
        items_[i].second.write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw fault::IoError("cannot open for writing", path);
  const std::string text = value.dump(indent);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = written == text.size() && std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !ok) {
    throw fault::IoError("short write", path);
  }
}

}  // namespace ardbt::obs
