#include "util/string_util.h"

#include <cctype>

namespace apollo::util {

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
inline char FoldAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool LikeMatchImpl(std::string_view v, std::string_view p) {
  // Simple recursive matcher; patterns in our workloads are short. Case
  // folding happens per character so a scan-heavy LIKE never allocates.
  size_t vi = 0;
  size_t pi = 0;
  while (pi < p.size()) {
    char pc = p[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < p.size() && p[pi] == '%') ++pi;
      if (pi == p.size()) return true;
      for (size_t k = vi; k <= v.size(); ++k) {
        if (LikeMatchImpl(v.substr(k), p.substr(pi))) return true;
      }
      return false;
    }
    if (vi >= v.size()) return false;
    if (pc != '_' && FoldAscii(pc) != FoldAscii(v[vi])) return false;
    ++vi;
    ++pi;
  }
  return vi == v.size();
}

/// True if `v` starting at `pos` spells the folded text `t`.
bool FoldedAt(std::string_view v, size_t pos, std::string_view t) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (FoldAscii(v[pos + i]) != t[i]) return false;
  }
  return true;
}
}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, pattern);
}

LikePattern::LikePattern(std::string_view pattern) {
  const bool lead = !pattern.empty() && pattern.front() == '%';
  const bool trail = !pattern.empty() && pattern.back() == '%';
  const size_t b = pattern.find_first_not_of('%');
  std::string_view core =
      b == std::string_view::npos
          ? std::string_view()
          : pattern.substr(b, pattern.find_last_not_of('%') + 1 - b);
  if (core.find('%') != std::string_view::npos ||
      pattern.find('_') != std::string_view::npos) {
    kind_ = Kind::kGeneral;
    text_ = std::string(pattern);
    return;
  }
  kind_ = lead ? (trail ? Kind::kContains : Kind::kSuffix)
               : (trail ? Kind::kPrefix : Kind::kExact);
  text_.reserve(core.size());
  for (char c : core) text_.push_back(FoldAscii(c));
}

bool LikePattern::Matches(std::string_view value) const {
  const size_t n = text_.size();
  switch (kind_) {
    case Kind::kExact:
      return value.size() == n && FoldedAt(value, 0, text_);
    case Kind::kPrefix:
      return value.size() >= n && FoldedAt(value, 0, text_);
    case Kind::kSuffix:
      return value.size() >= n && FoldedAt(value, value.size() - n, text_);
    case Kind::kContains:
      for (size_t k = 0; k + n <= value.size(); ++k) {
        if (FoldedAt(value, k, text_)) return true;
      }
      return false;
    case Kind::kGeneral:
      break;
  }
  return LikeMatchImpl(value, text_);
}

}  // namespace apollo::util
