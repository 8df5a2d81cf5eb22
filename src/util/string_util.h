// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace apollo::util {

/// Uppercases ASCII characters (SQL keywords are case-insensitive).
std::string ToUpperAscii(std::string_view s);

/// Lowercases ASCII characters.
std::string ToLowerAscii(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins strings with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix` (case-sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// SQL LIKE pattern match: '%' matches any run, '_' one character.
/// Case-insensitive to mirror MySQL's default collation behaviour.
bool LikeMatch(std::string_view value, std::string_view pattern);

/// A LIKE pattern compiled once for matching many values, with LikeMatch's
/// semantics and ASCII case folding. Patterns without '_' whose literal
/// text is one run ("abc", "abc%", "%abc", "%abc%", "%", "") match by
/// exact / prefix / suffix / substring comparison; any other pattern falls
/// back to LikeMatch.
class LikePattern {
 public:
  explicit LikePattern(std::string_view pattern);

  bool Matches(std::string_view value) const;

 private:
  enum class Kind { kExact, kPrefix, kSuffix, kContains, kGeneral };

  Kind kind_ = Kind::kGeneral;
  // Case-folded literal text; the raw pattern for kGeneral.
  std::string text_;
};

}  // namespace apollo::util
