#ifndef UCR_UTIL_STRING_UTIL_H_
#define UCR_UTIL_STRING_UTIL_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ucr {

/// Transparent string hash: a `StringMap` built on it answers `find`
/// for a `std::string_view` key without materializing a temporary
/// `std::string` (C++20 heterogeneous lookup).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Name-keyed hash map with allocation-free by-view lookup.
template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

/// Splits `input` on `delim`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; returns false on any non-digit or
/// overflow, leaving `out` untouched.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parses a double via strtod semantics; whole string must be consumed.
bool ParseDouble(std::string_view s, double* out);

/// Formats `value` with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

}  // namespace ucr

#endif  // UCR_UTIL_STRING_UTIL_H_
