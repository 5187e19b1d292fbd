/// \file
/// Small string helpers shared by the lexers, printers, and reports.

#ifndef KERNELGPT_UTIL_STRINGS_H_
#define KERNELGPT_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kernelgpt::util {

/// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `needle` occurs in `haystack`.
bool Contains(std::string_view haystack, std::string_view needle);

/// Strict number parsers: the whole of `tok` must be the number (no
/// leading whitespace or '+', no trailing junk) and it must be in range
/// (strto* reports no ERANGE). On failure they return false and leave
/// `*out` untouched.
///
/// ParseU64 reads base `base` (0 = strtoull's 0x/0 prefix detection) and
/// rejects any sign; ParseI64 reads base 10 with at most one leading '-';
/// ParseF64 also accepts the %a hexfloats.
bool ParseU64(std::string_view tok, int base, uint64_t* out);
bool ParseI64(std::string_view tok, int64_t* out);
bool ParseF64(std::string_view tok, double* out);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view s);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Indents every line of `s` by `n` spaces.
std::string Indent(std::string_view s, int n);

/// Approximates an LLM tokenizer: counts whitespace/punctuation-delimited
/// chunks plus a per-character correction, mirroring the ~4 chars/token
/// rule of thumb. Used by the token meter.
size_t ApproxTokenCount(std::string_view s);

}  // namespace kernelgpt::util

#endif  // KERNELGPT_UTIL_STRINGS_H_
