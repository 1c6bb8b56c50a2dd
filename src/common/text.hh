/**
 * @file
 * Small text utilities shared by CLI drivers and spec validation:
 * edit distance, nearest-name typo suggestions ("did you mean ...?"),
 * and the strict unsigned-integer decoder every numeric input uses.
 */
#ifndef ANVIL_COMMON_TEXT_HH
#define ANVIL_COMMON_TEXT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anvil {

/** Edit distance between two names (classic dynamic program). */
std::size_t edit_distance(std::string_view a, std::string_view b);

/**
 * The candidate closest to @p name, or nullopt when nothing is near.
 * Only a genuinely near miss is suggested — a typo, a dropped prefix
 * (within max(3, len/3) edits of the best candidate) — never an
 * arbitrary name that merely happens to be least far away.
 */
std::optional<std::string>
nearest_name(std::string_view name,
             const std::vector<std::string> &candidates);

/**
 * Parses all of @p text as an unsigned 64-bit integer (strtoull base 0:
 * decimal, 0x hex, 0 octal). Unlike bare strtoull, a sign, leading
 * blanks, trailing bytes, and values past 2^64-1 are all rejected.
 * @return nullopt when @p text is not exactly such a number.
 */
std::optional<std::uint64_t> parse_unsigned(const std::string &text);

}  // namespace anvil

#endif  // ANVIL_COMMON_TEXT_HH
