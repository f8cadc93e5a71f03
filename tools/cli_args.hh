/**
 * @file
 * Strict numeric flag values, shared by the command-line tools. A
 * value is taken whole or refused: decimal digits only for an integer
 * (no sign, space, base prefix or suffix, no overflow), a finite
 * decimal for a real. A refused value is reported on stderr as
 * "<flag> expects <what>, got '<value>'", and the tool exits 2.
 */

#ifndef CWSP_TOOLS_CLI_ARGS_HH
#define CWSP_TOOLS_CLI_ARGS_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace cwsp::cli {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/** @p v as a decimal integer in [@p min, @p max], or nothing. */
inline std::optional<std::uint64_t>
toInteger(std::string_view v, std::uint64_t min, std::uint64_t max)
{
    std::uint64_t n = 0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, n);
    if (ec != std::errc{} || ptr != end || n < min || n > max)
        return std::nullopt;
    return n;
}

/** Report that @p flag's value @p v is not @p what. */
inline void
reject(const std::string &flag, const std::string &what,
       std::string_view v)
{
    std::fprintf(stderr, "%s expects %s, got '%.*s'\n", flag.c_str(),
                 what.c_str(), static_cast<int>(v.size()), v.data());
}

/** The text "an integer in MIN..MAX". */
inline std::string
integerIn(std::uint64_t min, std::uint64_t max)
{
    return "an integer in " + std::to_string(min) + ".." +
           std::to_string(max);
}

/** The value @p v of @p flag as an integer in [@p min, @p max]. */
inline std::optional<std::uint64_t>
parseInteger(const std::string &flag, const char *v, std::uint64_t min,
             std::uint64_t max)
{
    auto n = toInteger(v, min, max);
    if (!n)
        reject(flag, integerIn(min, max), v);
    return n;
}

/** The value @p v of @p flag as an integer in [1, @p max]. */
inline std::optional<std::uint64_t>
parsePositive(const std::string &flag, const char *v, std::uint64_t max)
{
    return parseInteger(flag, v, 1, max);
}

/** The value @p v of @p flag as a positive finite real. */
inline std::optional<double>
parsePositiveReal(const std::string &flag, const char *v)
{
    const std::string_view s(v);
    double x = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, x);
    if (ec != std::errc{} || ptr != end || !std::isfinite(x) || !(x > 0)) {
        reject(flag, "a positive finite number", s);
        return std::nullopt;
    }
    return x;
}

} // namespace cwsp::cli

#endif // CWSP_TOOLS_CLI_ARGS_HH
