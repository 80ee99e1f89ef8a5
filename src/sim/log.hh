/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs), fatal() is for user/configuration errors,
 * and warn() is the one non-fatal status channel. It always prints:
 * every event worth less than a warning is a counter in sim::StatSet.
 */

#ifndef VG_SIM_LOG_HH
#define VG_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace vg::sim
{

/**
 * Report an unrecoverable internal error (a simulator bug) and abort.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad configuration or arguments)
 * and exit with status 1.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace vg::sim

#endif // VG_SIM_LOG_HH
