#ifndef MCSM_COMMON_FAILPOINT_H_
#define MCSM_COMMON_FAILPOINT_H_

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mcsm::failpoint {

/// \brief Env-driven fault injection for chaos testing.
///
/// A failpoint is a named site in the code where a fault can be injected at
/// runtime — an error Status or a delay — without rebuilding. Sites are
/// armed either programmatically (tests) or through the environment:
///
///   MCSM_FAILPOINTS="csv.read=error;index.similar=delay:50ms"
///
/// Spec grammar, per site:
///   error                trigger returns an Internal error
///   error:<message>      ... with a custom message
///   delay:<N>ms          trigger sleeps N milliseconds (capped at 1000)
/// Either form may carry an "@<N>" suffix ("error@5"): the fault fires on
/// every Nth hit of the site and passes through otherwise, which lets fuzz
/// and chaos runs interleave failing and succeeding calls deterministically.
///
/// When nothing is armed the per-site cost is one relaxed atomic load
/// (Enabled() below), so production binaries pay effectively nothing.

/// Canonical site names. Arm() rejects names outside this list so a typo in
/// MCSM_FAILPOINTS fails loudly instead of silently never firing.
inline constexpr const char* kCsvRead = "csv.read";
inline constexpr const char* kCsvWrite = "csv.write";
inline constexpr const char* kIndexSimilar = "index.similar";
inline constexpr const char* kIndexPattern = "index.pattern";
inline constexpr const char* kSamplerSample = "sampler.sample";
inline constexpr const char* kServiceAccept = "service.accept";
inline constexpr const char* kServiceJob = "service.job";
inline constexpr const char* kClientConnect = "client.connect";
inline constexpr const char* kClientRead = "client.read";
inline constexpr const char* kPagerRead = "pager.read";
inline constexpr const char* kPagerWrite = "pager.write";

/// All registered sites (for chaos-suite enumeration).
std::vector<std::string> RegisteredSites();

namespace internal {
/// Number of armed sites; nonzero iff any failpoint can fire. Initialized
/// from MCSM_FAILPOINTS on first use (see EnsureEnvLoaded in failpoint.cc).
extern std::atomic<int> g_armed_count;
void EnsureEnvLoaded();
}  // namespace internal

/// Fast path: true when at least one site is armed. The first call parses
/// MCSM_FAILPOINTS; afterwards it is a single relaxed load.
inline bool Enabled() {
  internal::EnsureEnvLoaded();
  // ordering: relaxed — advisory gate only. A stale 0 skips Trigger() for a
  // site armed microseconds ago (acceptable: arming is not synchronized with
  // in-flight operations); a 1 sends the caller to Trigger(), whose registry
  // mutex provides the real synchronization.
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

/// Evaluates the site: returns the armed error, sleeps the armed delay, or
/// returns OK when the site is not armed (or its "@N" stride skips this
/// hit). Prefer the MCSM_FAILPOINT macro, which short-circuits via Enabled().
Status Trigger(std::string_view site);

/// Arms one site from a spec string ("error", "delay:50ms", "error@5", ...).
/// Fails on unknown sites and malformed specs.
Status Arm(std::string_view site, std::string_view spec);

/// Arms sites from a semicolon-separated list ("a=error;b=delay:10ms").
/// The MCSM_FAILPOINTS environment variable is parsed with this.
Status ArmFromSpecList(std::string_view list);

/// Disarms one site (no-op when not armed).
void Disarm(std::string_view site);

/// Disarms every site.
void DisarmAll();

/// Disarms everything, then re-arms whatever MCSM_FAILPOINTS specifies —
/// lets tests that arm programmatically restore the environment's state.
void ReloadFromEnv();

}  // namespace mcsm::failpoint

/// Injection point. Use inside functions returning Status or Result<T>:
/// propagates the armed error, sleeps the armed delay, no-ops when unarmed.
#define MCSM_FAILPOINT(site)                                      \
  do {                                                            \
    if (::mcsm::failpoint::Enabled()) {                           \
      MCSM_RETURN_IF_ERROR(::mcsm::failpoint::Trigger(site));     \
    }                                                             \
  } while (false)

#endif  // MCSM_COMMON_FAILPOINT_H_
