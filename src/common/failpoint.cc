#include "common/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "common/annotations.h"
#include "common/result.h"
#include "common/string_util.h"

namespace mcsm::failpoint {

namespace {

/// Parsed action for one armed site.
struct Spec {
  enum class Kind { kError, kDelay };
  Kind kind = Kind::kError;
  std::string message;                  ///< kError: custom message (optional)
  std::chrono::milliseconds delay{0};   ///< kDelay: sleep duration
  uint64_t every = 1;                   ///< fire on every Nth hit
  uint64_t hits = 0;                    ///< hits so far (for `every`)
};

/// Armed sites. Guarded by a mutex: the map is only touched when a failpoint
/// is armed (tests, chaos runs), never on the production fast path.
struct Registry {
  Mutex mu;
  std::map<std::string, Spec, std::less<>> armed MCSM_GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

constexpr const char* kAllSites[] = {
    kCsvRead, kCsvWrite, kIndexSimilar, kIndexPattern, kSamplerSample,
    kServiceAccept, kServiceJob, kClientConnect, kClientRead, kPagerRead,
    kPagerWrite,
};

bool IsRegisteredSite(std::string_view site) {
  for (const char* s : kAllSites) {
    if (site == s) return true;
  }
  return false;
}

/// Parses one spec ("error", "error:msg", "delay:50ms", each with an
/// optional "@N" stride suffix).
Result<Spec> ParseSpec(std::string_view text) {
  Spec spec;
  // Stride suffix first: "...@N".
  size_t at = text.rfind('@');
  if (at != std::string_view::npos) {
    std::string count(text.substr(at + 1));
    char* end = nullptr;
    unsigned long long n = std::strtoull(count.c_str(), &end, 10);
    if (end == count.c_str() || *end != '\0' || n == 0) {
      return Status::InvalidArgument(
          StrFormat("failpoint stride must be a positive integer: '%s'",
                    std::string(text).c_str()));
    }
    spec.every = n;
    text = text.substr(0, at);
  }
  std::string_view action = text;
  std::string_view arg;
  size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    action = text.substr(0, colon);
    arg = text.substr(colon + 1);
  }
  if (action == "error") {
    spec.kind = Spec::Kind::kError;
    spec.message = std::string(arg);
    return spec;
  }
  if (action == "delay") {
    spec.kind = Spec::Kind::kDelay;
    if (!EndsWith(arg, "ms")) {
      return Status::InvalidArgument(
          StrFormat("failpoint delay must be '<N>ms': '%s'",
                    std::string(text).c_str()));
    }
    std::string digits(arg.substr(0, arg.size() - 2));
    char* end = nullptr;
    unsigned long long ms = std::strtoull(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("failpoint delay must be '<N>ms': '%s'",
                    std::string(text).c_str()));
    }
    // Cap the sleep so a typo cannot turn a chaos run into a hang.
    spec.delay = std::chrono::milliseconds(std::min<unsigned long long>(ms, 1000));
    return spec;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown failpoint action '%s' (want error[:msg] or delay:<N>ms)",
      std::string(action).c_str()));
}

}  // namespace

namespace internal {

std::atomic<int> g_armed_count{0};

/// One-shot latch for the lazy MCSM_FAILPOINTS parse. Set via CAS *before*
/// arming so the recursion EnsureEnvLoaded -> ArmFromSpecList -> Arm ->
/// EnsureEnvLoaded returns immediately, and consumed by every
/// registry-mutating entry point so a later lazy load can never resurrect
/// env arms that a programmatic Disarm/DisarmAll already cleared.
std::atomic<bool> g_env_loaded{false};

void EnsureEnvLoaded() {
  bool expected = false;
  // Audited 2026-08: a loser may observe g_armed_count == 0 while the winner
  // is still parsing — a benign, documented first-call race ("the first call
  // parses"), not an ordering bug, so no upgrade is needed.
  // ordering: acq_rel — the winner's release publishes nothing by itself
  // (arming happens after, under the registry mutex); the acquire side keeps
  // a losing thread from speculating past the latch.
  if (!g_env_loaded.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
  const char* env = std::getenv("MCSM_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    Status st = ArmFromSpecList(env);
    if (!st.ok()) {
      // Arming from the environment happens before any test assertion can
      // see it; a malformed spec must be loud, not silently ignored.
      std::fprintf(stderr, "MCSM_FAILPOINTS: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
}

}  // namespace internal

std::vector<std::string> RegisteredSites() {
  return std::vector<std::string>(std::begin(kAllSites), std::end(kAllSites));
}

Status Trigger(std::string_view site) {
  Spec fire;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mu);
    auto it = registry.armed.find(site);
    if (it == registry.armed.end()) return Status::OK();
    Spec& spec = it->second;
    ++spec.hits;
    if (spec.hits % spec.every != 0) return Status::OK();
    fire = spec;
  }
  if (fire.kind == Spec::Kind::kDelay) {
    std::this_thread::sleep_for(fire.delay);
    return Status::OK();
  }
  return Status::Internal(
      fire.message.empty()
          ? StrFormat("failpoint '%s' armed", std::string(site).c_str())
          : fire.message);
}

Status Arm(std::string_view site, std::string_view spec_text) {
  internal::EnsureEnvLoaded();
  if (!IsRegisteredSite(site)) {
    return Status::InvalidArgument(StrFormat(
        "unknown failpoint site '%s'", std::string(site).c_str()));
  }
  MCSM_ASSIGN_OR_RETURN(Spec spec, ParseSpec(spec_text));
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto [it, inserted] = registry.armed.insert_or_assign(std::string(site), spec);
  (void)it;
  if (inserted) {
    // ordering: relaxed — the count is an advisory gate for Enabled(); the
    // armed map itself is published by the registry mutex.
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ArmFromSpecList(std::string_view list) {
  for (const std::string& entry : Split(list, ';')) {
    std::string_view item = Trim(entry);
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(StrFormat(
          "failpoint entry missing '=': '%s'", std::string(item).c_str()));
    }
    MCSM_RETURN_IF_ERROR(Arm(Trim(item.substr(0, eq)),
                             Trim(item.substr(eq + 1))));
  }
  return Status::OK();
}

void Disarm(std::string_view site) {
  internal::EnsureEnvLoaded();
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.armed.find(site);
  if (it == registry.armed.end()) return;
  registry.armed.erase(it);
  // ordering: relaxed — advisory gate, see Arm(); the erase is published by
  // the registry mutex.
  internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  internal::EnsureEnvLoaded();
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  // ordering: relaxed — advisory gate, see Arm().
  internal::g_armed_count.fetch_sub(static_cast<int>(registry.armed.size()),
                                    std::memory_order_relaxed);
  registry.armed.clear();
}

void ReloadFromEnv() {
  DisarmAll();
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
  const char* env = std::getenv("MCSM_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    // The env was validated at startup (EnsureEnvLoaded aborts otherwise).
    Status st = ArmFromSpecList(env);
    (void)st;
  }
}

}  // namespace mcsm::failpoint
