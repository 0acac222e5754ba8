// The discovery service daemon:
//
//   mcsm_serve [--port N] [--port-file PATH] [--workers N]
//              [--job-workers N] [--max-queue N] [--cache-mb N]
//              [--degrade-at N] [--degrade-formula-cap N]
//              [--preload NAME=FILE.csv]...
//              [--route-to HOST:PORT,HOST:PORT,...]
//              [--health-interval-ms N]
//
// Serves the embedded HTTP API on 127.0.0.1 (see README "Serving"):
// register CSV tables, submit discovery jobs with a per-job deadline_ms,
// poll job state, scrape /v1/metrics. --port 0 binds an ephemeral port;
// --port-file writes the bound port to PATH so scripts (the CI smoke test)
// can find it. --preload registers tables at startup without a client.
//
// --degrade-at arms the admission gate: past that queue depth, new jobs run
// with tightened work caps (--degrade-formula-cap) and return truncated-but-
// valid partials before the queue fills and the service sheds with 429.
//
// --route-to turns the process into a cluster router (see README
// "Clustering"): it owns no tables and runs no jobs, but forwards
// /v1/tables and /v1/jobs to the replica that owns them on a consistent-hash
// ring, health-checks members, and replays jobs on a healthy peer when their
// replica dies.
//
// SIGTERM/SIGINT drain gracefully: flip /v1/healthz to "draining" (so
// routers stop sending new work), finish queued + running jobs while still
// answering polls, then stop the listener and exit 0. A second signal exits
// immediately.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/string_util.h"
#include "service/cluster.h"
#include "service/http.h"
#include "service/service.h"

using namespace mcsm;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int /*sig*/) {
  if (g_shutdown) _exit(130);  // second signal: hard exit
  g_shutdown = 1;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "error: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

Result<std::string> SlurpFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::string out;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

int WritePortFile(const std::string& path, int port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --port-file %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "%d\n", port);
  std::fclose(f);
  return 0;
}

void InstallSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Router mode: forward to the member list instead of serving locally.
int RunRouter(int port, const std::string& port_file, size_t http_workers,
              const std::string& route_to, int health_interval_ms) {
  auto members = service::ParseMemberList(route_to);
  if (!members.ok()) return Fail("--route-to", members.status());

  service::HealthChecker::Options health_options;
  health_options.interval_ms = health_interval_ms;
  service::HealthChecker health(members.value(), health_options);
  // One synchronous sweep before accepting traffic so the first request
  // already routes around members that are down at boot.
  health.ProbeOnce();
  health.Start();

  service::ClusterRouter::Options router_options;
  service::ClusterRouter router(members.value(), &health, router_options);

  service::HttpServer::Options http_options;
  http_options.port = port;
  http_options.workers = http_workers;
  service::HttpServer server(
      http_options, [&router](const service::HttpRequest& request) {
        return router.Handle(request);
      });
  if (Status st = server.Start(); !st.ok()) return Fail("start", st);
  if (!port_file.empty()) {
    if (int rc = WritePortFile(port_file, server.port()); rc != 0) return rc;
  }

  InstallSignalHandlers();
  std::printf("mcsm_serve routing on 127.0.0.1:%d to %s "
              "(%zu http workers, health every %dms)\n",
              server.port(), route_to.c_str(), http_workers,
              health_interval_ms);
  std::fflush(stdout);

  while (!g_shutdown) {
    pause();  // signals wake us
  }

  std::printf("draining: stopping router...\n");
  std::fflush(stdout);
  server.Shutdown();
  health.Stop();
  std::printf("drained; bye\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 8080;
  std::string port_file;
  size_t http_workers = 4;
  std::string route_to;
  int health_interval_ms = 500;
  service::DiscoveryService::Options service_options;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      http_workers = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--job-workers") == 0 && i + 1 < argc) {
      service_options.job_workers = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc) {
      service_options.max_queue = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      service_options.cache_bytes =
          static_cast<size_t>(std::atol(argv[++i])) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--degrade-at") == 0 && i + 1 < argc) {
      service_options.degrade_at = static_cast<size_t>(std::atol(argv[++i]));
      if (service_options.degraded_limits.max_candidate_formulas == 0) {
        // A watermark without caps would be a no-op; default to a formula
        // cap that still yields a valid (truncated, deterministic) partial.
        service_options.degraded_limits.max_candidate_formulas = 256;
      }
    } else if (std::strcmp(argv[i], "--degrade-formula-cap") == 0 &&
               i + 1 < argc) {
      service_options.degraded_limits.max_candidate_formulas =
          static_cast<uint64_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--route-to") == 0 && i + 1 < argc) {
      route_to = argv[++i];
    } else if (std::strcmp(argv[i], "--health-interval-ms") == 0 &&
               i + 1 < argc) {
      health_interval_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--preload") == 0 && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "--preload wants NAME=FILE.csv, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--port-file PATH] [--workers N] "
                   "[--job-workers N] [--max-queue N] [--cache-mb N] "
                   "[--degrade-at N] [--degrade-formula-cap N] "
                   "[--preload NAME=FILE.csv]... "
                   "[--route-to HOST:PORT,...] [--health-interval-ms N]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!route_to.empty()) {
    if (!preloads.empty()) {
      std::fprintf(stderr,
                   "--preload and --route-to are mutually exclusive: a "
                   "router owns no tables (POST them; the router forwards)\n");
      return 2;
    }
    return RunRouter(port, port_file, http_workers, route_to,
                     health_interval_ms);
  }

  service::DiscoveryService discovery(service_options);
  for (const auto& [name, path] : preloads) {
    auto csv = SlurpFile(path);
    if (!csv.ok()) return Fail("preload", csv.status());
    auto entry = discovery.registry().RegisterCsv(name, csv.value());
    if (!entry.ok()) return Fail(path.c_str(), entry.status());
    std::printf("preloaded '%s' from %s: %zu rows, %zu columns\n",
                name.c_str(), path.c_str(), entry.value().rows,
                entry.value().columns);
  }

  service::HttpServer::Options http_options;
  http_options.port = port;
  http_options.workers = http_workers;
  service::HttpServer server(
      http_options,
      [&discovery](const service::HttpRequest& request) {
        return discovery.Handle(request);
      });
  if (Status st = server.Start(); !st.ok()) return Fail("start", st);
  if (!port_file.empty()) {
    if (int rc = WritePortFile(port_file, server.port()); rc != 0) return rc;
  }

  InstallSignalHandlers();

  std::printf("mcsm_serve listening on 127.0.0.1:%d "
              "(%zu http workers, %zu job workers, queue %zu)\n",
              server.port(), http_workers, service_options.job_workers,
              service_options.max_queue);
  std::fflush(stdout);

  while (!g_shutdown) {
    pause();  // signals wake us
  }

  std::printf("draining: finishing jobs...\n");
  std::fflush(stdout);
  // Drain order matters for the cluster story: flip healthz to "draining"
  // FIRST and keep answering HTTP while jobs finish, so routers both stop
  // sending new work and can still poll in-flight jobs to completion. Only
  // then stop the listener.
  discovery.BeginDrain();     // /v1/healthz -> 503 {"status":"draining"}
  discovery.jobs().Drain();   // queued + running jobs reach a terminal state
  server.Shutdown();          // stop accepting, finish in-flight requests
  std::printf("drained; bye\n");
  return 0;
}
