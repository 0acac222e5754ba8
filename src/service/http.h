#ifndef MCSM_SERVICE_HTTP_H_
#define MCSM_SERVICE_HTTP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "service/json.h"

namespace mcsm::service {

/// One parsed HTTP/1.1 request. The parser keeps only what the service
/// needs: method, path (query string split off), headers, body.
struct HttpRequest {
  std::string method;  ///< Uppercase as sent: "GET", "POST", ...
  std::string path;    ///< Absolute path, query string removed.
  std::string query;   ///< Raw query string without the '?'; may be empty.
  std::vector<std::pair<std::string, std::string>> headers;  ///< Names lowered.
  std::string body;

  /// Case-insensitive header lookup (names are lowered at parse time, so the
  /// argument must be lowercase). Returns empty view when absent.
  std::string_view Header(std::string_view lowered_name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (e.g. "Retry-After" on 429). Content-Type/
  /// Content-Length/Connection are emitted by SerializeResponse and must not
  /// be duplicated here.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Parser limits. The fuzzer drives the parser with these defaults; the
/// server enforces the same bounds so a hostile peer cannot balloon memory.
struct HttpLimits {
  size_t max_head_bytes = 16 * 1024;      ///< Request line + headers.
  size_t max_body_bytes = 8 * 1024 * 1024;
  size_t max_headers = 64;
};

/// Locates the end of the header section ("\r\n\r\n") in a byte stream.
/// Returns the offset one past the terminator, or 0 when not yet complete.
size_t FindHeadEnd(std::string_view data);

/// Parses a complete request (head + body already assembled by the caller).
/// `head_end` is the value FindHeadEnd returned. Rejects malformed request
/// lines, oversized header counts, and non-numeric Content-Length.
Result<HttpRequest> ParseHttpRequest(std::string_view data, size_t head_end,
                                     const HttpLimits& limits);

/// Status line reason phrase for the handful of codes the service emits.
const char* StatusText(int status);

/// Renders a full HTTP/1.1 response with Content-Length and
/// "Connection: close" (the server is strictly one-request-per-connection).
std::string SerializeResponse(const HttpResponse& response);

/// A JSON response; object bodies gain "schema_version": 1, the wire-format
/// version.
HttpResponse JsonResponse(int status, Json body);

/// {"error": message, "schema_version": 1} with the given status.
HttpResponse ErrorResponse(int status, std::string_view message);

/// Strips the "/v1" API prefix: "/v1/jobs" -> "/jobs". A path outside /v1/
/// maps to the empty path, which no route matches (404).
std::string_view NormalizePath(std::string_view path);

/// Parses the {id} tail of /jobs/{id}; false for empty/non-numeric tails.
bool ParseJobId(std::string_view tail, uint64_t* id);

/// \brief Minimal embedded HTTP/1.1 server: one blocking accept-loop thread
/// plus a Background worker pool that parses, dispatches to the handler, and
/// writes the response. Connections are one-shot (Connection: close), which
/// keeps the state machine trivial and is plenty for a control-plane API.
///
/// Lifecycle: Start() binds/listens and spawns the accept thread; Shutdown()
/// stops accepting, closes the listener, and drains in-flight handlers
/// (pool destructor joins). Both are idempotent enough for signal-driven
/// shutdown: the signal handler just stores a flag; the main thread calls
/// Shutdown().
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    int port = 0;           ///< 0 = kernel-assigned ephemeral port.
    size_t workers = 4;     ///< Connection-handling threads.
    int io_timeout_ms = 5000;  ///< Per-socket read/write timeout.
    HttpLimits limits;
  };

  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:port, listens, and starts the accept loop.
  Status Start();

  /// Stops accepting, closes the listener, and waits for in-flight
  /// connections to finish. Safe to call more than once.
  void Shutdown();

  /// The bound port (valid after Start(); useful with port = 0).
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  Options options_;
  Handler handler_;
  // listen_fd_/port_/accept_thread_/pool_ are written by Start() before any
  // concurrency exists and torn down by the first Shutdown() caller after
  // the accept thread is joined — their discipline is thread start/join
  // happens-before, not a lock (the accept thread must never block on
  // shutdown_mu_, or Shutdown()'s join-under-lock would deadlock).
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  Mutex shutdown_mu_;  ///< Serializes Shutdown() callers.
  bool shutdown_done_ MCSM_GUARDED_BY(shutdown_mu_) = false;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mcsm::service

#endif  // MCSM_SERVICE_HTTP_H_
