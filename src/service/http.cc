#include "service/http.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "service/io_util.h"

namespace mcsm::service {

namespace {

/// Wire-format version, included in every JSON object response.
constexpr int kSchemaVersion = 1;

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Best-effort Content-Length scan over the raw head, used only to decide
/// how many bytes to buffer before the real parse runs (which re-validates
/// strictly). Non-numeric values read as 0 — the strict parse 400s them.
size_t PeekContentLength(std::string_view head) {
  size_t cursor = 0;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (ToLower(line.substr(0, colon)) != "content-length") continue;
    std::string_view value = Trim(line.substr(colon + 1));
    size_t length = 0;
    for (char c : value) {
      if (c < '0' || c > '9') return 0;
      if (length > (1u << 30)) return length;  // already past any sane limit
      length = length * 10 + static_cast<size_t>(c - '0');
    }
    return length;
  }
  return 0;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view lowered_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowered_name) return value;
  }
  return {};
}

size_t FindHeadEnd(std::string_view data) {
  size_t pos = data.find("\r\n\r\n");
  if (pos == std::string_view::npos) return 0;
  return pos + 4;
}

Result<HttpRequest> ParseHttpRequest(std::string_view data, size_t head_end,
                                     const HttpLimits& limits) {
  if (head_end < 4 || head_end > data.size()) {
    return Status::ParseError("http: invalid head boundary");
  }
  if (head_end > limits.max_head_bytes) {
    return Status::ParseError("http: header section too large");
  }
  std::string_view head = data.substr(0, head_end - 2);  // keep final "\r\n"

  HttpRequest request;

  // Request line: METHOD SP request-target SP HTTP/1.x CRLF
  size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::ParseError("http: missing request line terminator");
  }
  std::string_view line = head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Status::ParseError("http: malformed request line");
  }
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || target.empty()) {
    return Status::ParseError("http: empty method or target");
  }
  for (char c : method) {
    if (c < 'A' || c > 'Z') {
      return Status::ParseError("http: method must be uppercase letters");
    }
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::ParseError("http: unsupported protocol version");
  }
  if (target[0] != '/') {
    return Status::ParseError("http: request target must be an absolute path");
  }
  request.method = std::string(method);
  size_t qpos = target.find('?');
  if (qpos == std::string_view::npos) {
    request.path = std::string(target);
  } else {
    request.path = std::string(target.substr(0, qpos));
    request.query = std::string(target.substr(qpos + 1));
  }

  // Header fields.
  size_t cursor = line_end + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) {
      return Status::ParseError("http: header line missing CRLF");
    }
    std::string_view field = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    if (field.empty()) break;
    size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("http: malformed header field");
    }
    std::string_view name = field.substr(0, colon);
    if (name.find(' ') != std::string_view::npos ||
        name.find('\t') != std::string_view::npos) {
      return Status::ParseError("http: whitespace in header name");
    }
    if (request.headers.size() >= limits.max_headers) {
      return Status::ParseError("http: too many header fields");
    }
    request.headers.emplace_back(ToLower(name),
                                 std::string(Trim(field.substr(colon + 1))));
  }

  // Body: Content-Length only. The service never needs chunked uploads, so
  // Transfer-Encoding is an explicit 'no' rather than a silent truncation.
  if (!request.Header("transfer-encoding").empty()) {
    return Status::ParseError("http: transfer-encoding not supported");
  }
  std::string_view length_header = request.Header("content-length");
  size_t content_length = 0;
  if (!length_header.empty()) {
    if (length_header.size() > 10) {
      return Status::ParseError("http: content-length too large");
    }
    for (char c : length_header) {
      if (c < '0' || c > '9') {
        return Status::ParseError("http: non-numeric content-length");
      }
      content_length = content_length * 10 + static_cast<size_t>(c - '0');
    }
  }
  if (content_length > limits.max_body_bytes) {
    return Status::ParseError("http: body too large");
  }
  if (data.size() - head_end < content_length) {
    return Status::ParseError("http: truncated body");
  }
  request.body = std::string(data.substr(head_end, content_length));
  return request;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              StatusText(response.status));
  out += StrFormat("Content-Type: %s\r\n", response.content_type.c_str());
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += StrFormat("%s: %s\r\n", name.c_str(), value.c_str());
  }
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse JsonResponse(int status, Json body) {
  if (body.is_object()) {
    body.Set("schema_version",
             Json::Number(static_cast<double>(kSchemaVersion)));
  }
  HttpResponse response;
  response.status = status;
  response.body = body.Dump();
  return response;
}

HttpResponse ErrorResponse(int status, std::string_view message) {
  Json out = Json::Object();
  out.Set("error", Json::Str(std::string(message)));
  return JsonResponse(status, std::move(out));
}

std::string_view NormalizePath(std::string_view path) {
  constexpr std::string_view kPrefix = "/v1/";
  if (path.substr(0, kPrefix.size()) != kPrefix) return {};
  return path.substr(kPrefix.size() - 1);  // keep the leading '/'
}

bool ParseJobId(std::string_view tail, uint64_t* id) {
  if (tail.empty() || tail.size() > 18) return false;
  uint64_t value = 0;
  for (char c : tail) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(  // NOLINTNEXTLINE(concurrency-mt-unsafe)
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(StrFormat(
        "bind(127.0.0.1:%d) failed: %s", options_.port,
        std::strerror(errno)));  // NOLINT(concurrency-mt-unsafe)
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Internal(  // NOLINTNEXTLINE(concurrency-mt-unsafe)
        StrFormat("listen() failed: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  pool_ = std::make_unique<ThreadPool>(
      ThreadPool::Background{std::max<size_t>(options_.workers, 1)});
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  // Serialized under a mutex: a second caller blocks until the first one
  // finished its joins, then returns — two threads must never race on
  // accept_thread_.join().
  MutexLock lock(shutdown_mu_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // ordering: release — pairs with the accept loop's acquire loads so a
  // worker that observes stopping_ also observes everything this thread did
  // before initiating shutdown (belt-and-braces; the listener shutdown()
  // below is what actually wakes the loop).
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocking accept(); close() alone is not reliable
    // for that across platforms. The close itself waits until the accept
    // thread is joined so the loop never touches a dead (or reused) fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  pool_.reset();  // drains queued connections, then joins workers
}

void HttpServer::AcceptLoop() {
  // Snapshot the listener fd: it is set before this thread starts, and
  // Shutdown() only mutates the member after joining this thread. The
  // local keeps that contract visible (and TSan-clean) here.
  const int listen_fd = listen_fd_;
  // ordering: acquire — pairs with Shutdown()'s release store (both loads in
  // this loop), see the comment there.
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener closed (shutdown) or fatal error: either way, stop.
      return;
    }
    // ordering: acquire — see loop condition above.
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    if (!failpoint::Trigger(failpoint::kServiceAccept).ok()) {
      // Chaos: drop the connection on the floor; the client sees a reset,
      // the server keeps serving.
      ::close(fd);
      continue;
    }
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void HttpServer::HandleConnection(int fd) {
  timeval tv{};
  tv.tv_sec = options_.io_timeout_ms / 1000;
  tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  const HttpLimits& limits = options_.limits;
  std::string buffer;
  size_t head_end = 0;
  size_t need = 0;  // total bytes required once the head is parsed
  HttpResponse response;
  bool have_request = false;
  HttpRequest request;

  char chunk[4096];
  for (;;) {
    ssize_t n = RecvSome(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      // Timeout, reset, or premature close before a full request arrived.
      ::close(fd);
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    if (head_end == 0) {
      head_end = FindHeadEnd(buffer);
      if (head_end == 0) {
        if (buffer.size() > limits.max_head_bytes) {
          response = {413, "application/json",
                      R"({"error":"header section too large"})", {}};
          break;
        }
        continue;
      }
      // Peek Content-Length so we know how much body to wait for; strict
      // validation happens in ParseHttpRequest once everything arrived.
      size_t content_length = PeekContentLength(buffer.substr(0, head_end));
      if (content_length > limits.max_body_bytes) {
        response = {413, "application/json",
                    R"({"error":"body too large"})", {}};
        break;
      }
      need = head_end + content_length;
    }
    if (buffer.size() >= need) {
      // Re-parse now that the whole body is in the buffer (the first parse
      // may have seen a truncated body).
      auto parsed = ParseHttpRequest(buffer, head_end, limits);
      if (!parsed.ok()) {
        response = {400, "application/json",
                    StrFormat(R"({"error":"%s"})",
                              parsed.status().message().c_str()),
                    {}};
      } else {
        request = std::move(parsed).value();
        have_request = true;
      }
      break;
    }
  }

  if (have_request) {
    response = handler_(request);
  }

  std::string wire = SerializeResponse(response);
  // Best-effort: a peer that hung up mid-response is its own problem.
  (void)SendAll(fd, wire.data(), wire.size());
  ::close(fd);
}

}  // namespace mcsm::service
