#include "serve/socket_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault_injector.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace memo::serve {

namespace {

/// Writes the whole buffer, tolerating partial writes and EINTR. MSG_NOSIGNAL
/// turns a dead peer into an error return instead of SIGPIPE.
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Count(const char* name) {
  obs::MetricsRegistry::Global().counter(name)->Increment();
}

}  // namespace

SocketServer::SocketServer(PlanServer* server,
                           const SocketServerOptions& options)
    : server_(server), options_(options) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("socket_path must not be empty");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path too long: " +
                                options_.socket_path);
  }
  // Replace a stale socket file from a dead server, but refuse to unlink
  // anything that is not a socket — a typo'd --socket must never delete a
  // regular file.
  struct stat st{};
  if (::lstat(options_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return InvalidArgumentError(options_.socket_path +
                                  " exists and is not a socket");
    }
    ::unlink(options_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = InternalError("bind(" + options_.socket_path +
                                        "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status =
        InternalError(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd shut down (Stop/BeginDrain) or fatal error
    }
    // Join threads of connections that have since closed, so a long-lived
    // server does not accumulate one dead std::thread per past connection.
    ReapFinished();
    bool refuse = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire) || draining_) {
        ::close(fd);
        break;
      }
      if (options_.max_connections > 0 &&
          static_cast<int>(connections_.size()) >= options_.max_connections) {
        // At the cap: evict the stalest connection that is not mid-request
        // (slow-loris defense — idle holders lose their slot to newcomers).
        // The count may transiently exceed the cap by one while the evicted
        // owner notices the shutdown and unwinds.
        auto stalest = connections_.end();
        for (auto it = connections_.begin(); it != connections_.end(); ++it) {
          if (it->second.in_request) continue;
          if (stalest == connections_.end() ||
              it->second.last_activity < stalest->second.last_activity) {
            stalest = it;
          }
        }
        if (stalest != connections_.end()) {
          Count("serve.conn.evicted");
          ::shutdown(stalest->second.fd, SHUT_RDWR);
        } else {
          refuse = true;  // every connection is busy: the newcomer loses
        }
      }
      if (!refuse) {
        const std::uint64_t id = next_connection_id_++;
        Connection conn;
        conn.fd = fd;
        conn.last_activity = std::chrono::steady_clock::now();
        connections_.emplace(id, conn);
        connection_threads_.emplace(
            id, std::thread([this, id, fd] { ServeConnection(id, fd); }));
      }
    }
    if (refuse) {
      Count("serve.conn.refused");
      WriteAll(fd,
               BuildErrorResponseLine(UnavailableError(
                   "connection limit reached and all connections busy")) +
                   "\n");
      ::close(fd);
    }
  }
  ReapFinished();
  std::lock_guard<std::mutex> lock(mu_);
  accept_done_ = true;
  stopped_cv_.notify_all();
}

void SocketServer::CountRequest() {
  const std::int64_t served =
      requests_served_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_requests >= 0 && served >= options_.max_requests) {
    // Budget exhausted. This runs on a connection thread, so it must not
    // join anything — just signal; Wait() then unblocks and the owner's
    // Stop() (or the destructor) does the joins.
    RequestStop();
  }
}

bool SocketServer::HandleLine(std::uint64_t id, int fd,
                              const std::string& line) {
  if (line.empty()) return true;
  // Each line is read once; `health` alone is the probe's short form.
  JsonObject object;
  const Status read =
      line == "health" ? OkStatus() : ReadJsonObject(line, &object);
  const bool is_health =
      line == "health" || (read.ok() && object.Get("kind") == "health");
  std::string response;
  if (is_health) {
    // Health never touches the solver and never spends --max-requests
    // budget, so harness pollers cannot exhaust a budgeted server.
    HealthSnapshot health;
    const PlanCache::Stats cache = server_->cache().stats();
    {
      std::lock_guard<std::mutex> lock(mu_);
      health.draining = draining_ || stopping_.load(std::memory_order_acquire);
      health.connections = static_cast<int>(connections_.size());
    }
    health.queue_depth = server_->queue_depth();
    health.requests_served = requests_served();
    health.cache_entries = cache.entries;
    health.cache_hits = cache.hits;
    health.cache_misses = cache.misses;
    health.cache_resident_bytes = cache.resident_bytes;
    response = BuildHealthResponseLine(health);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = connections_.find(id);
      if (it != connections_.end()) it->second.in_request = true;
    }
    const auto request = ParsePlanRequestObject(read, object);
    if (!request.ok()) {
      response = BuildErrorResponseLine(request.status());
    } else {
      const Deadline deadline =
          options_.request_deadline_ms > 0
              ? Deadline::AfterMillis(options_.request_deadline_ms)
              : Deadline::Infinite();
      const QueryOutcome outcome = server_->Query(*request, deadline);
      if (!outcome.status.ok()) {
        response = BuildErrorResponseLine(outcome.status);
      } else {
        response = BuildResponseLine(outcome.plan->result.status,
                                     outcome.fingerprint, outcome.cache_hit,
                                     outcome.plan->payload);
      }
    }
  }
  response += '\n';
  bool written = FaultInjector::Global().MaybeFail("serve.conn_send").ok() &&
                 WriteAll(fd, response);
  if (!is_health) {
    CountRequest();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.find(id);
    if (it != connections_.end()) it->second.in_request = false;
  }
  return written;
}

void SocketServer::ServeConnection(std::uint64_t id, int fd) {
  std::string buffer;
  char chunk[4096];
  const std::size_t max_line =
      options_.max_line_bytes > 0
          ? static_cast<std::size_t>(options_.max_line_bytes)
          : static_cast<std::size_t>(-1);
  while (true) {
    // Poll with the idle budget as the timeout so a silent peer is noticed
    // without a watchdog thread.
    int timeout_ms = -1;
    if (options_.idle_timeout_ms > 0) {
      std::chrono::steady_clock::time_point last;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = connections_.find(id);
        if (it == connections_.end()) break;
        last = it->second.last_activity;
      }
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - last)
                            .count();
      timeout_ms = static_cast<int>(
          std::max<std::int64_t>(0, options_.idle_timeout_ms - idle));
    }
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle timeout: tell the (possibly slow-loris) peer why, then hang up.
      Count("serve.conn.idle_timeout");
      WriteAll(fd, BuildErrorResponseLine(UnavailableError(
                       "idle timeout: no request activity")) +
                       "\n");
      break;
    }
    if (!FaultInjector::Global().MaybeFail("serve.conn_recv").ok()) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or Stop/drain shut the fd down
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = connections_.find(id);
      if (it != connections_.end()) {
        it->second.last_activity = std::chrono::steady_clock::now();
      }
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    bool close_connection = false;
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos &&
           newline <= max_line) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!HandleLine(id, fd, line)) {
        close_connection = true;
        break;
      }
    }
    if (close_connection) break;
    if (std::min(newline, buffer.size()) > max_line) {
      // A line over the cap, whole or partial, can never become a valid
      // request; refusing it here bounds per-connection memory.
      Count("serve.conn.oversized");
      WriteAll(fd, BuildErrorResponseLine(InvalidArgumentError(
                       "request line exceeds max_line_bytes")) +
                       "\n");
      CountRequest();
      break;
    }
    if (buffer.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) break;  // drained: all buffered lines answered
    }
  }
  {
    // Remove from the registry before closing, so a concurrent Stop()
    // cannot shutdown() a recycled descriptor number. The finished list
    // hands the thread object to ReapFinished (accept loop or Stop).
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(id);
    finished_.push_back(id);
    stopped_cv_.notify_all();
  }
  ::close(fd);
}

void SocketServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t id : finished_) {
      auto it = connection_threads_.find(id);
      if (it == connection_threads_.end()) continue;
      done.push_back(std::move(it->second));
      connection_threads_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& thread : done) {
    if (thread.joinable()) thread.join();
  }
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [&] {
    return stopped_ || (accept_done_ && connections_.empty());
  });
}

int SocketServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(connections_.size());
}

void SocketServer::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_.load(std::memory_order_acquire)) return;
    draining_ = true;
  }
  // Order matters: shed new queries first, then stop accepting, then nudge
  // idle connections. Busy connections answer their current request, see
  // draining_ with an empty buffer, and close themselves.
  server_->BeginDrain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (auto& entry : connections_) {
      if (!entry.second.in_request) ::shutdown(entry.second.fd, SHUT_RDWR);
    }
  }
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!drain_thread_.joinable()) {
    drain_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      const bool drained = stopped_cv_.wait_for(
          lock, std::chrono::milliseconds(std::max<std::int64_t>(
                    1, options_.drain_grace_ms)),
          [&] {
            return stopped_ ||
                   stopping_.load(std::memory_order_acquire) ||
                   connections_.empty();
          });
      lock.unlock();
      if (!drained) RequestStop();  // grace expired: force the stragglers
    });
  }
}

void SocketServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  // Unblock the accept loop and in-flight reads so every server thread
  // exits promptly. shutdown() (not close) keeps the descriptor numbers
  // valid until Stop joins the threads that own them.
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& entry : connections_) ::shutdown(entry.second.fd, SHUT_RDWR);
  stopped_cv_.notify_all();
}

void SocketServer::Stop() {
  RequestStop();
  // One Stop body at a time; a second caller blocks here until the first
  // finishes its joins, then runs through the (now empty) join lists.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  // The accept loop has exited, so connection_threads_ can no longer grow.
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& entry : connection_threads_) {
      connections.push_back(std::move(entry.second));
    }
    connection_threads_.clear();
    finished_.clear();
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  stopped_ = true;
  stopped_cv_.notify_all();
}

StatusOr<std::string> QueryOverSocket(const std::string& socket_path,
                                      const std::string& request_line,
                                      int connect_retries) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("bad socket path: " + socket_path);
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  int fd = -1;
  for (int attempt = 0;; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return InternalError(std::string("socket(): ") + std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    const int saved = errno;
    ::close(fd);
    fd = -1;
    if (attempt >= connect_retries) {
      return UnavailableError("connect(" + socket_path +
                              "): " + std::strerror(saved));
    }
    ::usleep(50 * 1000);
  }

  std::string line = request_line;
  if (line.empty() || line.back() != '\n') line += '\n';
  if (!WriteAll(fd, line)) {
    ::close(fd);
    return InternalError(std::string("send(): ") + std::strerror(errno));
  }

  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return UnavailableError("server closed the connection mid-response");
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  response.erase(response.find('\n'));
  return response;
}

}  // namespace memo::serve
