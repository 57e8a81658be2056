#ifndef MEMO_SERVE_SOCKET_SERVER_H_
#define MEMO_SERVE_SOCKET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/server.h"

namespace memo::serve {

struct SocketServerOptions {
  /// Filesystem path of the AF_UNIX listening socket. A stale socket file
  /// at this path is replaced; a non-socket file is an error (never
  /// unlinked).
  std::string socket_path;
  /// Stop accepting and shut down after this many requests have been
  /// answered (protocol errors included; health probes excluded). < 0 =
  /// serve forever. Lets tests and benches run a bounded server without
  /// signal plumbing.
  std::int64_t max_requests = -1;
  /// Per-request time budget applied at admission; a request still queued
  /// at expiry is answered DEADLINE_EXCEEDED without reaching a solver, and
  /// a running solve aborts at the next phase boundary. 0 = unlimited; the
  /// default is ~4x the slowest planning request measured (DESIGN.md §14).
  std::int64_t request_deadline_ms = 120000;
  /// Close a connection that has sent no bytes for this long (slow-loris
  /// defense; an idle client gets an UNAVAILABLE error line first). 0 =
  /// never time out.
  std::int64_t idle_timeout_ms = 0;
  /// Longest accepted request line. A connection that exceeds it mid-line
  /// gets one INVALID_ARGUMENT error line and is closed — the buffer is the
  /// only per-connection allocation that grows with client input, so this
  /// bounds per-connection memory.
  std::int64_t max_line_bytes = 1 << 20;
  /// Concurrent connections. At the cap, accepting a new connection first
  /// evicts the stalest connection that is not mid-request; if every
  /// connection is busy the new one is refused with an UNAVAILABLE error
  /// line. 0 = unlimited.
  int max_connections = 0;
  /// How long BeginDrain waits for in-flight connections before forcing a
  /// full stop.
  std::int64_t drain_grace_ms = 5000;
};

/// Newline-delimited JSON over a Unix-domain stream socket, one PlanServer
/// behind it. Each connection gets a reader thread driving a poll() loop
/// (so idle timeouts fire without a watchdog); each request line is parsed,
/// answered via PlanServer::Query (which may shed), and the response line
/// written back. Malformed lines produce an error response on the same
/// connection rather than killing it. Each line is read once
/// (ReadJsonObject): the line `health`, or an object whose kind is
/// "health", answers with server state without touching the solver.
///
/// Fault sites (chaos soak): "serve.conn_recv" and "serve.conn_send" drop
/// the connection at the respective I/O step when armed.
class SocketServer {
 public:
  SocketServer(PlanServer* server, const SocketServerOptions& options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and starts the accept loop. Fails if the path is
  /// occupied by a non-socket file or the bind/listen syscalls fail.
  Status Start();

  /// Blocks until the server stops (Stop() from another thread, the
  /// max_requests budget is exhausted, or a drain completes: no listener
  /// and no live connections).
  void Wait();

  /// Graceful shutdown, phase one: stop accepting new connections, shed
  /// new queries with UNAVAILABLE ("draining"), let in-flight queries
  /// finish. Connections close once their buffered lines are answered.
  /// After drain_grace_ms a full stop is forced. Wait() returns when the
  /// last connection ends; the caller then runs Stop() for the joins.
  /// Idempotent; safe to trigger from a signal-watcher thread.
  void BeginDrain();

  /// Stops accepting, unblocks in-flight connection reads, joins all
  /// threads and removes the socket file. Idempotent.
  void Stop();

  std::int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  int active_connections() const;

 private:
  /// Registry entry for one live connection; `thread` is kept separately so
  /// eviction can shutdown() the fd without touching the thread object.
  struct Connection {
    int fd = -1;
    std::chrono::steady_clock::time_point last_activity;
    bool in_request = false;  // eviction spares connections mid-request
  };

  void AcceptLoop();
  void ServeConnection(std::uint64_t id, int fd);
  /// Handles one complete request line; returns false when the connection
  /// should close (write failure or injected send fault).
  bool HandleLine(std::uint64_t id, int fd, const std::string& line);
  /// Joins threads of connections that have exited. Called from the accept
  /// loop and Stop; never from a connection thread.
  void ReapFinished();
  /// Records an answered request; triggers RequestStop when the budget runs
  /// out.
  void CountRequest();
  /// Signals shutdown without joining anything: sets the stop flag and
  /// shuts down the listen + connection fds so blocked accept/poll calls
  /// return. Cheap, idempotent, and safe to call from a connection thread
  /// (unlike Stop, which joins those threads).
  void RequestStop();

  PlanServer* server_;
  SocketServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> requests_served_{0};

  /// Serializes Stop bodies so concurrent Stop calls (e.g. an explicit Stop
  /// racing the destructor) each return only after the joins are done.
  std::mutex stop_mu_;
  mutable std::mutex mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;
  bool accept_done_ = false;
  bool draining_ = false;
  std::uint64_t next_connection_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> connections_;
  std::unordered_map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_;  // ids whose threads have exited
  std::thread accept_thread_;
  std::thread drain_thread_;
};

/// Client side of the wire protocol: connects to `socket_path`, sends one
/// request line and returns the response line (newline stripped).
/// `connect_retries` > 0 retries a refused/missing socket with a short
/// sleep between attempts — for callers racing a freshly started server.
StatusOr<std::string> QueryOverSocket(const std::string& socket_path,
                                      const std::string& request_line,
                                      int connect_retries = 0);

}  // namespace memo::serve

#endif  // MEMO_SERVE_SOCKET_SERVER_H_
