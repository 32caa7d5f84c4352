// Minimal loopback HTTP scrape endpoint (DESIGN.md §10).
//
// Long-running sims and benches should be observable while they run:
// `SILKROAD_SCRAPE_PORT=9100 ./quickstart` then `curl
// localhost:9100/metrics`. This is deliberately the smallest server that
// Prometheus and curl can talk to — HTTP/1.0, GET only, exact-path routing,
// Connection: close, one request per connection, served sequentially on one
// background thread. It binds 127.0.0.1 only and is off unless explicitly
// started, so it never widens the attack surface of a batch run.
//
// Handlers are std::function<std::string()> registered per path before
// start(); they run on the server thread, so they must only touch
// thread-safe state (MetricsRegistry::snapshot() and every TimeSeriesRecorder
// accessor qualify). Registry pull callbacks read plain fields of the
// simulated switch; scraping while the simulation thread is mid-event is a
// benign telemetry race — tests scrape only while the sim is idle so
// sanitizer runs stay clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "check/thread_annotations.h"

namespace silkroad::obs {

class ScrapeServer {
 public:
  /// Body producer for one path; runs on the server thread per request.
  using Handler = std::function<std::string()>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral (query via port())
  };

  explicit ScrapeServer(const Options& options);
  ScrapeServer() : ScrapeServer(Options{}) {}
  ~ScrapeServer() { stop(); }

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Registers `handler` for exact path `path` (e.g. "/metrics"). Must be
  /// called before start(); later registrations are ignored.
  void handle(const std::string& path, const std::string& content_type,
              Handler handler);

  /// Body producer for a path family; receives the part of the request path
  /// after the registered prefix (no leading '/'). An empty return serves a
  /// 404 — the handler decides what suffixes exist.
  using PrefixHandler = std::function<std::string(const std::string& suffix)>;

  /// Registers `handler` for every path starting with `prefix` + "/" (e.g.
  /// prefix "/update" serves "/update/17"). Exact routes win over prefixes;
  /// among prefixes the longest match wins. Must be called before start().
  void handle_prefix(const std::string& prefix, const std::string& content_type,
                     PrefixHandler handler);

  /// Binds 127.0.0.1:<port>, spawns the server thread. Registers a default
  /// "/healthz" ("ok\n") if none was added. Returns false if the socket
  /// could not be bound (port taken, sandbox).
  bool start();

  /// Shuts the listening socket and joins the thread. Idempotent.
  void stop();

  bool running() const noexcept { return running_.load(); }
  /// The bound port (resolves ephemeral port 0); 0 before start().
  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t requests_served() const noexcept { return requests_.load(); }

 private:
  struct Route {
    std::string content_type;
    Handler handler;
  };
  struct PrefixRoute {
    std::string content_type;
    PrefixHandler handler;
  };

  void serve_loop();
  void serve_one(int fd);

  Options options_;
  /// Written by handle()/handle_prefix()/start() on the owning thread, read
  /// per request on the server thread; mu_ makes late registration a benign
  /// no-op instead of a race once multi-threaded drivers appear.
  mutable sr::Mutex mu_;
  std::map<std::string, Route> routes_ SR_GUARDED_BY(mu_);
  std::map<std::string, PrefixRoute> prefix_routes_ SR_GUARDED_BY(mu_);
  /// Set by start() before the serve thread exists and cleared by stop()
  /// only after joining it, so the serve loop reads it without a lock.
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

/// Reads SILKROAD_SCRAPE_PORT; returns true and sets `port` when the
/// variable is present and a valid port number (0 = ephemeral is allowed).
bool scrape_port_from_env(std::uint16_t& port);

}  // namespace silkroad::obs
