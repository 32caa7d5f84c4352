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
// One writer thread (DESIGN.md §13): route handlers run only inside
// publish(), on the thread that calls it — the simulation thread, the only
// thread that touches a model object. publish() swaps the rendered bodies
// into one published copy under the server's mutex, and the server thread
// serves that copy and nothing else. A scrape therefore shows the state of
// the last publish(); start() publishes once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/thread_annotations.h"

namespace silkroad::obs {

class ScrapeServer {
 public:
  /// Body producer for one path; runs inside publish().
  using Handler = std::function<std::string()>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral (query via port())
  };

  explicit ScrapeServer(const Options& options);
  ScrapeServer() : ScrapeServer(Options{}) {}
  ~ScrapeServer() { stop(); }

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Registers `handler` for exact path `path` (e.g. "/metrics"). It is
  /// served from the next publish() on.
  void handle(const std::string& path, const std::string& content_type,
              Handler handler);

  /// Body producer for a path family: every (suffix, body) pair the family
  /// serves right now. Suffixes carry no leading '/'.
  using PrefixHandler =
      std::function<std::vector<std::pair<std::string, std::string>>()>;

  /// Registers `handler` for the paths `prefix` + "/" + suffix (e.g. prefix
  /// "/update" serves "/update/17"). A path that is also an exact route is
  /// served by the exact route.
  void handle_prefix(const std::string& prefix, const std::string& content_type,
                     PrefixHandler handler);

  /// Runs every handler on the calling thread and swaps the bodies in as
  /// the copy the server thread serves. It never waits on a scraper: the
  /// server holds the lock only to copy one response out.
  void publish();

  /// Registers a default "/healthz" ("ok\n") if none was added, publishes,
  /// binds 127.0.0.1:<port> and spawns the server thread. Returns false if
  /// the socket could not be bound (port taken, sandbox).
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
  struct Response {
    std::string content_type;
    std::string body;
  };

  void serve_loop();
  void serve_one(int fd);

  Options options_;
  /// Registered and run on the publishing thread only.
  std::map<std::string, Route> routes_;
  std::map<std::string, PrefixRoute> prefix_routes_;
  /// The state the two threads share: written by publish(), read per
  /// request on the server thread.
  sr::Mutex mu_;
  std::map<std::string, Response> published_ SR_GUARDED_BY(mu_);
  /// Sorted listing of every route, the body of a 404.
  std::string route_index_ SR_GUARDED_BY(mu_);
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
