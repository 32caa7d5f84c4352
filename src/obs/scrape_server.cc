#include "obs/scrape_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace silkroad::obs {

namespace {

/// Pending-connection queue of the listening socket: one scraper at a time
/// is the expected load, so a small queue is plenty.
constexpr int kBacklog = 8;

/// "GET /path HTTP/1.0" -> "/path" (query strings stripped); empty on
/// anything that is not a GET request line.
std::string parse_get_path(const std::string& request) {
  if (request.rfind("GET ", 0) != 0) return "";
  const std::size_t start = 4;
  const std::size_t end = request.find(' ', start);
  if (end == std::string::npos) return "";
  std::string path = request.substr(start, end - start);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a scraper that hung up (a timed-out curl) must cost an
    // EPIPE, not a SIGPIPE that kills the process.
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; telemetry is best-effort
    sent += static_cast<std::size_t>(n);
  }
}

std::string http_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(status);
  out += " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

ScrapeServer::ScrapeServer(const Options& options) : options_(options) {}

void ScrapeServer::handle(const std::string& path,
                          const std::string& content_type, Handler handler) {
  routes_[path] = {content_type, std::move(handler)};
}

void ScrapeServer::handle_prefix(const std::string& prefix,
                                 const std::string& content_type,
                                 PrefixHandler handler) {
  prefix_routes_[prefix] = {content_type, std::move(handler)};
}

void ScrapeServer::publish() {
  std::map<std::string, Response> bodies;
  // routes_ is a std::map, so the index is sorted and deterministic.
  std::string index = "routes:\n";
  for (const auto& [path, route] : routes_) {
    bodies[path] = {route.content_type, route.handler()};
    index += "  " + path + "\n";
  }
  for (const auto& [prefix, route] : prefix_routes_) {
    for (auto& [suffix, body] : route.handler()) {
      bodies.try_emplace(prefix + "/" + suffix,
                         Response{route.content_type, std::move(body)});
    }
    index += "  " + prefix + "/<id>\n";
  }
  const sr::MutexLock lock(mu_);
  published_.swap(bodies);
  route_index_.swap(index);
}

bool ScrapeServer::start() {
  if (running_.load()) return true;
  if (!routes_.contains("/healthz")) {
    routes_["/healthz"] = {"text/plain", [] { return std::string("ok\n"); }};
  }
  publish();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, kBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  running_.store(true);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void ScrapeServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Unblock accept(): shutdown() wakes it on Linux. The serve thread reads
  // listen_fd_ until it exits, so the fd is closed and cleared only after
  // the join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ScrapeServer::serve_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket closed by stop()
    }
    timeval timeout{};
    timeout.tv_sec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    serve_one(fd);
    ::close(fd);
  }
}

void ScrapeServer::serve_one(int fd) {
  char buf[1024];
  const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  const std::string path = parse_get_path(buf);
  requests_.fetch_add(1);
  if (path.empty()) {
    send_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                               "GET only\n"));
    return;
  }
  // Copy the response out under the lock and send it after releasing it, so
  // publish() never waits on a slow scraper. An unknown path answers with
  // the index of every route instead of a bare 404, so a mistyped scrape is
  // self-correcting.
  std::string response;
  {
    const sr::MutexLock lock(mu_);
    const auto it = published_.find(path);
    response = it != published_.end()
                   ? http_response(200, "OK", it->second.content_type,
                                   it->second.body)
                   : http_response(404, "Not Found", "text/plain",
                                   "not found: " + path + "\n" + route_index_);
  }
  send_all(fd, response);
}

bool scrape_port_from_env(std::uint16_t& port) {
  // srlint: allow(R8) telemetry endpoint config, read once at startup;
  // never feeds protocol decisions or the seeded simulation.
  const char* raw = std::getenv("SILKROAD_SCRAPE_PORT");
  if (raw == nullptr || *raw == '\0') return false;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 0 || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace silkroad::obs
