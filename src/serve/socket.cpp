#include "te/serve/socket.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "te/serve/wire.hpp"

namespace te::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  TE_REQUIRE(path.size() < sizeof(addr.sun_path),
             "socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Write the whole buffer, retrying on short writes / EINTR. A peer that
/// already hung up fails the write (EPIPE) instead of raising SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketFrontEnd::SocketFrontEnd(Server<float>& server, std::string path)
    : server_(server), path_(std::move(path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  TE_REQUIRE(listen_fd_ >= 0,
             "socket() failed: " << std::strerror(errno));
  ::unlink(path_.c_str());  // stale socket from a crashed process
  const sockaddr_un addr = make_addr(path_);
  TE_REQUIRE(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0,
             "bind(" << path_ << ") failed: " << std::strerror(errno));
  TE_REQUIRE(::listen(listen_fd_, 8) == 0,
             "listen(" << path_ << ") failed: " << std::strerror(errno));
  thread_ = std::thread([this] { accept_loop(); });
}

SocketFrontEnd::~SocketFrontEnd() { stop(); }

void SocketFrontEnd::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true);
  thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(path_.c_str());
}

void SocketFrontEnd::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void SocketFrontEnd::serve_connection(int fd) {
  // Never block indefinitely in read(): connections are served one at a
  // time, so a client that connects and goes silent would otherwise wedge
  // the whole front-end and make stop() hang in thread_.join(). Poll with
  // a short timeout (re-checking stopping_ like the accept loop does) and
  // hang up on clients idle past kIdleTimeoutMs. A line longer than
  // kMaxLineBytes gets one error reply and a hang-up, so a client that
  // never sends a newline cannot grow `pending` without bound.
  constexpr int kPollMs = 100;
  constexpr int kIdleTimeoutMs = 10'000;
  constexpr std::size_t kMaxLineBytes = 64 * 1024;
  std::string pending;
  char buf[4096];
  int idle_ms = 0;
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) {
      idle_ms += kPollMs;
      if (idle_ms >= kIdleTimeoutMs) return;  // idle client: free the line
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // client hung up
    idle_ms = 0;
    std::size_t scan = pending.size();  // earlier bytes hold no '\n'
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (;;) {
      const std::size_t nl = pending.find('\n', scan);
      const std::size_t end = nl == std::string::npos ? pending.size() : nl;
      if (end - begin > kMaxLineBytes) {
        (void)write_all(fd, "{\"ok\":false,\"error\":\"line longer than " +
                                std::to_string(kMaxLineBytes) + " bytes\"}\n");
        return;
      }
      if (nl == std::string::npos) break;
      const std::string line = pending.substr(begin, nl - begin);
      begin = scan = nl + 1;
      if (line.empty()) continue;
      std::string diagnostic;
      const std::string reply = handle_line(server_, line, &diagnostic);
      // The client sees only the message; the operator gets the full text.
      if (!diagnostic.empty()) {
        std::fprintf(stderr, "serve: %s\n", diagnostic.c_str());
      }
      if (!write_all(fd, reply + "\n")) return;
    }
    pending.erase(0, begin);
  }
}

std::string request_over_socket(const std::string& path,
                                const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  TE_REQUIRE(fd >= 0, "socket() failed: " << std::strerror(errno));
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    TE_REQUIRE(false,
               "connect(" << path << ") failed: " << std::strerror(err));
  }
  if (!write_all(fd, line + "\n")) {
    ::close(fd);
    TE_REQUIRE(false, "write to " << path << " failed");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = response.find('\n');
    if (nl != std::string::npos) {
      ::close(fd);
      return response.substr(0, nl);
    }
  }
  ::close(fd);
  TE_REQUIRE(false, "no response line from " << path);
  return {};  // unreachable
}

}  // namespace te::serve
