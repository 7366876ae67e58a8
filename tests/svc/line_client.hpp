// A blocking NDJSON test client over a Unix socket, shared by the suites
// that drive a live rfmixd or rfmix-router loop. Each suite passes its own
// read timeout at the call site.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

namespace rfmix::svc {

struct LineClient {
  int fd = -1;

  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd >= 0) ::close(fd);
  }

  bool connect_to(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void shutdown_write() { ::shutdown(fd, SHUT_WR); }

  /// Read until `n` complete lines arrived, EOF, or `timeout_ms` passes with
  /// nothing to read. Returns the lines without their trailing newline.
  std::vector<std::string> read_lines(std::size_t n, int timeout_ms) {
    std::string buf;
    std::vector<std::string> lines;
    while (lines.size() < n) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) break;  // timeout
      char chunk[65536];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got <= 0) break;  // EOF or error
      buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t pos = 0, nl;
      while ((nl = buf.find('\n', pos)) != std::string::npos) {
        lines.push_back(buf.substr(pos, nl - pos));
        pos = nl + 1;
      }
      buf.erase(0, pos);
    }
    return lines;
  }
};

}  // namespace rfmix::svc
