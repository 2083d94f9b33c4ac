#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace pjsb::serve::net {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool fill_unix_address(const std::string& path, sockaddr_un* addr,
                       std::string* error) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    *error = "unix socket path empty or longer than " +
             std::to_string(sizeof(addr->sun_path) - 1) + " bytes";
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

sockaddr_in loopback_address(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_unix_address(path, &addr, error)) return -1;
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    *error = errno_message(path.c_str());
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(int port, int* actual_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_address(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    *error = errno_message("bind/listen");
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    *error = errno_message("getsockname");
    ::close(fd);
    return -1;
  }
  if (actual_port) *actual_port = int(ntohs(addr.sin_port));
  return fd;
}

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_unix_address(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = errno_message(path.c_str());
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket");
    return -1;
  }
  sockaddr_in addr = loopback_address(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = errno_message("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(std::size_t(n));
  }
  return true;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void shutdown_read(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void finish_and_drain(int fd, int timeout_ms) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char chunk[4096];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, int(left)) <= 0) return;
    if (::recv(fd, chunk, sizeof(chunk), 0) <= 0) return;
  }
}

std::optional<std::string> LineReader::read_line() {
  while (!too_long_) {
    // Only bytes appended since the last call are searched.
    const auto nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos && nl <= kMaxLineBytes) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (nl != std::string::npos || buffer_.size() > kMaxLineBytes) {
      too_long_ = true;
      break;
    }
    scanned_ = buffer_.size();
    if (eof_) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      eof_ = true;
      return std::nullopt;
    }
    if (n == 0) {
      // A final line without '\n' is dropped: requests end in '\n'.
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, std::size_t(n));
  }
  return std::nullopt;
}

}  // namespace pjsb::serve::net
