// Minimal blocking POSIX socket helpers shared by the daemon and the
// client library: Unix-domain and loopback-TCP listeners/connectors,
// full-buffer sends, and a buffered line reader. Everything returns
// -1 / false / nullopt with *error set instead of throwing — the
// callers decide whether a failed connection is fatal.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace pjsb::serve::net {

/// Bind + listen on a Unix-domain socket. An existing socket file at
/// `path` is unlinked first (the daemon owns its endpoint). Returns
/// the listening fd, or -1 with *error set.
int listen_unix(const std::string& path, std::string* error);

/// Bind + listen on loopback TCP. `port` 0 picks an ephemeral port;
/// *actual_port receives the bound port either way. Returns the
/// listening fd, or -1 with *error set.
int listen_tcp(int port, int* actual_port, std::string* error);

int connect_unix(const std::string& path, std::string* error);
int connect_tcp(int port, std::string* error);

/// Write the whole buffer (retrying short writes). False on error.
bool send_all(int fd, std::string_view data);

void close_fd(int fd);
/// shutdown(SHUT_RDWR): unblocks a reader in another thread.
void shutdown_fd(int fd);
/// shutdown(SHUT_RD): unblocks a reader but lets an in-flight reply
/// in another thread finish sending (used during server teardown so
/// the session that requested SHUTDOWN still receives its OK).
void shutdown_read(int fd);

/// Lingering close, first half: shutdown(SHUT_WR) so the peer reads
/// everything sent so far and then EOF, then read and drop its input
/// until it closes, errors, or `timeout_ms` pass. Closing a TCP socket
/// with unread input resets the connection, which can destroy a reply
/// the peer has not read yet. The caller still closes the fd.
void finish_and_drain(int fd, int timeout_ms);

/// Longest protocol line, not counting its '\n'. Longer ones are
/// refused, so one connection buffers at most this much plus one recv.
inline constexpr std::size_t kMaxLineBytes = std::size_t(64) << 10;

/// Buffered newline-delimited reader over a blocking fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its '\n' (a trailing '\r' is stripped too).
  /// Nullopt on EOF or error with no complete line buffered, and once
  /// the next line runs past kMaxLineBytes (too_long() then holds and
  /// the reader returns nullopt from then on).
  std::optional<std::string> read_line();

  /// True when read_line gave up on a line longer than kMaxLineBytes.
  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buffer_;
  /// Bytes at the front of buffer_ already searched for '\n'.
  std::size_t scanned_ = 0;
  bool eof_ = false;
  bool too_long_ = false;
};

}  // namespace pjsb::serve::net
