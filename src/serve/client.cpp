#include "serve/client.hpp"

#include <stdexcept>
#include <utility>

#include "serve/net.hpp"

namespace pjsb::serve {

Client::Client(int fd) : fd_(fd), reader_(fd) {}

Client Client::connect_unix(const std::string& path) {
  std::string error;
  const int fd = net::connect_unix(path, &error);
  if (fd < 0) throw std::runtime_error("serve client: " + error);
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  std::string error;
  const int fd = net::connect_tcp(port, &error);
  if (fd < 0) throw std::runtime_error("serve client: " + error);
  return Client(fd);
}

Client::~Client() { net::close_fd(fd_); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), reader_(std::move(other.reader_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    net::close_fd(fd_);
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
  }
  return *this;
}

Response Client::request_line(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("serve client: not connected");
  if (!net::send_all(fd_, line + "\n")) {
    throw std::runtime_error("serve client: send failed");
  }
  const auto raw = reader_.read_line();
  if (!raw) {
    throw std::runtime_error(reader_.too_long()
                                 ? "serve client: response line too long"
                                 : "serve client: connection closed");
  }
  std::string error;
  const auto response = parse_response(*raw, &error);
  if (!response) {
    throw std::runtime_error("serve client: bad response: " + error);
  }
  return *response;
}

Response Client::request(const Request& request) {
  return request_line(serialize_request(request));
}

void Client::handshake(const std::string& token,
                       const std::string& client_name) {
  Request hello;
  hello.verb = Verb::kHello;
  hello.arg = client_name;
  const Response greeting = request(hello);
  if (!greeting.ok) {
    throw std::runtime_error("serve client: HELLO refused: " +
                             greeting.message);
  }
  if (greeting.field("auth").value_or("none") == "required") {
    Request auth;
    auth.verb = Verb::kAuth;
    auth.arg = token;
    const Response authed = request(auth);
    if (!authed.ok) {
      throw std::runtime_error("serve client: AUTH refused: " +
                               authed.message);
    }
  }
}

Response Client::submit(std::int64_t procs, std::int64_t estimate,
                        std::optional<std::int64_t> at,
                        std::optional<std::int64_t> runtime,
                        std::optional<std::int64_t> id,
                        std::int64_t user) {
  Request r;
  r.verb = Verb::kSubmit;
  r.procs = procs;
  r.estimate = estimate;
  r.at = at;
  r.runtime = runtime;
  r.id = id;
  r.user = user;
  return request(r);
}

Response Client::kill(std::int64_t job_id) {
  Request r;
  r.verb = Verb::kKill;
  r.job_id = job_id;
  return request(r);
}

Response Client::query(std::int64_t job_id) {
  Request r;
  r.verb = Verb::kQuery;
  r.job_id = job_id;
  return request(r);
}

Response Client::whatif(std::int64_t procs, std::int64_t estimate,
                        std::int64_t offset, bool simulate) {
  Request r;
  r.verb = Verb::kWhatIf;
  r.procs = procs;
  r.estimate = estimate;
  r.offset = offset;
  r.simulate = simulate;
  return request(r);
}

Response Client::status() {
  Request r;
  r.verb = Verb::kStatus;
  return request(r);
}

Response Client::snapshot(const std::string& path) {
  Request r;
  r.verb = Verb::kSnapshot;
  r.arg = path;
  return request(r);
}

Response Client::resume(const std::string& path) {
  Request r;
  r.verb = Verb::kResume;
  r.arg = path;
  return request(r);
}

Response Client::drain() {
  Request r;
  r.verb = Verb::kDrain;
  return request(r);
}

Response Client::shutdown() {
  Request r;
  r.verb = Verb::kShutdown;
  return request(r);
}

}  // namespace pjsb::serve
