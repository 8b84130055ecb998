#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace e2e {

namespace {

/// Closes the socket on every exit path.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

emp::Result<HttpReply> HttpCall(int port, const std::string& method,
                                const std::string& target,
                                const std::string& body) {
  Socket sock;
  if (sock.fd() < 0) {
    return emp::Status::Internal(std::string("socket: ") +
                                 std::strerror(errno));
  }
  timeval timeout{30, 0};
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return emp::Status::Internal(std::string("connect: ") +
                                 std::strerror(errno));
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(sock.fd(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return emp::Status::Internal(std::string("send: ") +
                                   std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  std::string data;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return emp::Status::Internal(std::string("recv: ") +
                                   std::strerror(errno));
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  const size_t head_end = data.find("\r\n\r\n");
  if (data.rfind("HTTP/1.1 ", 0) != 0 || data.size() < 12 ||
      head_end == std::string::npos) {
    return emp::Status::Internal("malformed reply to " + method + " " +
                                 target);
  }
  HttpReply reply;
  reply.status = std::atoi(data.c_str() + 9);
  reply.body = data.substr(head_end + 4);
  return reply;
}

}  // namespace e2e
