// Minimal blocking HTTP/1.1 client for the service workload: one
// connection per request, matching the server's Connection: close.
#ifndef EMP_E2EBENCH_HTTP_CLIENT_H_
#define EMP_E2EBENCH_HTTP_CLIENT_H_

#include <string>

#include "common/result.h"

namespace e2e {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Sends one request to 127.0.0.1:`port` and reads the reply to EOF.
/// Transport failures (connect, send, receive timeout, malformed status
/// line) are errors; any HTTP status is a reply.
emp::Result<HttpReply> HttpCall(int port, const std::string& method,
                                const std::string& target,
                                const std::string& body = "");

}  // namespace e2e

#endif  // EMP_E2EBENCH_HTTP_CLIENT_H_
