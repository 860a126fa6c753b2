#include "server/socket_options.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>

#include "util/string_util.h"

namespace unidetect {

Status SetTcpNoDelay(int fd) {
  const int enable = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable)) !=
      0) {
    return Status::IOError(
        StrCat("setsockopt(TCP_NODELAY): ", strerror(errno)));
  }
  return Status::OK();
}

}  // namespace unidetect
