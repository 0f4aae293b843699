#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hsdb {
namespace server {

Status Errno(const char* call) {
  return Status::Internal(std::string(call) + "(): " + std::strerror(errno));
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

Status Listener::Start(uint16_t port) {
  if (listen_fd_ != -1) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  socklen_t len = sizeof(addr);
  const char* failed = ::bind(fd, sa, len) != 0                ? "bind"
                       : ::listen(fd, kListenBacklog) != 0     ? "listen"
                       : ::getsockname(fd, sa, &len) != 0      ? "getsockname"
                                                               : nullptr;
  if (failed != nullptr) {
    Status s = Errno(failed);
    ::close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread(&Listener::AcceptLoop, this);
  return Status::OK();
}

void Listener::Stop() {
  if (listen_fd_ == -1) return;
  // Unblock accept() first: no new connections from here on.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Unblock every live handler's recv(), then join them all. List nodes
  // keep their addresses across the swap, so handlers still unwinding
  // mark their own entry done as usual.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Connection& conn : conns_) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (Connection& conn : conns) conn.thread.join();
}

void Listener::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Join finished connections first. A done handler has released mu_ and
    // has nothing left to do but return, so these joins are brief.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = conns_.erase(it);
    }
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    // Started under mu_, so the thread's own done-marking waits until its
    // std::thread handle is in place.
    conn.thread = std::thread(&Listener::Serve, this, &conn);
  }
}

void Listener::Serve(Connection* conn) {
  serve_(conn->fd);
  // Closed under mu_, so Stop never shuts down an fd number the kernel has
  // already reused for a newer connection.
  std::lock_guard<std::mutex> lock(mu_);
  ::close(conn->fd);
  conn->done = true;
}

}  // namespace server
}  // namespace hsdb
