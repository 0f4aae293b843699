// Listener: the loopback TCP accept/connection lifecycle both wire surfaces
// share. One accept thread hands each accepted socket to its own thread,
// which runs the surface's `Serve(fd)` handler; the listener closes the fd
// when the handler returns. Finished connections are joined on the next
// accept (and by Stop), so retained threads are bounded by the live
// connections, not by every connection ever accepted
// (tests/server/connection_churn_test.cc).
#ifndef HSDB_SERVER_LISTENER_H_
#define HSDB_SERVER_LISTENER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/status.h"

namespace hsdb {
namespace server {

/// Status::Internal naming the failed call and errno's message.
Status Errno(const char* call);

/// Writes all of `data` to `fd` (no SIGPIPE); false on a transport error.
bool SendAll(int fd, const std::string& data);

class Listener {
 public:
  /// Serves one connection until the client leaves or the socket is shut
  /// down. Runs on the connection's own thread; must not close `fd`.
  using Handler = std::function<void(int fd)>;

  explicit Listener(Handler serve) : serve_(std::move(serve)) {}
  ~Listener() { Stop(); }
  HSDB_DISALLOW_COPY_AND_ASSIGN(Listener);

  /// Binds 127.0.0.1:<port> (0 picks an ephemeral port) and starts the
  /// accept thread.
  Status Start(uint16_t port);

  /// Shuts down the listen socket, joins the accept thread, shuts down
  /// every live connection and joins its thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    bool done = false;  // handler returned and fd closed; guarded by mu_
    std::thread thread;
  };

  static constexpr int kListenBacklog = 64;

  void AcceptLoop();
  void Serve(Connection* conn);

  const Handler serve_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  /// Live connections; list nodes are stable, so each connection thread
  /// keeps a pointer to its own entry.
  std::mutex mu_;
  std::list<Connection> conns_;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_LISTENER_H_
