// Connection churn on both wire surfaces: a long-lived server must hold its
// threads and mappings flat while clients come and go. Each surface runs
// kCycles sequential connect -> one request -> close cycles (`ping` on the
// line protocol, `GET /status` on the HTTP endpoint); afterwards the
// process's thread count is back at its pre-churn value and
// /proc/self/maps has grown by fewer than kMaxNewMappings lines. A listener
// that kept every finished connection's thread until Stop() would leave
// one stack mapping plus its guard page per connection — ~2 lines each,
// far past the bound.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "executor/database.h"
#include "server/client.h"
#include "server/http_endpoint.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

constexpr int kCycles = 1000;
/// Cycles run before the baseline is taken. First-use allocations, the
/// thread-stack cache and — under TSan — the shadow mappings of the first
/// few stack addresses settle within them; they grow by a constant, not
/// per connection (measured under TSan: +~80 lines after 200, 1000 or 3000
/// cycles alike).
constexpr int kWarmUpCycles = 100;
constexpr size_t kMaxNewMappings = 64;

size_t MapsLines() {
  std::ifstream in("/proc/self/maps");
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Polls until the thread count drops to `target`: a server-side
/// connection thread may still be unwinding after its client closed.
int WaitForThreadCount(int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int n = ThreadCount();
  while (n > target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = ThreadCount();
  }
  return n;
}

/// One `GET /status` on a fresh connection, read to EOF (the endpoint
/// answers Connection: close). Returns the raw response.
std::string GetStatus(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string();
  timeval tv{/*tv_sec=*/10, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET /status HTTP/1.1\r\nHost: x\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char chunk[4096];
      ssize_t n;
      while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
        response.append(chunk, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  return response;
}

class ConnectionChurnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticTableSpec spec;
    spec.name = "events";
    spec.num_keyfigures = 1;
    spec.num_filters = 1;
    spec.num_groups = 1;
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec, 1'000)
            .ok());
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    endpoint_ = std::make_unique<server::HttpEndpoint>(db_.get());
    endpoint_->set_server(server_.get());
    ASSERT_TRUE(endpoint_->Start().ok());
  }

  void TearDown() override {
    endpoint_->Stop();
    server_->Stop();
  }

  bool PingCycle() {
    server::Client client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) return false;
    Result<server::Reply> reply = client.RoundTrip("ping");
    return reply.ok() && reply->ok && reply->lines.size() == 1 &&
           reply->lines[0] == "pong";
  }

  bool StatusCycle() {
    const std::string response = GetStatus(endpoint_->port());
    return response.rfind("HTTP/1.1 200 OK", 0) == 0 &&
           response.find("\"connections_total\"") != std::string::npos;
  }

  /// Runs `cycle` kCycles times after kWarmUpCycles and checks that threads
  /// and mappings end where they started.
  template <typename Cycle>
  void ExpectFlatUnderChurn(Cycle cycle) {
    const int threads_before = ThreadCount();
    for (int i = 0; i < kWarmUpCycles; ++i) {
      ASSERT_TRUE(cycle()) << "warm-up " << i;
    }
    const size_t maps_before = MapsLines();
    for (int i = 0; i < kCycles; ++i) {
      ASSERT_TRUE(cycle()) << "cycle " << i;
    }
    EXPECT_EQ(WaitForThreadCount(threads_before), threads_before);
    const size_t maps_after = MapsLines();
    EXPECT_LT(maps_after, maps_before + kMaxNewMappings)
        << "mappings grew from " << maps_before << " to " << maps_after
        << " over " << kCycles << " connections";
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  std::unique_ptr<server::HttpEndpoint> endpoint_;
};

TEST_F(ConnectionChurnTest, LineProtocolHoldsThreadsAndMappingsFlat) {
  telemetry::Counter& accepted = db_->metrics().GetCounter(
      "hsdb_server_connections_total",
      "Client connections accepted by the socket server.");
  const uint64_t accepted_before = accepted.value();
  ExpectFlatUnderChurn([this] { return PingCycle(); });
  if (telemetry::kCompiledIn && db_->metrics().enabled()) {
    EXPECT_EQ(accepted.value() - accepted_before,
              static_cast<uint64_t>(kCycles + kWarmUpCycles));
  }
}

TEST_F(ConnectionChurnTest, HttpHoldsThreadsAndMappingsFlat) {
  ExpectFlatUnderChurn([this] { return StatusCycle(); });
}

TEST_F(ConnectionChurnTest, StopJoinsConnectionsStillOpen) {
  // Clients that never close: Stop must shut their sockets down and join
  // their threads, leaving nothing behind once both surfaces are down.
  const int threads_before = ThreadCount();
  server::Client idle[4];
  for (server::Client& c : idle) {
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(c.RoundTrip("ping").ok());
  }
  int half_open = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(half_open, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(half_open, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(half_open, "GET /sta", 8, MSG_NOSIGNAL), 8);
  endpoint_->Stop();
  server_->Stop();
  // Stop joins every thread it started, so no polling: the two accept
  // threads and the batch worker are gone along with the connections.
  EXPECT_EQ(ThreadCount(), threads_before - 3);
  ::close(half_open);
}

}  // namespace
}  // namespace hsdb
