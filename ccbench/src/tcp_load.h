// Closed-loop TCP load: N clients, each holding one TcpClient connection
// for the whole run (connected at set-up, closed after its last reply),
// each sending its next request only when the previous reply arrived.

#ifndef CCBENCH_TCP_LOAD_H_
#define CCBENCH_TCP_LOAD_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccidx/serve/transport_tcp.h"
#include "common.h"

namespace ccbench {

/// What one client saw in one phase.
struct ClientTally {
  uint64_t reads = 0;       // read requests answered kOk
  uint64_t updates = 0;     // update requests answered kOk
  uint64_t update_ops = 0;  // ops inside those requests
  uint64_t failed = 0;      // requests not answered kOk
  std::vector<double> read_us, update_us;
  // Completion times (seconds since the phase began), for windowed rates.
  std::vector<double> read_at, update_at;
  std::string first_error;  // first failed request or failed check
};

class TcpLoad {
 public:
  ~TcpLoad() { Close(); }

  /// Connects `n` clients to 127.0.0.1:`port`; "" on success.
  std::string Connect(uint16_t port, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      auto c = std::make_unique<ccidx::serve::TcpClient>();
      ccidx::Status s = c->Connect(port);
      if (!s.ok()) return "connect: " + s.ToString();
      clients_.push_back(std::move(c));
    }
    return "";
  }

  void Close() {
    for (auto& c : clients_) c->Close();
    clients_.clear();
  }

  unsigned size() const { return static_cast<unsigned>(clients_.size()); }

  /// Runs every client until `deadline`, or for exactly `per_client`
  /// requests when that is nonzero. `make(c, &req)` builds client c's next
  /// request and returns true for an update; `check(c, req, resp)` returns
  /// "" when the reply is right. While the tracer is on, each call is a
  /// "serve.call" span whose request id is (client, sequence).
  template <typename Make, typename Check>
  std::vector<ClientTally> Run(Clock::time_point deadline, uint64_t per_client,
                               Make&& make, Check&& check) {
    std::vector<ClientTally> tallies(clients_.size());
    std::vector<std::thread> threads;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point start;
    for (unsigned c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        ccidx::serve::TcpClient* client = clients_[c].get();
        ClientTally& t = tallies[c];
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t seq = 0;; ++seq) {
          if (per_client != 0 ? seq >= per_client : Clock::now() >= deadline) {
            break;
          }
          ccidx::serve::Request req;
          const bool is_update = make(c, &req);
          ccidx::serve::Response resp;
          auto t0 = Clock::now();
          ccidx::Status s;
          {
            ScopedSpan span("serve.call", (uint64_t{c} << 40) | seq);
            s = client->Call(req, &resp);
          }
          const double us = MicrosBetween(t0, Clock::now());
          if (!s.ok() || resp.status != ccidx::serve::WireStatus::kOk) {
            ++t.failed;
            if (t.first_error.empty()) {
              t.first_error = !s.ok() ? s.ToString() : "wire status not ok";
            }
            if (!s.ok()) break;  // the connection is gone
            continue;
          }
          if (is_update) {
            ++t.updates;
            t.update_ops += req.updates.size();
            t.update_us.push_back(us);
            t.update_at.push_back(SecondsBetween(start, Clock::now()));
          } else {
            ++t.reads;
            t.read_us.push_back(us);
            t.read_at.push_back(SecondsBetween(start, Clock::now()));
          }
          std::string why = check(c, req, resp);
          if (!why.empty() && t.first_error.empty()) t.first_error = why;
        }
      });
    }
    while (ready.load() < clients_.size()) std::this_thread::yield();
    start = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    return tallies;
  }

 private:
  std::vector<std::unique_ptr<ccidx::serve::TcpClient>> clients_;
};

}  // namespace ccbench

#endif  // CCBENCH_TCP_LOAD_H_
