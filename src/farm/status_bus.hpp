// farm/status_bus.hpp
//
// Live steering + in-situ diagnostics for a running farm (docs/FARM.md):
// a localhost TCP server speaking the length-prefixed wire protocol
// (farm/wire.hpp). Requests are one-line text commands:
//
//   ping                      liveness probe
//   status                    full farm snapshot (see below)
//   pause <job>               Scheduler::pause
//   resume <job>              Scheduler::resume
//   cancel <job> [drop]       Scheduler::cancel ("drop" purges the ring)
//   preempt <job>             Scheduler::preempt
//   prio <job> <int>          Scheduler::set_priority
//   rescale <job> <threads>   Scheduler::rescale — park the job and
//                             resume it at a new kernel thread count
//                             (elastic rescale, docs/ELASTIC.md)
//
// Command responses are one JSON object: {"ok":true,...} or
// {"ok":false,"error":"..."}. The `status` response reuses the
// vpic-bench-v1 report envelope — {"schema":"vpic-bench-v1","bench":
// "farm_status","records":[...]} with one record per job carrying its
// JobStatus (state, step, priorities, vtime, preemption/restore counts,
// slice-boundary energies) plus the job's "job.<name>.*" prof counters —
// so tools/check_bench_schema.py and every BenchReport consumer can parse
// a live farm the same way they parse a bench artifact.
//
// The bus binds 127.0.0.1 only: steering is a local-operator interface,
// not a network service.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "farm/scheduler.hpp"

namespace vpic::farm {

class StatusBus {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral, read back via port()) and
  /// serves until destruction. Throws std::runtime_error when the socket
  /// cannot be bound. The Scheduler must outlive the bus.
  explicit StatusBus(Scheduler& sched, std::uint16_t port = 0);
  ~StatusBus();
  StatusBus(const StatusBus&) = delete;
  StatusBus& operator=(const StatusBus&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Execute one steering command and return the JSON response — exactly
  /// what the socket serves for the same payload. Public so embedders and
  /// tests can drive the command surface without a connection.
  [[nodiscard]] std::string handle_command(const std::string& request);

 private:
  void accept_loop();
  void serve(int fd);

  Scheduler& sched_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;           // live connections (shutdown on stop)
  std::vector<std::thread> conn_threads_;
  bool stopping_ = false;               // guarded by conn_mu_
  std::thread acceptor_;                // last member: joined first
};

/// Minimal steering client for the bus: connects to 127.0.0.1:port and
/// exchanges one frame per request(). Used by tests, examples and the
/// bench harness; throws std::runtime_error on connect/wire failures.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Send one command, return the JSON response payload.
  std::string request(const std::string& command);

 private:
  int fd_ = -1;
};

}  // namespace vpic::farm
