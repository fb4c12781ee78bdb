#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

// Pipelined load driver over the MatCN wire codec. One thread owns a few
// non-blocking connections and multiplexes requests on them by request
// id, so an op is sent when it is due no matter how many slow answers are
// still outstanding: a slow MatchCN query delays nothing queued behind it.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "measure.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workload/workload_engine.h"

namespace perfbench {

/// What the driver learned about one op. Times are NowNs() stamps.
struct OpResult {
  int64_t intended_ns = 0;  // scheduled start (open loop) or slot free time
  int64_t written_ns = 0;   // last request byte handed to the kernel
  int64_t done_ns = 0;      // last response frame parsed
  bool answered = false;
  matcn::net::WireCode code = matcn::net::WireCode::kOk;
  bool cache_hit = false;
  bool degraded = false;
  uint64_t server_us = 0;  // RESULT_TRAILER server_latency_us
  uint32_t cns_total = 0;
  /// CN text and SQL of every record, only when capturing.
  std::vector<std::string> cn_text;
  std::vector<std::string> cn_sql;
};

/// Called as each op completes, on the driver thread, with its index.
/// The traced run records its spans here.
using CompletionHook = void (*)(void* ctx, size_t index, const OpResult& r);

class WireDriver {
 public:
  /// Opens `connections` connections to 127.0.0.1:`port`.
  static matcn::Result<WireDriver> Connect(uint16_t port, unsigned connections);

  WireDriver(WireDriver&&) = default;
  WireDriver& operator=(WireDriver&&) = default;

  /// Open loop: op i is due at start + offsets_us[i]. Ops are dealt to
  /// the connection with the fewest outstanding requests. Returns false
  /// if a connection broke or no answer came for 20 s.
  bool RunOpenLoop(const std::vector<matcn::workload::Op>& ops,
                   const std::vector<int64_t>& offsets_us,
                   std::vector<OpResult>* results);

  /// Closed loop: every connection keeps `depth` requests outstanding
  /// and sends the next op of `ops` the moment one completes, until
  /// `duration_ns` has passed or `ops` runs out. Returns the number of
  /// ops issued (results past it are untouched) or -1 on failure.
  int64_t RunClosedLoop(const std::vector<matcn::workload::Op>& ops,
                        unsigned depth, int64_t duration_ns,
                        std::vector<OpResult>* results);

  /// Server STATS over the first connection (driver idle).
  matcn::Result<matcn::net::StatsPayload> Stats();

  void set_hook(CompletionHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }
  /// Keep CN text and SQL of every answer (the output check).
  void set_capture(bool capture) { capture_ = capture; }
  /// Requests carry include_sql.
  void set_include_sql(bool include_sql) { include_sql_ = include_sql; }

 private:
  struct Conn {
    matcn::net::ScopedFd fd;
    std::string out;
    size_t out_pos = 0;
    uint64_t bytes_written = 0;  // total over the connection's life
    /// (stream offset where an op's request ends, op index), FIFO.
    std::vector<std::pair<uint64_t, size_t>> unwritten;
    size_t unwritten_head = 0;
    std::string in;
    size_t in_pos = 0;
    size_t outstanding = 0;
    bool broken = false;
  };

  WireDriver() = default;

  void Begin(std::vector<OpResult>* results);
  size_t PickConn() const;
  void Enqueue(size_t conn, size_t index, const matcn::workload::Op& op,
               int64_t intended_ns);
  bool Flush(Conn* c);
  /// Waits up to `timeout_ns` for readiness, then reads and dispatches
  /// every complete frame. False when a connection broke.
  bool Pump(int64_t timeout_ns);
  bool ReadConn(Conn* c);
  void OnFrame(Conn* c, const matcn::net::FrameHeader& h,
               std::string_view payload);
  void Complete(Conn* c, size_t index);

  std::vector<Conn> conns_;
  uint64_t next_request_id_ = 1;
  /// request ids of the current run are base_ + op index.
  uint64_t base_ = 0;
  size_t run_size_ = 0;
  std::vector<OpResult>* results_ = nullptr;
  std::vector<uint8_t> finished_;
  size_t completed_ = 0;
  int64_t last_progress_ns_ = 0;
  CompletionHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  bool capture_ = false;
  bool include_sql_ = false;
  /// A STATS answer while idle.
  bool stats_pending_ = false;
  bool stats_ok_ = false;
  matcn::net::StatsPayload stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
