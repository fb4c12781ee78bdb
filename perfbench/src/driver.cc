#include "driver.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

namespace perfbench {

namespace net = matcn::net;

namespace {

// An op whose answer has not moved for this long means the server is
// wedged; the run stops instead of hanging past the benchmark's limit.
constexpr int64_t kStallNs = 20'000'000'000;
constexpr size_t kReadChunk = 64 * 1024;
constexpr int64_t kSpinNs = 5'000'000;
constexpr uint32_t kMaxPayload = uint32_t{64} << 20;

}  // namespace

matcn::Result<WireDriver> WireDriver::Connect(uint16_t port,
                                              unsigned connections) {
  WireDriver driver;
  for (unsigned i = 0; i < connections; ++i) {
    matcn::Result<net::ScopedFd> fd = net::ConnectTcp("127.0.0.1", port, 5000);
    if (!fd.ok()) return fd.status();
    if (matcn::Status s = net::SetNonBlocking(fd->get()); !s.ok()) return s;
    if (matcn::Status s = net::SetNoDelay(fd->get()); !s.ok()) return s;
    Conn conn;
    conn.fd = std::move(fd).value();
    driver.conns_.push_back(std::move(conn));
  }
  return driver;
}

void WireDriver::Begin(std::vector<OpResult>* results) {
  results_ = results;
  run_size_ = results->size();
  base_ = next_request_id_;
  next_request_id_ += run_size_;
  finished_.assign(run_size_, 0);
  completed_ = 0;
  last_progress_ns_ = NowNs();
}

size_t WireDriver::PickConn() const {
  size_t best = 0;
  for (size_t i = 1; i < conns_.size(); ++i) {
    if (conns_[i].outstanding < conns_[best].outstanding) best = i;
  }
  return best;
}

void WireDriver::Enqueue(size_t conn, size_t index,
                         const matcn::workload::Op& op, int64_t intended_ns) {
  Conn& c = conns_[conn];
  net::WireWriter w;
  net::FrameType type;
  if (op.kind == matcn::workload::Op::Kind::kQuery) {
    net::QueryRequest request;
    request.include_sql = include_sql_;
    request.keywords = op.keywords;
    net::Encode(request, &w);
    type = net::FrameType::kQuery;
  } else {
    net::InsertRequest request;
    request.relation = op.relation;
    for (const matcn::workload::OpValue& v : op.values) {
      net::WireValue wv;
      wv.tag = v.is_int ? 0 : 1;
      wv.int_value = v.int_value;
      wv.text_value = v.text;
      request.values.push_back(std::move(wv));
    }
    net::Encode(request, &w);
    type = net::FrameType::kInsert;
  }
  net::AppendFrame(&c.out, type, base_ + index, w.buffer());
  c.unwritten.emplace_back(c.bytes_written + (c.out.size() - c.out_pos),
                           index);
  ++c.outstanding;
  (*results_)[index].intended_ns = intended_ns;
}

bool WireDriver::Flush(Conn* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = ::send(c->fd.get(), c->out.data() + c->out_pos,
                             c->out.size() - c->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
      c->bytes_written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c->broken = true;
    return false;
  }
  const int64_t now = NowNs();
  while (c->unwritten_head < c->unwritten.size() &&
         c->unwritten[c->unwritten_head].first <= c->bytes_written) {
    const size_t index = c->unwritten[c->unwritten_head].second;
    if (index < run_size_) (*results_)[index].written_ns = now;
    ++c->unwritten_head;
  }
  if (c->unwritten_head == c->unwritten.size()) {
    c->unwritten.clear();
    c->unwritten_head = 0;
  }
  if (c->out_pos == c->out.size()) {
    c->out.clear();
    c->out_pos = 0;
  }
  return true;
}

bool WireDriver::Pump(int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd.get();
    fds[i].events = POLLIN;
    if (conns_[i].out_pos < conns_[i].out.size()) fds[i].events |= POLLOUT;
  }
  timeout_ns = std::max<int64_t>(0, timeout_ns);
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) {
      if (!Flush(&c)) return false;
    }
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
      if (!ReadConn(&c)) return false;
    }
  }
  return true;
}

bool WireDriver::ReadConn(Conn* c) {
  // One read per call: a multi-megabyte answer must not keep the driver
  // away from ops that fall due meanwhile; the next Pump reads on.
  const size_t old = c->in.size();
  c->in.resize(old + kReadChunk);
  ssize_t n = 0;
  int error = 0;
  do {
    n = ::recv(c->fd.get(), c->in.data() + old, kReadChunk, 0);
    error = errno;
  } while (n < 0 && error == EINTR);
  c->in.resize(old + static_cast<size_t>(std::max<ssize_t>(n, 0)));
  if (n == 0 || (n < 0 && error != EAGAIN && error != EWOULDBLOCK)) {
    c->broken = true;  // EOF or error: the server went away
    return false;
  }
  while (true) {
    const std::string_view rest =
        std::string_view(c->in).substr(c->in_pos);
    net::FrameHeader header;
    const net::HeaderParse parsed = net::ParseFrameHeader(rest, &header);
    if (parsed == net::HeaderParse::kNeedMore) break;
    if (parsed != net::HeaderParse::kOk) {
      c->broken = true;
      return false;
    }
    if (header.payload_len > kMaxPayload) {
      c->broken = true;
      return false;
    }
    const size_t frame = net::kFrameHeaderBytes + header.payload_len;
    if (rest.size() < frame) break;
    OnFrame(c, header,
            rest.substr(net::kFrameHeaderBytes, header.payload_len));
    c->in_pos += frame;
  }
  if (c->in_pos == c->in.size()) {
    c->in.clear();
    c->in_pos = 0;
  } else if (c->in_pos > (size_t{1} << 20)) {
    c->in.erase(0, c->in_pos);
    c->in_pos = 0;
  }
  return !c->broken;
}

void WireDriver::OnFrame(Conn* c, const net::FrameHeader& h,
                         std::string_view payload) {
  if (h.type == net::FrameType::kStatsResult) {
    stats_ok_ = net::Decode(payload, &stats_);
    stats_pending_ = false;
    return;
  }
  if (h.type == net::FrameType::kGoingAway) {
    c->broken = true;
    return;
  }
  if (h.request_id < base_ || h.request_id - base_ >= run_size_) return;
  const size_t index = h.request_id - base_;
  if (finished_[index]) return;
  OpResult& r = (*results_)[index];
  switch (h.type) {
    case net::FrameType::kResultHeader: {
      net::ResultHeader header;
      if (net::Decode(payload, &header)) {
        r.cache_hit = header.cache_hit;
        r.degraded = header.degraded;
      }
      break;
    }
    case net::FrameType::kCnRecord:
      if (capture_) {
        net::CnRecord record;
        if (net::Decode(payload, &record)) {
          r.cn_text.push_back(std::move(record.text));
          r.cn_sql.push_back(std::move(record.sql));
        }
      }
      break;
    case net::FrameType::kResultTrailer: {
      net::ResultTrailer trailer;
      r.answered = net::Decode(payload, &trailer);
      if (!r.answered) r.code = net::WireCode::kProtocolError;
      r.server_us = trailer.server_latency_us;
      r.cns_total = trailer.cns_total;
      Complete(c, index);
      break;
    }
    case net::FrameType::kInsertResult:
      r.answered = true;
      Complete(c, index);
      break;
    case net::FrameType::kError: {
      net::ErrorPayload error;
      r.code = net::Decode(payload, &error) ? error.code
                                            : net::WireCode::kProtocolError;
      r.answered = false;
      Complete(c, index);
      break;
    }
    default:
      break;
  }
}

void WireDriver::Complete(Conn* c, size_t index) {
  OpResult& r = (*results_)[index];
  r.done_ns = NowNs();
  finished_[index] = 1;
  ++completed_;
  --c->outstanding;
  last_progress_ns_ = r.done_ns;
  if (hook_ != nullptr) hook_(hook_ctx_, index, r);
}

bool WireDriver::RunOpenLoop(const std::vector<matcn::workload::Op>& ops,
                             const std::vector<int64_t>& offsets_us,
                             std::vector<OpResult>* results) {
  results->assign(ops.size(), OpResult{});
  Begin(results);
  // A short runway so the first op is not already late.
  const int64_t start = NowNs() + 2'000'000;
  size_t next = 0;
  while (completed_ < ops.size()) {
    const int64_t now = NowNs();
    while (next < ops.size() && start + offsets_us[next] * 1000 <= now) {
      const size_t conn = PickConn();
      Enqueue(conn, next, ops[next], start + offsets_us[next] * 1000);
      if (!Flush(&conns_[conn])) return false;
      ++next;
    }
    // Spin (poll without sleeping) once the next op is near: waking a
    // sleeping thread on a virtualized host can take milliseconds, which
    // would show up as send lag rather than as the server's latency.
    const int64_t timeout =
        next < ops.size()
            ? start + offsets_us[next] * 1000 - NowNs() - kSpinNs
            : 10'000'000;
    if (!Pump(timeout)) return false;
    if (completed_ < next && NowNs() - last_progress_ns_ > kStallNs) {
      return false;
    }
  }
  return true;
}

int64_t WireDriver::RunClosedLoop(const std::vector<matcn::workload::Op>& ops,
                                  unsigned depth, int64_t duration_ns,
                                  std::vector<OpResult>* results) {
  results->assign(ops.size(), OpResult{});
  Begin(results);
  const int64_t end = NowNs() + duration_ns;
  size_t next = 0;
  while (true) {
    const int64_t now = NowNs();
    if (now < end) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        while (conns_[i].outstanding < depth && next < ops.size()) {
          Enqueue(i, next, ops[next], now);
          ++next;
        }
        if (!Flush(&conns_[i])) return -1;
      }
    }
    if (completed_ == next && (now >= end || next == ops.size())) break;
    if (!Pump(10'000'000)) return -1;
    if (completed_ < next && NowNs() - last_progress_ns_ > kStallNs) {
      return -1;
    }
  }
  return static_cast<int64_t>(next);
}

matcn::Result<net::StatsPayload> WireDriver::Stats() {
  std::vector<OpResult> none;
  Begin(&none);
  Conn& c = conns_.front();
  net::AppendFrame(&c.out, net::FrameType::kStats, next_request_id_++, {});
  stats_pending_ = true;
  stats_ok_ = false;
  if (!Flush(&c)) return matcn::Status::IOError("STATS send failed");
  const int64_t give_up = NowNs() + 10'000'000'000;
  while (stats_pending_ && NowNs() < give_up) {
    if (!Pump(10'000'000)) return matcn::Status::IOError("STATS read failed");
  }
  if (stats_pending_ || !stats_ok_) {
    return matcn::Status::IOError("no STATS answer");
  }
  return stats_;
}

}  // namespace perfbench
