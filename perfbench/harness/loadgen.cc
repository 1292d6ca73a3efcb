#include "harness/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "report/field.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {

using adrdedup::serve::net::DecodeFrame;
using adrdedup::serve::net::DecodeScreenResponse;
using adrdedup::serve::net::DecodeStatus;
using adrdedup::serve::net::Frame;
using adrdedup::serve::net::FrameType;
using adrdedup::serve::net::ScreenRequestBody;
using adrdedup::serve::net::ScreenResponseBody;
using adrdedup::serve::net::ScreenStatus;

namespace {

using Clock = std::chrono::steady_clock;

// Requests per send of a burst (about 128 KiB of frames).
constexpr size_t kBurstChunk = 64;
// How long a step waits for its last answers.
constexpr double kDrainTimeoutMs = 60000.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Numeric JSON field `"key":<number>` of a flat response body; -1 when
// absent.
double JsonNumber(std::string_view body, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1.0;
  double value = -1.0;
  const char* begin = body.data() + at + needle.size();
  std::from_chars(begin, body.data() + body.size(), value);
  return value;
}

}  // namespace

EncodedRequest EncodeRequest(const adrdedup::report::AdrReport& report) {
  ScreenRequestBody fields;
  for (const auto& spec : adrdedup::report::Schema()) {
    const std::string& value = report.Get(spec.id);
    if (!value.empty()) fields.emplace_back(std::string(spec.name), value);
  }
  EncodedRequest out;
  out.case_number = report.case_number();
  adrdedup::serve::net::AppendFrame(
      &out.binary, FrameType::kScreenRequest,
      adrdedup::serve::net::EncodeScreenRequest(fields));
  std::string body = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) body += ',';
    body += '"' + adrdedup::util::JsonEscape(fields[i].first) + "\":\"" +
            adrdedup::util::JsonEscape(fields[i].second) + '"';
  }
  body += '}';
  out.http = "POST /screen HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
  return out;
}

struct LoadClient::Connection {
  int fd = -1;
  bool http = false;
  std::string rx;
  std::deque<Answer> in_flight;
};

LoadClient::LoadClient(uint16_t port,
                       const std::vector<EncodedRequest>* requests,
                       ReceivedCounter received)
    : requests_(requests),
      received_(std::move(received)),
      epoch_(Clock::now()) {
  conns_.resize(kConnections);
  connected_ = true;
  for (size_t c = 0; c < kConnections; ++c) {
    Connection& conn = conns_[c];
    conn.http = c == kHttpConnection;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) {
      connected_ = false;
      continue;
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      connected_ = false;
    }
  }
  received_base_ = received_();
}

LoadClient::~LoadClient() {
  for (Connection& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool LoadClient::SendAdmitted(Connection* conn, const std::string& bytes) {
  std::string_view rest = bytes;
  while (!rest.empty()) {
    const ssize_t n = ::send(conn->fd, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    rest.remove_prefix(static_cast<size_t>(n));
  }
  const uint64_t target = received_base_ + admitted_ + 1;
  const auto start = Clock::now();
  while (received_() < target) {
    if (MsSince(start) > 5000.0) return false;
    std::this_thread::yield();
  }
  ++admitted_;
  return true;
}

bool LoadClient::ParseResponses(Connection* conn, double now_ms,
                                std::vector<Answer>* out) {
  while (true) {
    if (conn->in_flight.empty()) return conn->rx.empty();
    Answer& answer = conn->in_flight.front();
    size_t consumed = 0;
    if (conn->http) {
      const size_t head_end = conn->rx.find("\r\n\r\n");
      if (head_end == std::string::npos) return true;
      const size_t marker = conn->rx.find("Content-Length: ");
      if (marker == std::string::npos || marker > head_end) return false;
      const size_t length = static_cast<size_t>(
          std::strtoull(conn->rx.c_str() + marker + 16, nullptr, 10));
      consumed = head_end + 4 + length;
      if (conn->rx.size() < consumed) return true;
      const int code = std::atoi(conn->rx.c_str() + 9);
      answer.status = code == 200   ? ScreenStatus::kOk
                      : code == 503 ? ScreenStatus::kShed
                      : code == 504 ? ScreenStatus::kExpired
                                    : ScreenStatus::kInvalid;
      answer.payload = conn->rx.substr(head_end + 4, length);
      answer.server_total_ms = JsonNumber(answer.payload, "total_ms");
      answer.server_queue_ms = JsonNumber(answer.payload, "queue_ms");
    } else {
      Frame frame;
      std::string error;
      const DecodeStatus status =
          DecodeFrame(conn->rx, 64u << 20, &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) return true;
      ScreenResponseBody body;
      if (status == DecodeStatus::kProtocolError ||
          frame.type != FrameType::kScreenResponse ||
          !DecodeScreenResponse(frame.payload, &body)) {
        return false;
      }
      answer.status = body.status;
      answer.payload = std::move(frame.payload);
    }
    answer.received_ms = now_ms;
    conn->rx.erase(0, consumed);
    out->push_back(std::move(answer));
    conn->in_flight.pop_front();
  }
}

LoadClient::OpenLoopStep LoadClient::RunOpenLoop(double rate_rps,
                                                 double seconds,
                                                 uint64_t seed,
                                                 size_t abort_backlog) {
  OpenLoopStep step;
  // A Poisson process conditioned on its count: the arrival times are
  // sorted uniform draws over the step, so every run of a step offers
  // exactly rate x seconds requests.
  std::vector<double> arrivals(
      static_cast<size_t>(std::llround(rate_rps * seconds)));
  adrdedup::util::Rng rng(seed);
  for (double& t : arrivals) t = rng.UniformDouble() * seconds * 1000.0;
  std::sort(arrivals.begin(), arrivals.end());
  if (arrivals.size() > remaining()) arrivals.resize(remaining());

  const double base_ms = MsSince(epoch_);
  const auto in_flight = [&] {
    size_t total = 0;
    for (const Connection& conn : conns_) total += conn.in_flight.size();
    return total;
  };
  std::vector<pollfd> fds(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) {
    fds[c] = {conns_[c].fd, POLLIN, 0};
  }
  // Reads whatever is ready within `wait_ms`; false on a broken
  // connection (every request on it is then a client error).
  const auto read_ready = [&](double wait_ms) {
    timespec timeout{};
    const double clamped = std::max(0.0, wait_ms);
    timeout.tv_sec = static_cast<time_t>(clamped / 1000.0);
    timeout.tv_nsec = static_cast<long>(
        std::fmod(clamped, 1000.0) * 1e6);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[65536];
      const ssize_t n = ::recv(conns_[c].fd, chunk, sizeof(chunk),
                               MSG_DONTWAIT);
      const double now = MsSince(epoch_);
      bool healthy = n > 0;
      if (healthy) {
        conns_[c].rx.append(chunk, static_cast<size_t>(n));
        healthy = ParseResponses(&conns_[c], now, &step.answers);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;
      }
      if (!healthy) {
        for (Answer& lost : conns_[c].in_flight) {
          lost.client_error = true;
          step.answers.push_back(std::move(lost));
        }
        conns_[c].in_flight.clear();
        fds[c].fd = -1;
      }
    }
  };

  size_t next = 0;
  while (next < arrivals.size()) {
    const double now = MsSince(epoch_) - base_ms;
    if (arrivals[next] > now) {
      read_ready(arrivals[next] - now);
      continue;
    }
    if (next == 0) step.backlog_start = in_flight();
    const size_t index = cursor_++;
    Connection& conn = conns_[index % conns_.size()];
    Answer answer;
    answer.stream_index = index;
    answer.admission = admitted_;
    answer.http = conn.http;
    answer.scheduled_ms = base_ms + arrivals[next];
    answer.sent_ms = MsSince(epoch_);
    step.lag_ms.push_back(answer.sent_ms - answer.scheduled_ms);
    const std::string& bytes =
        conn.http ? (*requests_)[index].http : (*requests_)[index].binary;
    if (conn.fd < 0 || !SendAdmitted(&conn, bytes)) {
      answer.client_error = true;
      step.answers.push_back(std::move(answer));
    } else {
      conn.in_flight.push_back(std::move(answer));
    }
    ++next;
    read_ready(0.0);
    if (abort_backlog > 0 && in_flight() > abort_backlog) {
      step.aborted = true;
      break;
    }
  }
  step.backlog_end = in_flight();
  const double drain_deadline = MsSince(epoch_) + kDrainTimeoutMs;
  while (in_flight() > 0 && MsSince(epoch_) < drain_deadline) {
    read_ready(1.0);
  }
  for (Connection& conn : conns_) {
    for (Answer& lost : conn.in_flight) {
      lost.client_error = true;
      step.answers.push_back(std::move(lost));
    }
    conn.in_flight.clear();
  }
  return step;
}

LoadClient::OpenLoopStep LoadClient::RunBurst(size_t n) {
  OpenLoopStep step;
  Connection& conn = conns_[0];
  n = std::min(n, remaining());
  const double start_ms = MsSince(epoch_);
  const size_t first_admission = admitted_;
  for (size_t i = 0; i < n; ++i) {
    Answer answer;
    answer.stream_index = cursor_ + i;
    answer.admission = first_admission + i;
    answer.scheduled_ms = answer.sent_ms = start_ms;
    conn.in_flight.push_back(std::move(answer));
  }
  // The server fails a connection whose unparsed input passes its read
  // cap, so the burst goes out in chunks, each sent once the previous one
  // has been taken off the wire.
  bool healthy = true;
  for (size_t begin = 0; healthy && begin < n; begin += kBurstChunk) {
    const size_t end = std::min(n, begin + kBurstChunk);
    std::string bytes;
    for (size_t i = begin; i < end; ++i) {
      bytes += (*requests_)[cursor_ + i].binary;
    }
    std::string_view rest = bytes;
    while (healthy && !rest.empty()) {
      const ssize_t sent =
          ::send(conn.fd, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      healthy = sent > 0;
      if (healthy) rest.remove_prefix(static_cast<size_t>(sent));
    }
    const uint64_t target = received_base_ + first_admission + end;
    const auto wait_start = Clock::now();
    while (healthy && received_() < target) {
      healthy = MsSince(wait_start) < 5000.0;
      std::this_thread::yield();
    }
  }
  cursor_ += n;
  admitted_ += n;
  const double deadline_ms = MsSince(epoch_) + kDrainTimeoutMs;
  while (healthy && !conn.in_flight.empty() && MsSince(epoch_) < deadline_ms) {
    pollfd fd{conn.fd, POLLIN, 0};
    if (::poll(&fd, 1, 100) <= 0) continue;
    char chunk[65536];
    const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    healthy = got > 0;
    if (healthy) {
      conn.rx.append(chunk, static_cast<size_t>(got));
      healthy = ParseResponses(&conn, MsSince(epoch_), &step.answers);
    }
  }
  for (Answer& lost : conn.in_flight) {
    lost.client_error = true;
    step.answers.push_back(std::move(lost));
  }
  conn.in_flight.clear();
  return step;
}

LoadClient::ClosedLoopResult LoadClient::RunClosedLoop(double seconds) {
  ClosedLoopResult result;
  std::mutex send_mutex;  // one request on the wire at a time
  std::vector<std::vector<Answer>> per_conn(conns_.size());
  const double base_ms = MsSince(epoch_);
  const auto elapsed_ms = [&] { return MsSince(epoch_) - base_ms; };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns_.size(); ++c) {
    threads.emplace_back([&, c] {
      Connection& conn = conns_[c];
      while (elapsed_ms() < seconds * 1000.0) {
        Answer answer;
        {
          std::lock_guard<std::mutex> lock(send_mutex);
          if (cursor_ >= requests_->size()) return;
          answer.stream_index = cursor_++;
          answer.admission = admitted_;
          answer.http = conn.http;
          const EncodedRequest& request = (*requests_)[answer.stream_index];
          const std::string& bytes = conn.http ? request.http : request.binary;
          answer.scheduled_ms = answer.sent_ms = MsSince(epoch_);
          if (!SendAdmitted(&conn, bytes)) {
            answer.client_error = true;
            per_conn[c].push_back(std::move(answer));
            return;
          }
        }
        conn.in_flight.push_back(std::move(answer));
        const size_t before = per_conn[c].size();
        while (per_conn[c].size() == before) {
          pollfd fd{conn.fd, POLLIN, 0};
          char chunk[65536];
          ssize_t n = -1;
          if (::poll(&fd, 1, 30000) > 0) {
            n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          }
          if (n <= 0 || (conn.rx.append(chunk, static_cast<size_t>(n)),
                         !ParseResponses(&conn, MsSince(epoch_),
                                         &per_conn[c]))) {
            for (Answer& lost : conn.in_flight) {
              lost.client_error = true;
              per_conn[c].push_back(std::move(lost));
            }
            conn.in_flight.clear();
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = elapsed_ms() / 1000.0;
  for (auto& answers : per_conn) {
    for (Answer& answer : answers) result.answers.push_back(std::move(answer));
  }
  return result;
}

bool AnswerMatches(const Answer& answer,
                   std::vector<std::pair<std::string, double>>* matches) {
  matches->clear();
  if (!answer.http) {
    ScreenResponseBody body;
    if (!DecodeScreenResponse(answer.payload, &body)) return false;
    *matches = std::move(body.matches);
    return true;
  }
  const std::string_view body = answer.payload;
  size_t at = body.find("\"matches\":[");
  if (at == std::string_view::npos) return false;
  const size_t end = body.find(']', at);
  if (end == std::string_view::npos) return false;
  const std::string_view case_key = "\"case_number\":\"";
  const std::string_view score_key = "\"score\":";
  while (true) {
    const size_t c = body.find(case_key, at);
    if (c == std::string_view::npos || c > end) return true;
    const size_t c_begin = c + case_key.size();
    const size_t c_end = body.find('"', c_begin);
    const size_t s = body.find(score_key, c_end);
    if (c_end == std::string_view::npos || s == std::string_view::npos ||
        s > end) {
      return false;
    }
    double score = 0.0;
    const char* s_begin = body.data() + s + score_key.size();
    const auto parsed = std::from_chars(s_begin, body.data() + end, score);
    if (parsed.ec != std::errc()) return false;
    matches->emplace_back(std::string(body.substr(c_begin, c_end - c_begin)),
                          score);
    at = static_cast<size_t>(parsed.ptr - body.data());
  }
}

}  // namespace perfbench
