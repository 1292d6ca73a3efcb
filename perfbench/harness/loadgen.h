// Loopback load generator for the screening workloads: one process, at
// most four connections (the last one speaking HTTP/JSON, the others the
// binary frame protocol), driven either open loop by one generator
// thread on a Poisson schedule or closed loop by one thread per
// connection.
//
// Admission order. The binary protocol does not carry the id a request
// was admitted under, yet the correctness replay must screen the stream
// in exactly the live admission order (the incremental index's
// oversized-block cap makes detections order dependent). The generator
// therefore sends one request at a time and, before sending the next,
// waits until the service's requests_received counter shows the
// previous one was taken off the wire; the event loop submits in the
// order it parses, and the dispatcher pops FIFO, so send order is
// admission order. The wait lasts until the server has parsed the
// request, not until it answers, so the loop stays open; its cost shows
// up in the generator lag.
#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report/report.h"
#include "serve/net/frame.h"

namespace perfbench {

inline constexpr size_t kConnections = 4;
// Connection index that speaks HTTP/JSON; the rest speak binary frames.
inline constexpr size_t kHttpConnection = kConnections - 1;

// One report pre-encoded in both protocols.
struct EncodedRequest {
  std::string case_number;
  std::string binary;  // whole frame
  std::string http;    // whole request
};

EncodedRequest EncodeRequest(const adrdedup::report::AdrReport& report);

// One answered (or failed) request.
struct Answer {
  size_t stream_index = 0;
  // Position in the service's admission order, counted over the whole
  // run across phases.
  size_t admission = 0;
  bool http = false;
  adrdedup::serve::net::ScreenStatus status =
      adrdedup::serve::net::ScreenStatus::kOk;
  bool client_error = false;
  double scheduled_ms = 0.0;
  double sent_ms = 0.0;
  double received_ms = 0.0;
  // Binary: the response frame payload as received. HTTP: the body.
  std::string payload;
  // HTTP only: the server's own accounting of the request.
  double server_total_ms = -1.0;
  double server_queue_ms = -1.0;
};

// Counter of requests the service has taken off the wire (the
// ServiceMetrics requests_received counter).
using ReceivedCounter = std::function<uint64_t()>;

class LoadClient {
 public:
  // Connects kConnections sockets to 127.0.0.1:port. `requests` outlives
  // the client; `received` reads the service counter.
  LoadClient(uint16_t port, const std::vector<EncodedRequest>* requests,
             ReceivedCounter received);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool connected() const { return connected_; }

  struct OpenLoopStep {
    std::vector<Answer> answers;
    // Generator lateness per send: actual send minus scheduled time.
    std::vector<double> lag_ms;
    // Requests sent but unanswered just before the first and just after
    // the last scheduled arrival.
    size_t backlog_start = 0;
    size_t backlog_end = 0;
    // True when the step stopped sending at abort_backlog.
    bool aborted = false;
  };

  // Sends round(rate_rps x seconds) Poisson arrivals over `seconds`
  // (arrival times drawn from `seed`), then waits for every answer (up to
  // a minute). Requests are taken from the stream in order starting at
  // the client's cursor; the run stops early if the stream is exhausted,
  // or once more than `abort_backlog` requests are unanswered (0 never
  // aborts).
  OpenLoopStep RunOpenLoop(double rate_rps, double seconds, uint64_t seed,
                           size_t abort_backlog);

  // Sends the next `n` requests back to back on the first binary
  // connection, then waits for every answer (up to a minute). One
  // connection keeps admission order equal to send order without the
  // per-request wait, so the service, not the generator, sets the pace.
  OpenLoopStep RunBurst(size_t n);

  struct ClosedLoopResult {
    std::vector<Answer> answers;
    double wall_s = 0.0;
  };

  // kConnections threads, each sending its next request when its
  // previous answer arrived, for `seconds`.
  ClosedLoopResult RunClosedLoop(double seconds);

  size_t remaining() const { return requests_->size() - cursor_; }

 private:
  struct Connection;
  // Sends `bytes` on `conn` (blocking) and waits until the service has
  // taken the request off the wire. False on a socket or wait failure.
  bool SendAdmitted(Connection* conn, const std::string& bytes);
  // Parses every complete response buffered on `conn` into `out`.
  bool ParseResponses(Connection* conn, double now_ms,
                      std::vector<Answer>* out);

  const std::vector<EncodedRequest>* requests_;
  ReceivedCounter received_;
  std::vector<Connection> conns_;
  // Origin of every Answer timestamp.
  std::chrono::steady_clock::time_point epoch_;
  bool connected_ = false;
  size_t cursor_ = 0;
  size_t admitted_ = 0;
  uint64_t received_base_ = 0;
};

// Detections of one answered request as (case number, score) pairs, from
// either protocol. False if the payload does not parse.
bool AnswerMatches(const Answer& answer,
                   std::vector<std::pair<std::string, double>>* matches);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
