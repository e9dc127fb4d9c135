// serve_read and serve_write: an in-process svc::Server over the loaded
// corpus, driven over loopback connections.
//
// serve_read  after a discarded 1 s warm-up, an open loop at kReadRate over
//             a pool of kReadConnections connections (latency taken from
//             each request's due time), then the same mix closed loop on the
//             same number of connections to measure capacity.
// serve_write the WAL armed; one closed-loop writer alternates ingest_append
//             batches of 1 and 64 held-out SSL rows while a light open-loop
//             read stream (kWriteReadRate) runs beside it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/corpus.hpp"
#include "core/epoch_delta.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service_state.hpp"
#include "svc/telemetry.hpp"
#include "svc/wal.hpp"
#include "util/rng.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certbench {

using namespace certchain;

namespace {

constexpr std::uint32_t kClientTimeoutMs = 10000;
const char* const kEndpoints[] = {"classify_issuer", "categorize_chain",
                                  "report_section", "ct_prove_inclusion"};
const char* const kSections[] = {"totals",     "categories", "interception",
                                 "hybrid",     "non_public", "ct",
                                 "graphs",     "full",       "fleet"};

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// The section selection the report_section endpoint applies for a name.
core::ReportTextOptions section_options(const std::string& name) {
  if (name == "full") return core::ReportTextOptions{};
  core::ReportTextOptions options;
  options.totals = name == "totals";
  options.categories = name == "categories";
  options.interception = name == "interception";
  options.hybrid = name == "hybrid";
  options.non_public = name == "non_public";
  options.ct_compliance = name == "ct";
  options.graphs = name == "graphs";
  options.data_quality = false;
  return options;
}

// --- the read mix ----------------------------------------------------------

/// One distinct request of the mix and the answer the server must give.
struct RequestKind {
  int endpoint = 0;  // index into kEndpoints
  std::string wire;  // encoded request frame
  /// Expected response (type byte + payload), recorded once the server's
  /// answer was checked against the in-process answer.
  std::string expected;
  bool generation_dependent = false;  // categorize_chain, report_section
  std::string label;
};

struct ReadMix {
  std::vector<RequestKind> kinds;
  std::vector<std::uint32_t> schedule;  // seeded 40/30/20/10 draw over kinds
};

std::string object_payload(const std::string& key, const std::string& value) {
  obs::json::Writer writer;
  writer.begin_object();
  writer.key(key);
  writer.value_string(value);
  writer.end_object();
  return std::move(writer).str();
}

ReadMix build_read_mix(const Corpus& corpus, std::uint64_t seed) {
  ReadMix mix;
  util::Rng rng(seed ^ 0x72656164ULL);
  const netsim::GeneratedLogs& logs = corpus.logs;
  std::vector<std::size_t> by_endpoint[4];
  const auto add = [&](int endpoint, svc::MessageType type, std::string payload,
                       std::string label) {
    RequestKind kind;
    kind.endpoint = endpoint;
    kind.wire = svc::encode_frame(type, payload);
    kind.generation_dependent = endpoint == 1 || endpoint == 2;
    kind.label = std::move(label);
    by_endpoint[endpoint].push_back(mix.kinds.size());
    mix.kinds.push_back(std::move(kind));
  };

  // classify_issuer: 128 issuer DNs drawn from the X509 log.
  std::vector<std::string> issuers;
  {
    std::set<std::string> seen;
    for (const zeek::X509LogRecord& record : logs.x509) {
      if (seen.insert(record.issuer).second) issuers.push_back(record.issuer);
    }
  }
  for (int i = 0; i < 128 && !issuers.empty(); ++i) {
    const std::string& issuer = issuers[rng.next_below(issuers.size())];
    add(0, svc::MessageType::kClassifyIssuer, object_payload("issuer", issuer),
        issuer);
  }

  // categorize_chain: 128 delivered chains (at most kOutlierLength certificates,
  // so the Figure-1 giants stay out of the request mix), as X509 rows.
  std::map<std::string, const zeek::X509LogRecord*> by_fuid;
  for (const zeek::X509LogRecord& record : logs.x509) by_fuid[record.fuid] = &record;
  std::vector<const zeek::SslLogRecord*> chained;
  for (const zeek::SslLogRecord& record : logs.ssl) {
    const std::size_t length = record.cert_chain_fuids.size();
    if (length == 0 || length > core::StudyPipeline::kOutlierLength) continue;
    const bool joined = std::all_of(
        record.cert_chain_fuids.begin(), record.cert_chain_fuids.end(),
        [&](const std::string& fuid) { return by_fuid.count(fuid) != 0; });
    if (joined) chained.push_back(&record);
  }
  for (int i = 0; i < 128 && !chained.empty(); ++i) {
    const zeek::SslLogRecord& record = *chained[rng.next_below(chained.size())];
    obs::json::Writer writer;
    writer.begin_object();
    writer.key("x509_rows");
    writer.begin_array();
    for (const std::string& fuid : record.cert_chain_fuids) {
      writer.value_string(zeek::render_x509_row(*by_fuid[fuid]));
    }
    writer.end_array();
    writer.end_object();
    add(1, svc::MessageType::kCategorizeChain, std::move(writer).str(),
        record.uid);
  }

  // report_section: every section name, cycled in order.
  for (const char* section : kSections) {
    add(2, svc::MessageType::kReportSection, object_payload("section", section),
        section);
  }

  // ct_prove_inclusion: 48 logged fingerprints and 16 that no log holds.
  const ct::CtLogSet& ct_logs = corpus.scenario->world.ct_logs();
  for (int i = 0; i < 48; ++i) {
    const ct::CtLog& log = ct_logs.log(rng.next_below(ct_logs.log_count()));
    if (log.size() == 0) continue;
    const std::string& fingerprint =
        log.entries()[rng.next_below(log.size())].certificate_fingerprint;
    add(3, svc::MessageType::kCtProveInclusion,
        object_payload("fingerprint", fingerprint), fingerprint);
  }
  for (int i = 0; i < 16; ++i) {
    const std::string fingerprint =
        util::Digest256{{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                         rng.next_u64()}}
            .to_hex();
    add(3, svc::MessageType::kCtProveInclusion,
        object_payload("fingerprint", fingerprint), "unlogged " + fingerprint);
  }

  // The seeded draw: classify 40%, categorize 30%, report 20%, ct 10%.
  std::size_t next_section = 0;
  mix.schedule.reserve(1 << 16);
  for (std::size_t i = 0; i < (1u << 16); ++i) {
    const double u = rng.uniform();
    const int endpoint = u < 0.4 ? 0 : u < 0.7 ? 1 : u < 0.9 ? 2 : 3;
    const std::vector<std::size_t>& pool = by_endpoint[endpoint];
    const std::size_t pick = endpoint == 2 ? next_section++ % pool.size()
                                           : rng.next_below(pool.size());
    mix.schedule.push_back(static_cast<std::uint32_t>(pool[pick]));
  }
  return mix;
}

std::string frame_bytes(const svc::Frame& frame) {
  return std::string(1, static_cast<char>(frame.type)) + frame.payload;
}

/// Sends every distinct request once, checks the server's answer against
/// the in-process ServiceState answer and the batch render, and records the
/// answer's bytes as the expected response for the timed phases.
void verify_read_mix(ReadMix& mix, const svc::ServiceState& state,
                     const core::StudyReport& batch, std::uint16_t port,
                     Result& result) {
  svc::Client client;
  client.set_timeout_ms(kClientTimeoutMs);
  std::size_t wrong = 0;
  std::string first_wrong;
  if (!client.connect("127.0.0.1", port)) wrong = mix.kinds.size();
  for (RequestKind& kind : mix.kinds) {
    if (!client.connected()) break;
    result.attempt();
    bool ok = false;
    std::optional<svc::Frame> frame;
    if (client.send_raw(kind.wire)) frame = client.read_frame();
    if (frame) {
      std::string error;
      const auto payload = obs::json::parse(frame->payload, &error);
      const auto field = [&](const char* key) -> std::string {
        const obs::json::Value* value = payload ? payload->find(key) : nullptr;
        return value != nullptr && value->is_string() ? value->string : "";
      };
      switch (kind.endpoint) {
        case 0: {
          const auto dn = x509::DistinguishedName::parse(kind.label);
          ok = frame->type == svc::MessageType::kClassifyIssuerOk && dn &&
               field("class") ==
                   truststore::issuer_class_name(state.classify_issuer(*dn));
          break;
        }
        case 1: {
          const auto parsed = obs::json::parse(kind.wire.substr(svc::kHeaderBytes), &error);
          chain::CertificateChain submitted;
          if (parsed) {
            for (const obs::json::Value& row : parsed->find("x509_rows")->array) {
              submitted.push_back(
                  zeek::certificate_from_record(*zeek::parse_x509_row(row.string)));
            }
          }
          const svc::ChainVerdict verdict = state.categorize_chain(submitted);
          ok = frame->type == svc::MessageType::kCategorizeChainOk &&
               field("category") == chain::chain_category_name(verdict.category);
          break;
        }
        case 2: {
          const std::string expected =
              kind.label == "fleet"
                  ? core::render_fleet_section({})
                  : core::render_report_text(batch, section_options(kind.label));
          const std::string served =
              kind.label == "fleet" ? expected
                                    : state.report_section(section_options(kind.label));
          ok = frame->type == svc::MessageType::kReportSectionOk &&
               field("text") == expected && served == expected;
          break;
        }
        case 3: {
          const bool unlogged = kind.label.rfind("unlogged ", 0) == 0;
          const auto answer =
              state.ct_prove_inclusion(unlogged ? kind.label.substr(9) : kind.label);
          if (unlogged) {
            ok = frame->type == svc::MessageType::kError && !answer &&
                 field("code") == svc::error_code_name(svc::ErrorCode::kNotFound);
          } else {
            const obs::json::Value* index = payload ? payload->find("index") : nullptr;
            ok = frame->type == svc::MessageType::kCtProveInclusionOk && answer &&
                 index != nullptr && index->is_number() &&
                 static_cast<std::size_t>(index->num) == answer->index &&
                 field("root") == answer->root.to_hex();
          }
          break;
        }
      }
      kind.expected = frame_bytes(*frame);
    }
    if (!ok) {
      result.fail();
      ++wrong;
      if (first_wrong.empty()) first_wrong = kEndpoints[kind.endpoint] + (" " + kind.label);
    }
  }
  result.check("serve.answers_match_in_process", wrong == 0,
               std::to_string(mix.kinds.size() - wrong) + "/" +
                   std::to_string(mix.kinds.size()) +
                   " distinct requests equal the ServiceState answer and the "
                   "batch render " + first_wrong);
}

/// Checks one timed response against the recorded answer. Answers that
/// carry the corpus generation only need the right type once writes run.
bool response_ok(const RequestKind& kind, const svc::Frame& frame, bool exact) {
  if (exact || !kind.generation_dependent) return frame_bytes(frame) == kind.expected;
  return !kind.expected.empty() &&
         static_cast<char>(frame.type) == kind.expected.front();
}

// --- load generators -------------------------------------------------------
//
// Both loops drive a pool of loopback connections from one epoll receiver
// thread. A connection carries at most one request at a time, the way an
// independent client does; the generators therefore never pipeline, and
// the wire framing comes from svc::encode_frame / svc::FrameReader.

struct Sample {
  double latency_ms = 0.0;  // from due time (open loop) or send (closed loop)
  double service_ms = 0.0;  // from the actual send
  int endpoint = 0;
  double at_s = 0.0;        // completion time since the phase started
};

struct LoadOutcome {
  std::vector<Sample> samples;
  std::vector<double> lateness_ms;  // open loop: send time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::int64_t live_max = 0;

  std::vector<double> latencies() const {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& sample : samples) out.push_back(sample.latency_ms);
    return out;
  }
  /// Windowed tail of the latencies (see windowed_quantile).
  double tail(double q, double window_s) const {
    std::vector<double> at;
    at.reserve(samples.size());
    for (const Sample& sample : samples) at.push_back(sample.at_s);
    return windowed_quantile(latencies(), at, q, window_s);
  }
};

/// Connections plus the epoll set that watches them. Sockets stay blocking
/// for send (one small frame into an empty send buffer) and are read with
/// MSG_DONTWAIT only when epoll reports them readable.
class ConnectionPool {
 public:
  struct Connection {
    int fd = -1;
    svc::FrameReader reader;
    bool busy = false;
    Clock::time_point due{};
    Clock::time_point sent{};
    std::uint32_t kind = 0;
  };

  ConnectionPool(std::uint16_t port, std::size_t size) : epoll_(epoll_create1(0)) {
    for (std::size_t i = 0; i < size && epoll_ >= 0; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in address{};
      address.sin_family = AF_INET;
      address.sin_port = htons(port);
      address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
        if (fd >= 0) ::close(fd);
        break;
      }
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = connections_.size();
      epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &event);
      connections_.push_back(std::make_unique<Connection>());
      connections_.back()->fd = fd;
    }
    ok_ = epoll_ >= 0 && connections_.size() == size;
  }
  ~ConnectionPool() {
    for (const auto& connection : connections_) ::close(connection->fd);
    if (epoll_ >= 0) ::close(epoll_);
  }
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  bool ok() const { return ok_; }
  std::size_t size() const { return connections_.size(); }
  Connection& at(std::size_t index) { return *connections_[index]; }

  static bool send_all(int fd, const std::string& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + written, bytes.size() - written,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits up to `timeout_ms` and calls on_frame(index, frame, now) for
  /// every complete response, or on_broken(index) for a connection that
  /// closed or sent undecodable bytes.
  template <typename OnFrame, typename OnBroken>
  void poll(int timeout_ms, OnFrame&& on_frame, OnBroken&& on_broken) {
    epoll_event events[64];
    const int ready = epoll_wait(epoll_, events, 64, timeout_ms);
    for (int i = 0; i < ready; ++i) {
      const std::size_t index = events[i].data.u64;
      Connection& connection = *connections_[index];
      char buffer[64 * 1024];
      bool broken = false;
      for (;;) {
        const ssize_t n = ::recv(connection.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (n > 0) {
          connection.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
          if (static_cast<std::size_t>(n) < sizeof buffer) break;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        broken = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      const Clock::time_point now = Clock::now();
      for (;;) {
        svc::DecodeResult decoded = connection.reader.next();
        if (decoded.status == svc::DecodeResult::Status::kFrame) {
          on_frame(index, decoded.frame, now);
          continue;
        }
        broken = broken || decoded.status == svc::DecodeResult::Status::kError;
        break;
      }
      if (broken) {
        epoll_ctl(epoll_, EPOLL_CTL_DEL, connection.fd, nullptr);
        on_broken(index);
      }
    }
  }

 private:
  int epoll_ = -1;
  bool ok_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Open loop: request i is due at start + i/rate whatever the server is
/// doing. The sender thread takes an idle connection for it (waiting for one
/// if every connection is busy, which shows as generator lateness); the
/// receiver thread records each answer's latency from its due time.
LoadOutcome open_loop(const ReadMix& mix, std::uint16_t port, double rate,
                      std::size_t connections, double seconds, bool exact,
                      const svc::ServiceState* watch,
                      const std::atomic<bool>* stop = nullptr) {
  LoadOutcome outcome;
  ConnectionPool pool(port, connections);
  if (!pool.ok()) {
    outcome.attempted = outcome.failed = 1;
    return outcome;
  }
  std::mutex mutex;  // guards idle, in_flight and every Connection's request fields
  std::condition_variable idle_ready;
  std::vector<std::size_t> idle;
  for (std::size_t i = 0; i < pool.size(); ++i) idle.push_back(i);
  std::size_t in_flight = 0;
  std::atomic<bool> sending_done{false};
  const Clock::time_point start = Clock::now();

  std::thread receiver([&] {
    Clock::time_point give_up = Clock::time_point::max();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (sending_done.load() && in_flight == 0) return;
      }
      if (sending_done.load() && give_up == Clock::time_point::max()) {
        give_up = after(kClientTimeoutMs / 1000.0);
      }
      if (Clock::now() > give_up) {
        std::lock_guard<std::mutex> lock(mutex);
        outcome.failed += in_flight;  // answers that never came
        return;
      }
      pool.poll(
          50,
          [&](std::size_t index, const svc::Frame& frame, Clock::time_point now) {
            ConnectionPool::Connection& connection = pool.at(index);
            std::unique_lock<std::mutex> lock(mutex);
            if (!connection.busy) {
              ++outcome.failed;  // an answer nobody asked for
              return;
            }
            const RequestKind& kind = mix.kinds[connection.kind];
            outcome.samples.push_back({ms_between(connection.due, now),
                                       ms_between(connection.sent, now), kind.endpoint,
                                       std::chrono::duration<double>(now - start).count()});
            if (!response_ok(kind, frame, exact)) ++outcome.failed;
            connection.busy = false;
            --in_flight;
            idle.push_back(index);
            lock.unlock();
            idle_ready.notify_one();
            if (watch != nullptr) {
              outcome.live_max = std::max(outcome.live_max, watch->live_snapshots());
            }
          },
          [&](std::size_t index) {
            std::lock_guard<std::mutex> lock(mutex);
            ConnectionPool::Connection& connection = pool.at(index);
            if (connection.busy) {
              connection.busy = false;
              --in_flight;
              ++outcome.failed;
            }
          });
    }
  });

  const Clock::time_point end = after(seconds);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    if (due >= end || (stop != nullptr && stop->load())) break;
    std::this_thread::sleep_until(due);
    const std::uint32_t kind = mix.schedule[i % mix.schedule.size()];
    std::unique_lock<std::mutex> lock(mutex);
    if (!idle_ready.wait_until(lock, after(kClientTimeoutMs / 1000.0),
                               [&] { return !idle.empty(); })) {
      ++outcome.attempted;
      ++outcome.failed;
      break;
    }
    const std::size_t index = idle.back();
    idle.pop_back();
    ConnectionPool::Connection& connection = pool.at(index);
    const Clock::time_point now = Clock::now();
    outcome.lateness_ms.push_back(ms_between(due, now));
    connection.busy = true;
    connection.due = due;
    connection.sent = now;
    connection.kind = kind;
    ++in_flight;
    ++outcome.attempted;
    lock.unlock();
    // A failed send leaves the connection busy; the receiver's give-up
    // deadline counts it as failed.
    ConnectionPool::send_all(connection.fd, mix.kinds[kind].wire);
  }
  sending_done.store(true);
  receiver.join();
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return outcome;
}

/// Closed loop: every connection sends its next request as soon as its
/// previous answer arrives; throughput is answers over the phase's wall
/// time. The receiver thread does all the sending.
LoadOutcome closed_loop(const ReadMix& mix, std::uint16_t port,
                        std::size_t connections, double seconds) {
  LoadOutcome outcome;
  ConnectionPool pool(port, connections);
  if (!pool.ok()) {
    outcome.attempted = outcome.failed = 1;
    return outcome;
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = after(seconds);
  std::uint64_t next = 0;
  std::size_t in_flight = 0;
  const auto send_next = [&](std::size_t index) {
    ConnectionPool::Connection& connection = pool.at(index);
    connection.kind = mix.schedule[next++ % mix.schedule.size()];
    connection.sent = Clock::now();
    connection.busy = true;
    ++in_flight;
    ++outcome.attempted;
    if (!ConnectionPool::send_all(connection.fd, mix.kinds[connection.kind].wire)) {
      connection.busy = false;
      --in_flight;
      ++outcome.failed;
    }
  };
  for (std::size_t i = 0; i < pool.size(); ++i) send_next(i);
  const Clock::time_point give_up = end + std::chrono::milliseconds(kClientTimeoutMs);
  while (in_flight > 0 && Clock::now() < give_up) {
    pool.poll(
        50,
        [&](std::size_t index, const svc::Frame& frame, Clock::time_point now) {
          ConnectionPool::Connection& connection = pool.at(index);
          if (!connection.busy) {
            ++outcome.failed;
            return;
          }
          const RequestKind& kind = mix.kinds[connection.kind];
          const double ms = ms_between(connection.sent, now);
          outcome.samples.push_back({ms, ms, kind.endpoint,
                                     std::chrono::duration<double>(now - start).count()});
          if (!response_ok(kind, frame, true)) ++outcome.failed;
          connection.busy = false;
          --in_flight;
          if (now < end) send_next(index);
        },
        [&](std::size_t index) {
          ConnectionPool::Connection& connection = pool.at(index);
          if (connection.busy) {
            connection.busy = false;
            --in_flight;
            ++outcome.failed;
          }
        });
  }
  outcome.failed += in_flight;
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return outcome;
}

// --- the server under test -------------------------------------------------

/// The inputs a ServiceState loads, as the Zeek text a daemon would read.
struct LoadInput {
  std::string ssl_text;
  std::string x509_text;
};

/// One set-up server. Members tear down in reverse order: the server drains
/// and joins before the telemetry and the state it uses go away.
struct ServeInstance {
  std::unique_ptr<svc::ServiceState> state;
  std::unique_ptr<svc::SyncTelemetry> telemetry;
  std::unique_ptr<svc::Server> server;
  std::string wal_path;
  double setup_ms = 0.0;

  ServeInstance() = default;
  ServeInstance(const ServeInstance&) = delete;
  ServeInstance& operator=(const ServeInstance&) = delete;
  ~ServeInstance() {
    if (server) {
      server->request_stop();
      server->wait();
    }
  }
};

/// Set-up, timed: parse the text, ServiceState load and first analysis,
/// recover_and_arm (when a WAL path is given) and Server::start.
std::unique_ptr<ServeInstance> set_up(const Corpus& corpus, const LoadInput& input,
                                      const std::string& wal_path,
                                      std::string* error) {
  if (!wal_path.empty()) {
    std::filesystem::remove(wal_path);
    std::filesystem::remove(svc::snapshot_path_for(wal_path));
  }
  const datagen::Scenario& scenario = *corpus.scenario;
  auto instance = std::make_unique<ServeInstance>();
  instance->wal_path = wal_path;
  const Clock::time_point start = Clock::now();
  instance->state = std::make_unique<svc::ServiceState>(
      scenario.world.stores(), scenario.world.ct_logs(), scenario.vendors,
      &scenario.world.cross_signs());
  {
    const std::vector<zeek::SslLogRecord> ssl = zeek::parse_ssl_log(input.ssl_text);
    const std::vector<zeek::X509LogRecord> x509 = zeek::parse_x509_log(input.x509_text);
    instance->state->load(ssl, x509);
  }
  if (!wal_path.empty()) {
    svc::DurabilityOptions durability;
    durability.wal_path = wal_path;
    durability.snapshot_every = kWriteSnapshotEvery;
    if (!instance->state->recover_and_arm(durability, nullptr, error)) return nullptr;
  }
  instance->telemetry = std::make_unique<svc::SyncTelemetry>();
  svc::ServerOptions server_options;
  server_options.workers = kServerWorkers;
  server_options.queue_capacity = 256;
  server_options.max_connections = 4 * kReadConnections;
  instance->server = std::make_unique<svc::Server>(
      *instance->state, *instance->telemetry, server_options);
  if (!instance->server->start(error)) return nullptr;
  instance->setup_ms = ms_since(start);
  return instance;
}

/// Sets the server up kSetupRepeats times (the median is setup_s), verifies the
/// read mix on the first instance and keeps a fresh last one for the timed
/// phases, so verification traffic never reaches the measured histograms.
std::unique_ptr<ServeInstance> set_up_repeated(const Corpus& corpus,
                                               const LoadInput& input,
                                               const std::string& wal_path,
                                               ReadMix& mix,
                                               const core::StudyReport& batch,
                                               Result& result,
                                               std::vector<double>& setup_ms) {
  std::unique_ptr<ServeInstance> instance;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    instance.reset();
    std::string error;
    instance = set_up(corpus, input, wal_path, &error);
    if (!instance) {
      result.attempt();
      result.fail();
      result.check("serve.setup", false, error);
      return nullptr;
    }
    setup_ms.push_back(instance->setup_ms);
    if (repeat == 0) {
      verify_read_mix(mix, *instance->state, batch, instance->server->port(), result);
    }
  }
  return instance;
}

struct EndpointStats {
  double p50 = 0.0;
  double p99 = 0.0;
  double p90 = 0.0;
  std::uint64_t count = 0;
};

EndpointStats server_endpoint(const svc::SyncTelemetry& telemetry,
                              const std::string& endpoint) {
  return telemetry.with_context([&](const obs::RunContext& context) {
    EndpointStats stats;
    const auto& timings = context.metrics.timings();
    const auto found = timings.find("svc.endpoint." + endpoint + ".ms");
    if (found != timings.end()) {
      stats.p50 = found->second.p50();
      stats.p90 = found->second.p90();
      stats.p99 = found->second.p99();
      stats.count = found->second.count();
    }
    return stats;
  });
}

double server_endpoint_sum(const svc::SyncTelemetry& telemetry,
                           const std::string& endpoint) {
  return telemetry.with_context([&](const obs::RunContext& context) {
    const auto& timings = context.metrics.timings();
    const auto found = timings.find("svc.endpoint." + endpoint + ".ms");
    return found == timings.end() ? 0.0 : found->second.sum();
  });
}

/// Per-layer read metrics of one server under one open-loop stream:
/// server-side handler percentiles, transport (client time from the actual
/// send minus that endpoint's median handler time), event-loop counters and
/// the generator's own lateness.
void read_layers(const LoadOutcome& load, const svc::SyncTelemetry& telemetry,
                 Result& result) {
  double handler_p50[4] = {0, 0, 0, 0};
  for (int e = 0; e < 4; ++e) {
    const EndpointStats stats = server_endpoint(telemetry, kEndpoints[e]);
    handler_p50[e] = stats.p50;
    const std::string base = std::string("svc.endpoint.") + kEndpoints[e];
    result.metric(base + ".p50_ms", stats.p50, "ms", stats.count,
                  "server-side histogram");
    result.metric(base + ".p99_ms", stats.p99, "ms", stats.count,
                  "server-side histogram");
  }
  std::vector<double> transport;
  transport.reserve(load.samples.size());
  for (const Sample& sample : load.samples) {
    transport.push_back(sample.service_ms - handler_p50[sample.endpoint]);
  }
  result.metric("svc.transport.p50_ms", quantile(transport, 0.5), "ms",
                transport.size(), "client time from send minus handler p50");
  result.metric("svc.transport.p99_ms", quantile(transport, 0.99), "ms",
                transport.size(), "client time from send minus handler p50");
  const std::uint64_t requests =
      telemetry.counter("stage.svc.requests.in");
  result.metric("svc.eventloop.wakeups_per_request",
                static_cast<double>(telemetry.counter("svc.eventloop.wakeups")) /
                    static_cast<double>(std::max<std::uint64_t>(requests, 1)),
                "ratio", requests);
  result.metric("svc.eventloop.partial_writes",
                static_cast<double>(telemetry.counter("svc.eventloop.partial_writes")),
                "count", requests);
  result.metric("gen.lateness_p99_ms", quantile(load.lateness_ms, 0.99), "ms",
                load.lateness_ms.size(), "open-loop send time minus due time");
}

void add_load(Result& result, const LoadOutcome& load) {
  result.attempt(load.attempted);
  result.fail(load.failed);
}

std::string work_path(const Options& options, const std::string& name) {
  std::filesystem::create_directories(options.work_dir);
  return (std::filesystem::path(options.work_dir) / name).string();
}

core::StudyReport batch_report(const Corpus& corpus,
                               const std::vector<zeek::SslLogRecord>& ssl,
                               const std::vector<zeek::X509LogRecord>& x509) {
  const datagen::Scenario& scenario = *corpus.scenario;
  const core::StudyPipeline pipeline(scenario.world.stores(),
                                     scenario.world.ct_logs(), scenario.vendors,
                                     &scenario.world.cross_signs());
  return pipeline.run(core::StudyInput::records(ssl, x509));
}

}  // namespace

void run_serve_read(const Options& options, const Corpus& corpus, Result& result,
                    double seconds) {
  ReadMix mix = build_read_mix(corpus, options.seed);
  const core::StudyReport batch = batch_report(corpus, corpus.logs.ssl, corpus.logs.x509);
  const LoadInput input{corpus.ssl_text, corpus.x509_text};
  std::vector<double> setup_ms;
  const std::unique_ptr<ServeInstance> instance = set_up_repeated(
      corpus, input, "", mix, batch, result, setup_ms);
  if (!instance) return;
  const std::uint16_t port = instance->server->port();

  // The first second after start-up runs cold (first renders, fresh
  // connections); a discarded warm-up keeps it out of every phase.
  add_load(result, open_loop(mix, port, kReadRate, kReadConnections, 1.0, true, nullptr));
  if (options.trace) {
    const LoadOutcome open = open_loop(mix, port, kReadRate, kReadConnections,
                                       seconds, true, nullptr);
    add_load(result, open);
    read_layers(open, *instance->telemetry, result);
    return;
  }

  const LoadOutcome open = open_loop(mix, port, kReadRate, kReadConnections,
                                     seconds / 3.0, true, nullptr);
  const LoadOutcome closed =
      closed_loop(mix, port, kReadConnections, seconds * 2.0 / 3.0);
  add_load(result, open);
  add_load(result, closed);

  const std::vector<double> open_ms = open.latencies();
  const std::vector<double> closed_ms = closed.latencies();
  std::vector<double> render_ms;
  for (const Sample& sample : closed.samples) {
    if (sample.endpoint == 2) render_ms.push_back(sample.latency_ms);
  }
  const double capacity = static_cast<double>(closed.samples.size()) / closed.wall_s;
  result.timing("setup_s", setup_ms, 1e-3, "s",
                "parse + load + first analysis + Server::start");
  result.timing("op_p50_ms", closed_ms, 1.0, "ms", "closed loop at capacity");
  result.metric("op_tail_ms", closed.tail(0.99, 1.0), "ms", closed_ms.size(),
                "p99 closed loop, median of 1 s windows");
  result.timing("alt_p50_ms", render_ms, 1.0, "ms",
                "report_section requests of the closed loop");
  result.metric("throughput_per_s", capacity, "1/s", closed.samples.size(),
                "closed-loop capacity on " + std::to_string(kReadConnections) +
                    " connections");
  result.alias("read_p50_ms", median(open_ms), "ms");
  result.alias("read_p99_ms", open.tail(0.99, 1.0), "ms");
  result.alias("read_capacity_rps", capacity, "1/s");
  result.alias("open_loop_lateness_p99_ms", quantile(open.lateness_ms, 0.99), "ms");
  result.info("serve_read.offered_rps", std::to_string(kReadRate));
  result.info("serve_read.achieved_open_rps",
              std::to_string(static_cast<double>(open.attempted) / open.wall_s));
}

void run_serve_write(const Options& options, const Corpus& corpus, Result& result,
                     double seconds) {
  const netsim::GeneratedLogs& logs = corpus.logs;
  // Hold out a tail of the SSL log that load() never sees; its rows arrive
  // through ingest_append in seeded order, each batch carrying first the
  // X509 rows its SSL rows reference that the server has not seen yet.
  const std::size_t held = std::min(kHeldOutSslRows, logs.ssl.size() / 4);
  const std::size_t head = logs.ssl.size() - held;
  std::set<std::string> head_fuids;
  for (std::size_t i = 0; i < head; ++i) {
    head_fuids.insert(logs.ssl[i].cert_chain_fuids.begin(),
                      logs.ssl[i].cert_chain_fuids.end());
  }
  std::set<std::string> tail_fuids;
  for (std::size_t i = head; i < logs.ssl.size(); ++i) {
    for (const std::string& fuid : logs.ssl[i].cert_chain_fuids) {
      if (head_fuids.count(fuid) == 0) tail_fuids.insert(fuid);
    }
  }
  std::vector<zeek::SslLogRecord> loaded_ssl(logs.ssl.begin(), logs.ssl.begin() + head);
  std::vector<zeek::X509LogRecord> loaded_x509;
  std::map<std::string, const zeek::X509LogRecord*> held_x509;
  for (const zeek::X509LogRecord& record : logs.x509) {
    if (tail_fuids.count(record.fuid) != 0) {
      held_x509[record.fuid] = &record;
    } else {
      loaded_x509.push_back(record);
    }
  }
  LoadInput input;
  {
    zeek::SslLogWriter ssl_writer;
    for (const zeek::SslLogRecord& record : loaded_ssl) ssl_writer.add(record);
    zeek::X509LogWriter x509_writer;
    for (const zeek::X509LogRecord& record : loaded_x509) x509_writer.add(record);
    input.ssl_text = ssl_writer.finish();
    input.x509_text = x509_writer.finish();
  }
  std::vector<std::size_t> order;
  for (std::size_t i = head; i < logs.ssl.size(); ++i) order.push_back(i);
  util::Rng rng(options.seed ^ 0x77726974ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  ReadMix mix = build_read_mix(corpus, options.seed);
  const core::StudyReport loaded_batch = batch_report(corpus, loaded_ssl, loaded_x509);
  std::vector<double> setup_ms;
  const std::unique_ptr<ServeInstance> instance = set_up_repeated(
      corpus, input, work_path(options, "serve_write.wal"), mix, loaded_batch,
      result, setup_ms);
  if (!instance) return;
  svc::ServiceState& state = *instance->state;
  const svc::SyncTelemetry& telemetry = *instance->telemetry;
  const std::uint16_t port = instance->server->port();

  // The traced run re-analyzes a shadow of the live corpus beside the server
  // with a RunContext, since the server's own analysis records no spans.
  std::unique_ptr<core::DnPool> shadow_pool;
  std::unique_ptr<zeek::LogJoiner> shadow_joiner;
  std::unique_ptr<core::CorpusIndex> shadow_corpus;
  const datagen::Scenario& scenario = *corpus.scenario;
  const core::StudyPipeline pipeline(scenario.world.stores(), scenario.world.ct_logs(),
                                     scenario.vendors, &scenario.world.cross_signs());
  if (options.trace) {
    shadow_pool = std::make_unique<core::DnPool>();
    shadow_joiner = std::make_unique<zeek::LogJoiner>();
    shadow_joiner->set_dn_pool(shadow_pool.get());
    shadow_corpus = std::make_unique<core::CorpusIndex>();
    for (const zeek::X509LogRecord& record : loaded_x509) shadow_joiner->add(record);
    for (const zeek::SslLogRecord& record : loaded_ssl) {
      shadow_corpus->add(*shadow_joiner, record);
    }
  }

  std::atomic<bool> writer_done{false};
  LoadOutcome reads;
  std::thread reader([&] {
    reads = open_loop(mix, port, kWriteReadRate, kWriteReadConnections, seconds,
                      false, &state,
                      &writer_done);
  });

  svc::Client writer;
  svc::Client checker;
  writer.set_timeout_ms(kClientTimeoutMs);
  checker.set_timeout_ms(kClientTimeoutMs);
  const bool connected =
      writer.connect("127.0.0.1", port) && checker.connect("127.0.0.1", port);
  const std::string ping_wire = svc::encode_frame(svc::MessageType::kPing, "");
  const std::uintmax_t wal_before = std::filesystem::file_size(instance->wal_path);
  const std::uint64_t published_before = state.snapshots_published();

  std::vector<double> append_ms, append_small_ms, append_large_ms;
  std::vector<double> server_ms, analyze_ms, visible_ms;
  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> analyze_unattributed, write_unattributed;
  std::vector<zeek::SslLogRecord> appended_ssl;
  std::vector<zeek::X509LogRecord> appended_x509;
  std::uint64_t invisible = 0;
  std::int64_t live_max = 0;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = after(seconds);
  bool writer_ok = connected;
  for (std::size_t batch = 0; writer_ok && next < order.size() && Clock::now() < end;
       ++batch) {
    const std::size_t size = std::min<std::size_t>(batch % 2 == 0 ? 1 : 64,
                                                   order.size() - next);
    std::vector<std::string> ssl_rows, x509_rows;
    std::vector<zeek::SslLogRecord> batch_ssl;
    std::vector<zeek::X509LogRecord> batch_x509;
    for (std::size_t k = 0; k < size; ++k) {
      const zeek::SslLogRecord& record = logs.ssl[order[next++]];
      for (const std::string& fuid : record.cert_chain_fuids) {
        const auto held_row = held_x509.find(fuid);
        if (held_row == held_x509.end()) continue;
        x509_rows.push_back(zeek::render_x509_row(*held_row->second));
        batch_x509.push_back(*held_row->second);
        held_x509.erase(held_row);
      }
      ssl_rows.push_back(zeek::render_ssl_row(record));
      batch_ssl.push_back(record);
    }
    obs::json::Writer payload;
    payload.begin_object();
    payload.key("ssl_rows");
    payload.begin_array();
    for (const std::string& row : ssl_rows) payload.value_string(row);
    payload.end_array();
    payload.key("x509_rows");
    payload.begin_array();
    for (const std::string& row : x509_rows) payload.value_string(row);
    payload.end_array();
    payload.end_object();
    const std::string wire =
        svc::encode_frame(svc::MessageType::kIngestAppend, std::move(payload).str());

    const double server_before =
        options.trace ? server_endpoint_sum(telemetry, "ingest_append") : 0.0;
    result.attempt();
    const Clock::time_point sent = Clock::now();
    std::optional<svc::Frame> ack;
    if (writer.send_raw(wire)) ack = writer.read_frame();
    const Clock::time_point acked = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(acked - sent).count();

    std::uint64_t generation = 0;
    bool ok = ack && ack->type == svc::MessageType::kIngestAppendOk;
    if (ok) {
      const auto parsed = obs::json::parse(ack->payload);
      const auto number = [&](const char* key) {
        const obs::json::Value* value = parsed ? parsed->find(key) : nullptr;
        return value != nullptr && value->is_number() ? value->num : -1.0;
      };
      generation = static_cast<std::uint64_t>(std::max(0.0, number("generation")));
      ok = number("ssl_added") == static_cast<double>(size) &&
           number("x509_added") == static_cast<double>(x509_rows.size()) &&
           number("ssl_malformed") == 0 && number("x509_malformed") == 0;
    }
    // The server publishes before it acks: the next read must see the
    // acked generation.
    std::uint64_t seen = 0;
    for (int poll = 0; ok && poll < (options.trace ? 1000 : 1); ++poll) {
      std::optional<svc::Frame> pong;
      if (checker.send_raw(ping_wire)) pong = checker.read_frame();
      const auto parsed = pong ? obs::json::parse(pong->payload) : std::nullopt;
      const obs::json::Value* value = parsed ? parsed->find("generation") : nullptr;
      seen = value != nullptr ? static_cast<std::uint64_t>(value->num) : 0;
      if (seen >= generation) break;
    }
    if (ok && seen < generation) ++invisible;
    if (ok) visible_ms.push_back(ms_since(acked));
    if (!ok || seen < generation) {
      result.fail();
      writer_ok = ack.has_value();
      continue;
    }
    appended_ssl.insert(appended_ssl.end(), batch_ssl.begin(), batch_ssl.end());
    appended_x509.insert(appended_x509.end(), batch_x509.begin(), batch_x509.end());
    append_ms.push_back(ms);
    (size == 1 ? append_small_ms : append_large_ms).push_back(ms);
    live_max = std::max(live_max, state.live_snapshots());

    if (options.trace) {
      const double server = server_endpoint_sum(telemetry, "ingest_append") - server_before;
      for (const zeek::X509LogRecord& record : batch_x509) shadow_joiner->add(record);
      for (const zeek::SslLogRecord& record : batch_ssl) {
        shadow_corpus->add(*shadow_joiner, record);
      }
      obs::RunContext context;
      const Clock::time_point analyze_start = Clock::now();
      pipeline.analyze(*shadow_corpus, &context, shadow_pool.get());
      const double analyze = ms_since(analyze_start);
      double staged = 0.0;
      for (const char* stage :
           {"enrich", "categorize", "structure", "graphs", "ct_compliance"}) {
        const auto& timings = context.metrics.timings();
        const auto found = timings.find(std::string("time.") + stage + ".ms");
        const double value = found == timings.end() ? 0.0 : found->second.sum();
        stage_ms[stage].push_back(value);
        staged += value;
      }
      server_ms.push_back(server);
      analyze_ms.push_back(analyze);
      analyze_unattributed.push_back(analyze - staged);
      write_unattributed.push_back(server - analyze);
    }
  }
  const double write_wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  writer_done.store(true);
  reader.join();
  add_load(result, reads);
  live_max = std::max(live_max, reads.live_max);
  result.check("serve_write.acked_generation_visible", invisible == 0 && writer_ok,
               std::to_string(append_ms.size()) + " appends acked, " +
                   std::to_string(invisible) + " not visible to the next read");

  // The final served report must equal a batch run over everything folded.
  {
    result.attempt();
    std::vector<zeek::SslLogRecord> all_ssl = loaded_ssl;
    all_ssl.insert(all_ssl.end(), appended_ssl.begin(), appended_ssl.end());
    std::vector<zeek::X509LogRecord> all_x509 = loaded_x509;
    all_x509.insert(all_x509.end(), appended_x509.begin(), appended_x509.end());
    const std::string expected = core::render_report_text(
        batch_report(corpus, all_ssl, all_x509), core::ReportTextOptions{});
    std::optional<svc::Frame> frame;
    if (writer.send_raw(svc::encode_frame(svc::MessageType::kReportSection,
                                          "{\"section\":\"full\"}"))) {
      frame = writer.read_frame();
    }
    const auto parsed = frame ? obs::json::parse(frame->payload) : std::nullopt;
    const obs::json::Value* text = parsed ? parsed->find("text") : nullptr;
    const bool equal = text != nullptr && text->is_string() && text->string == expected;
    if (!equal) result.fail();
    result.check("serve_write.final_report_equals_batch", equal,
                 std::to_string(loaded_ssl.size()) + " loaded + " +
                     std::to_string(appended_ssl.size()) + " appended SSL rows");
  }
  result.info("serve_write.loaded_ssl_rows", std::to_string(loaded_ssl.size()));
  result.info("serve_write.appended_ssl_rows", std::to_string(appended_ssl.size()));
  result.info("serve_write.appends", std::to_string(append_ms.size()));
  result.info("serve_write.wal", "fsync per append, snapshot_every=" +
                                     std::to_string(kWriteSnapshotEvery));
  if (append_ms.empty()) {
    result.check("serve_write.appends", false, "no append was acknowledged");
    return;
  }

  if (options.trace) {
    const EndpointStats append = server_endpoint(telemetry, "ingest_append");
    result.metric("svc.endpoint.ingest_append.p50_ms", append.p50, "ms", append.count,
                  "server-side histogram");
    result.metric("svc.endpoint.ingest_append.p90_ms", append.p90, "ms", append.count,
                  "server-side histogram");
    // All write.* parts come from the append with the median server-side
    // time, so they sum to that append's server time exactly.
    std::vector<std::size_t> by_server(server_ms.size());
    for (std::size_t i = 0; i < by_server.size(); ++i) by_server[i] = i;
    std::sort(by_server.begin(), by_server.end(),
              [&](std::size_t a, std::size_t b) { return server_ms[a] < server_ms[b]; });
    const std::size_t mid = by_server[(by_server.size() - 1) / 2];
    const std::string from = "from the append with the median server time, of " +
                             std::to_string(server_ms.size());
    result.metric("write.analyze_ms", analyze_ms[mid], "ms", server_ms.size(),
                  "StudyPipeline::analyze over the live corpus; " + from);
    for (const auto& [stage, values] : stage_ms) {
      result.metric("write.core." + stage + "_ms", values[mid], "ms", values.size(), from);
    }
    result.metric("write.analyze_unattributed_ms", analyze_unattributed[mid], "ms",
                  server_ms.size(), "analyze minus its stages; " + from);
    result.metric("write.unattributed_ms", write_unattributed[mid], "ms",
                  server_ms.size(),
                  "server append " + std::to_string(server_ms[mid]) +
                      " ms minus write.analyze_ms");
    const std::uintmax_t wal_after = std::filesystem::file_size(instance->wal_path);
    result.metric("svc.wal.bytes_per_append",
                  static_cast<double>(wal_after - wal_before) /
                      static_cast<double>(append_ms.size()),
                  "B", append_ms.size());
    result.metric("svc.snapshot.published",
                  static_cast<double>(state.snapshots_published() - published_before),
                  "count", append_ms.size());
    result.metric("svc.snapshot.live_max", static_cast<double>(live_max), "count");
    result.timing("write.visible_lag_ms", visible_ms, 1.0, "ms", "ack to a read of that generation");
    read_layers(reads, telemetry, result);
    return;
  }

  const std::vector<double> read_ms = reads.latencies();
  result.timing("setup_s", setup_ms, 1e-3, "s",
                "parse + load + first analysis + recover_and_arm + Server::start");
  result.timing("op_p50_ms", append_ms, 1.0, "ms", "ingest_append send to ack");
  result.metric("op_tail_ms", quantile(append_ms, 0.9), "ms", append_ms.size(),
                "p90 ingest_append send to ack");
  result.timing("alt_p50_ms", append_large_ms, 1.0, "ms", "64-row ingest_append send to ack");
  result.metric("throughput_per_s", static_cast<double>(append_ms.size()) / write_wall_s,
                "1/s", append_ms.size(), "appends acknowledged per second");
  result.alias("append_p50_ms", median(append_ms), "ms");
  result.alias("append_p90_ms", quantile(append_ms, 0.9), "ms");
  result.alias("append_1row_p50_ms", median(append_small_ms), "ms");
  result.alias("append_64row_p50_ms", median(append_large_ms), "ms");
  result.alias("write_read_p50_ms", median(read_ms), "ms");
  result.alias("write_read_p99_ms", reads.tail(0.99, 2.0), "ms");
}

}  // namespace certbench
