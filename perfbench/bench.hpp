// Shared plumbing of the certbench harness: options, the generated corpus,
// sample statistics and the result document.
//
// The harness measures certchain from outside, by timing calls into the
// public functions of each layer (zeek readers, LogJoiner/CorpusIndex,
// StudyPipeline, render_report_text, svc::Server via svc::Client, and
// ServiceState). Inputs are generated from the seed before any clock
// starts; generation is never part of a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/scenario.hpp"
#include "netsim/simulator.hpp"

namespace certbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// --- pinned load (README.md "Load") ---------------------------------------
// None of these is derived from the host's core count.
inline constexpr std::size_t kServerWorkers = 2;
inline constexpr std::size_t kReadConnections = 64;       // open and closed loop
inline constexpr double kReadRate = 1500.0;               // serve_read, req/s
inline constexpr double kWriteReadRate = 500.0;           // serve_write reads
inline constexpr std::size_t kWriteReadConnections = 8;
inline constexpr std::size_t kWriteSnapshotEvery = 0;     // never compact
inline constexpr std::size_t kShardedThreads = 4;         // batch_study t=4
inline constexpr std::size_t kHeldOutSslRows = 8192;      // serve_write tail
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 20200901;
  double seconds = 10.0;
  bool trace = false;
  double chain_scale = 0.005;
  std::uint64_t connections = 120000;
  std::string out_dir;   // result documents (empty = none written)
  std::string work_dir;  // WAL files
  std::optional<std::uint64_t> expect_digest;  // overrides the recorded one
};

/// The generated inputs: the scenario's databases plus the Zeek log pair as
/// text and as parsed records.
struct Corpus {
  std::unique_ptr<certchain::datagen::Scenario> scenario;
  certchain::netsim::GeneratedLogs logs;
  std::string ssl_text;
  std::string x509_text;
  std::size_t unique_chains = 0;
};

Corpus generate_corpus(const Options& options);

// --- sample statistics -----------------------------------------------------

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above
/// it; 0.5 when the sample is smaller than twenty.
double supported_quantile(std::size_t samples);
/// A tail quantile taken per time window and summarized by the median of
/// the windows, so one scheduler stall of the host moves one window only.
/// `at_s` gives each value's completion time in seconds.
double windowed_quantile(const std::vector<double>& values,
                         const std::vector<double>& at_s, double q,
                         double window_s);

// --- result document -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // timings: how many observations the value summarizes
  std::string detail;       // how the value was taken
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

class Result {
 public:
  void metric(std::string name, double value, std::string unit,
              std::size_t samples = 0, std::string detail = {});
  /// Records a timing sample as its median, plus (in the document) the
  /// highest percentile the sample count supports.
  void timing(const std::string& name, const std::vector<double>& values,
              double scale, std::string unit, std::string detail = {});
  void check(std::string name, bool passed, std::string detail = {});
  /// Operations: every attempted operation counts; a failed one is either a
  /// transport/typed error or an answer whose check failed.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// The workload-specific name of a number, printed beside the
  /// common metric it feeds.
  void alias(std::string name, double value, std::string unit);
  void info(std::string key, std::string value) { info_[std::move(key)] = std::move(value); }

  bool correct() const;

  /// Human-readable block followed by the one-line JSON result (last line).
  void print(const Options& options, const std::vector<std::string>& declared) const;
  /// The full result document: host block, seed, corpus shape, every metric
  /// with its sample count and percentile, checks, aliases.
  std::string document(const Options& options) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<Metric> aliases_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The metric names this run must report, in declaration order.
std::vector<std::string> declared_metrics(bool trace);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

// --- workloads -------------------------------------------------------------

/// batch_study: Zeek text -> StudyPipeline::run -> rendered report, at
/// threads=1 and threads=4 alternating.
void run_batch(const Options& options, const Corpus& corpus, Result& result,
               double seconds);
/// serve_read / serve_write over an in-process svc::Server.
void run_serve_read(const Options& options, const Corpus& corpus,
                    Result& result, double seconds);
void run_serve_write(const Options& options, const Corpus& corpus,
                     Result& result, double seconds);

}  // namespace certbench
