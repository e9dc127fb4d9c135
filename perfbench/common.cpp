#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "core/corpus.hpp"
#include "obs/json.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certbench {

using namespace certchain;

Corpus generate_corpus(const Options& options) {
  datagen::ScenarioConfig config;
  config.seed = options.seed;
  config.chain_scale = options.chain_scale;
  config.total_connections = options.connections;
  Corpus corpus;
  corpus.scenario = datagen::build_study_scenario(config);
  corpus.logs = corpus.scenario->generate_logs();
  zeek::SslLogWriter ssl_writer;
  for (const zeek::SslLogRecord& record : corpus.logs.ssl) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const zeek::X509LogRecord& record : corpus.logs.x509) x509_writer.add(record);
  corpus.ssl_text = ssl_writer.finish();
  corpus.x509_text = x509_writer.finish();
  const zeek::LogJoiner joiner(corpus.logs.x509);
  core::CorpusIndex index;
  for (const zeek::SslLogRecord& record : corpus.logs.ssl) index.add(joiner, record);
  corpus.unique_chains = index.unique_chain_count();
  return corpus;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double supported_quantile(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double windowed_quantile(const std::vector<double>& values,
                         const std::vector<double>& at_s, double q,
                         double window_s) {
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<long>(at_s[i] / window_s)].push_back(values[i]);
  }
  std::vector<double> tails;
  for (const auto& [window, members] : windows) {
    // A partial last window is too small to carry the quantile.
    if (static_cast<double>(members.size()) * (1.0 - q) >= 5.0) {
      tails.push_back(quantile(members, q));
    }
  }
  return tails.empty() ? quantile(values, q) : median(tails);
}


namespace {

/// "p99", "p99.9", ... for a quantile.
std::string quantile_label(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "p%g", q * 100.0);
  return buffer;
}

/// Shortest round-trip text of a double (every digit as measured).
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

long nproc() { return sysconf(_SC_NPROCESSORS_ONLN); }

}  // namespace

void Result::metric(std::string name, double value, std::string unit,
                    std::size_t samples, std::string detail) {
  // First report wins: a traced run measures the workload's own phase first
  // and fills only the names it left open from the probe phases.
  for (const Metric& existing : metrics_) {
    if (existing.name == name) return;
  }
  metrics_.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(detail)});
}

void Result::timing(const std::string& name, const std::vector<double>& values,
                    double scale, std::string unit, std::string detail) {
  std::vector<double> scaled = values;
  for (double& value : scaled) value *= scale;
  const double q = supported_quantile(scaled.size());
  std::string label = "median";
  if (q > 0.5) {
    label += "; " + quantile_label(q) + "=" + number(quantile(scaled, q));
  }
  if (!detail.empty()) label += "; " + detail;
  metric(name, median(scaled), std::move(unit), scaled.size(), label);
}

void Result::check(std::string name, bool passed, std::string detail) {
  checks_.push_back({std::move(name), passed, std::move(detail)});
}

void Result::alias(std::string name, double value, std::string unit) {
  aliases_.push_back({std::move(name), value, std::move(unit), 0, {}});
}

bool Result::correct() const {
  if (failed_ != 0 || attempted_ == 0) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& check) { return check.passed; });
}

void Result::print(const Options& options,
                   const std::vector<std::string>& declared) const {
  std::printf("certbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s\n", nproc(),
              cpu_model().c_str(), CERTBENCH_COMPILER, CERTBENCH_BUILD_TYPE);
  for (const auto& [key, value] : info_) {
    std::printf("info: %s=%s\n", key.c_str(), value.c_str());
  }
  for (const Metric& metric : metrics_) {
    std::printf("metric %-42s %14s %-6s n=%zu %s\n", metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str(),
                metric.samples, metric.detail.c_str());
  }
  for (const Metric& alias : aliases_) {
    std::printf("alias  %-42s %14s %s\n", alias.name.c_str(),
                number(alias.value).c_str(), alias.unit.c_str());
  }
  for (const Check& check : checks_) {
    std::printf("check  %-42s %s %s\n", check.name.c_str(),
                check.passed ? "PASS" : "FAIL", check.detail.c_str());
  }
  std::printf("fail_ratio %s (%llu failed of %llu attempted)\n",
              number(attempted_ == 0 ? 1.0
                                     : static_cast<double>(failed_) /
                                           static_cast<double>(attempted_))
                  .c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  bool complete = true;
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const std::string& name : declared) {
    const auto found =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& metric) { return metric.name == name; });
    if (found == metrics_.end()) {
      std::printf("missing metric %s\n", name.c_str());
      complete = false;
      continue;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(found->value) +
            ", \"unit\": \"" + found->unit + "\"}";
  }
  json += "}, \"correct\": ";
  json += correct() && complete ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Result::document(const Options& options) const {
  obs::json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string("certchain.bench");
  writer.key("version");
  writer.value_uint(2);
  writer.key("workload");
  writer.value_string(options.workload);
  writer.key("seed");
  writer.value_uint(options.seed);
  writer.key("seconds");
  writer.value_raw(number(options.seconds));
  writer.key("trace");
  writer.value_bool(options.trace);
  writer.key("host");
  writer.begin_object();
  writer.key("nproc");
  writer.value_uint(static_cast<std::uint64_t>(nproc()));
  writer.key("cpu_model");
  writer.value_string(cpu_model());
  writer.key("compiler");
  writer.value_string(CERTBENCH_COMPILER);
  writer.key("build_type");
  writer.value_string(CERTBENCH_BUILD_TYPE);
  writer.end_object();
  writer.key("info");
  writer.begin_object();
  for (const auto& [key, value] : info_) {
    writer.key(key);
    writer.value_string(value);
  }
  writer.end_object();
  const auto write_metrics = [&](const char* key, const std::vector<Metric>& list) {
    writer.key(key);
    writer.begin_array();
    for (const Metric& metric : list) {
      writer.begin_object();
      writer.key("name");
      writer.value_string(metric.name);
      writer.key("value");
      writer.value_raw(number(metric.value));
      writer.key("unit");
      writer.value_string(metric.unit);
      if (metric.samples != 0) {
        writer.key("samples");
        writer.value_uint(metric.samples);
      }
      if (!metric.detail.empty()) {
        writer.key("detail");
        writer.value_string(metric.detail);
      }
      writer.end_object();
    }
    writer.end_array();
  };
  write_metrics("metrics", metrics_);
  write_metrics("aliases", aliases_);
  writer.key("checks");
  writer.begin_array();
  for (const Check& check : checks_) {
    writer.begin_object();
    writer.key("name");
    writer.value_string(check.name);
    writer.key("passed");
    writer.value_bool(check.passed);
    writer.key("detail");
    writer.value_string(check.detail);
    writer.end_object();
  }
  writer.end_array();
  writer.key("attempted");
  writer.value_uint(attempted_);
  writer.key("failed");
  writer.value_uint(failed_);
  writer.key("fail_ratio");
  writer.value_raw(number(attempted_ == 0 ? 1.0
                                          : static_cast<double>(failed_) /
                                                static_cast<double>(attempted_)));
  writer.key("correct");
  writer.value_bool(correct());
  writer.end_object();
  return std::move(writer).str();
}

std::vector<std::string> declared_metrics(bool trace) {
  if (!trace) {
    return {"setup_s",    "op_p50_ms",        "op_tail_ms",
            "alt_p50_ms", "throughput_per_s", "peak_rss_mb"};
  }
  std::vector<std::string> names = {
      "zeek.parse_ms",
      "zeek.parse_rows_per_s",
      "core.dn_pool.distinct",
      "core.fold_ms",
      "core.ingest_ms",
      "core.join_ms",
      "core.enrich_ms",
      "core.categorize_ms",
      "core.structure_ms",
      "core.graphs_ms",
      "core.ct_compliance_ms",
      "core.pipeline_unattributed_ms",
      "core.run_unattributed_ms",
      "core.render_ms",
      "core.traced_study_ms",
      "trace.overhead_ms",
      "trace.sharded_overhead_ms",
      "sharded.core.ingest_ms",
      "sharded.core.join_ms",
      "sharded.core.categorize_ms",
      "sharded.core.structure_ms",
      "par.speedup",
  };
  for (const char* endpoint : {"classify_issuer", "categorize_chain",
                               "report_section", "ct_prove_inclusion"}) {
    names.push_back(std::string("svc.endpoint.") + endpoint + ".p50_ms");
    names.push_back(std::string("svc.endpoint.") + endpoint + ".p99_ms");
  }
  for (const char* name :
       {"svc.transport.p50_ms", "svc.transport.p99_ms",
        "svc.eventloop.wakeups_per_request", "svc.eventloop.partial_writes",
        "gen.lateness_p99_ms", "svc.endpoint.ingest_append.p50_ms",
        "svc.endpoint.ingest_append.p90_ms", "write.analyze_ms",
        "write.core.enrich_ms", "write.core.categorize_ms",
        "write.core.structure_ms", "write.core.graphs_ms",
        "write.core.ct_compliance_ms", "write.analyze_unattributed_ms",
        "write.unattributed_ms", "svc.wal.bytes_per_append",
        "svc.snapshot.published", "svc.snapshot.live_max",
        "write.visible_lag_ms"}) {
    names.push_back(name);
  }
  return names;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace certbench
