// batch_study: the paper's batch path (the certchain-analyze default). Zeek
// TSV text already in memory goes through StudyPipeline::run and the report
// is rendered, alternately at threads=1 and threads=4. No svc code runs, so
// this workload is the bypass case for every serving optimisation.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "obs/run_context.hpp"
#include "util/hash.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_stream.hpp"

namespace certbench {

using namespace certchain;

namespace {

/// Report digests recorded for the default corpus shape (chain_scale=0.005,
/// 120,000 connections): fnv1a64 of the report rendered with graphs.
std::optional<std::uint64_t> recorded_digest(const Options& options) {
  if (options.expect_digest) return options.expect_digest;
  if (options.chain_scale != 0.005 || options.connections != 120000) {
    return std::nullopt;
  }
  if (options.seed == 20200901) return 0x8fcbcf6b1c2bbb90ULL;
  return std::nullopt;
}

struct StudyRun {
  double run_ms = 0.0;     // StudyPipeline::run
  double render_ms = 0.0;  // render_report_text
  double total_ms() const { return run_ms + render_ms; }
  std::uint64_t digest = 0;
};

StudyRun run_study(const core::StudyPipeline& pipeline, const Corpus& corpus,
                   std::size_t threads, obs::RunContext* context) {
  StudyRun run;
  core::RunOptions options;
  options.threads = threads;
  const Clock::time_point start = Clock::now();
  const core::StudyReport report = pipeline.run(
      core::StudyInput::text(corpus.ssl_text, corpus.x509_text), options, context);
  const Clock::time_point rendered = Clock::now();
  core::ReportTextOptions text_options;
  text_options.graphs = true;
  const std::string text = core::render_report_text(report, text_options);
  run.render_ms = ms_since(rendered);
  run.run_ms = std::chrono::duration<double, std::milli>(rendered - start).count();
  run.digest = util::fnv1a64(text);
  return run;
}

double stage_ms(const obs::RunContext& context, const std::string& stage) {
  const auto& timings = context.metrics.timings();
  const auto found = timings.find("time." + stage + ".ms");
  return found == timings.end() ? 0.0 : found->second.sum();
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Every study's digest must equal the reference: the digest recorded for
/// the seed when there is one, otherwise the first study's. A study whose
/// digest differs counts as a failed operation.
class DigestCheck {
 public:
  explicit DigestCheck(std::optional<std::uint64_t> recorded)
      : recorded_(recorded) {}
  void observe(const StudyRun& run, std::size_t threads, Result& result) {
    result.attempt();
    if (!reference_) reference_ = recorded_ ? *recorded_ : run.digest;
    if (run.digest != *reference_) result.fail();
    (threads == 1 ? serial_ : sharded_).insert(run.digest);
  }
  void report(Result& result) const {
    const auto list = [](const std::set<std::uint64_t>& digests) {
      std::string text;
      for (const std::uint64_t digest : digests) text += hex(digest) + " ";
      return text;
    };
    result.check("batch.digest_t1_eq_t4", serial_.size() == 1 && serial_ == sharded_,
                 "threads=1: " + list(serial_) + "threads=4: " + list(sharded_));
    const bool matches = !recorded_ || (serial_.size() == 1 && sharded_.size() <= 1 &&
                                        *serial_.begin() == *recorded_ &&
                                        (sharded_.empty() || *sharded_.begin() == *recorded_));
    result.check("batch.digest_recorded", matches,
                 recorded_ ? "expected " + hex(*recorded_)
                           : "no digest recorded for this seed and corpus shape");
  }

 private:
  std::optional<std::uint64_t> recorded_;
  std::optional<std::uint64_t> reference_;
  std::set<std::uint64_t> serial_;
  std::set<std::uint64_t> sharded_;
};

/// One traced serial run split into its spans and residuals; the parts sum
/// to total_ms exactly.
struct TracedSplit {
  double ingest = 0.0;
  std::vector<double> stages;  // kStages order
  double pipeline_unattributed = 0.0;
  double run_unattributed = 0.0;
  double render = 0.0;
  double total_ms = 0.0;
};

const char* const kStages[] = {"join",      "enrich", "categorize",
                               "structure", "graphs", "ct_compliance"};

/// The zeek and core-fold layers on their own: the streaming readers with a
/// DnPool attached, then LogJoiner + CorpusIndex::add over the parsed
/// records. Returns the pool's distinct DN count; the records are freed
/// before the caller's studies run.
std::size_t probe_parse_and_fold(const Corpus& corpus, std::vector<double>& parse_ms,
                                 std::vector<double>& fold_ms) {
  core::DnPool pool;
  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;
  Clock::time_point start = Clock::now();
  auto ssl_reader = zeek::make_streaming_ssl_reader(
      [&ssl](zeek::SslLogRecord record) { ssl.push_back(std::move(record)); });
  ssl_reader.set_dn_pool(&pool);
  ssl_reader.feed(corpus.ssl_text);
  ssl_reader.finish();
  auto x509_reader = zeek::make_streaming_x509_reader(
      [&x509](zeek::X509LogRecord record) { x509.push_back(std::move(record)); });
  x509_reader.set_dn_pool(&pool);
  x509_reader.feed(corpus.x509_text);
  x509_reader.finish();
  parse_ms.push_back(ms_since(start));

  start = Clock::now();
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&pool);
  for (const zeek::X509LogRecord& record : x509) joiner.add(record);
  core::CorpusIndex index;
  for (const zeek::SslLogRecord& record : ssl) index.add(joiner, record);
  fold_ms.push_back(ms_since(start));
  return pool.size();
}

void traced_phase(const Corpus& corpus,
                  const core::StudyPipeline& pipeline, DigestCheck& digests,
                  Result& result, double seconds) {
  std::vector<double> parse_ms, fold_ms, untraced_ms, sharded_total_ms,
      untraced_sharded_ms;
  std::vector<TracedSplit> splits;
  std::map<std::string, std::vector<double>> sharded;
  std::size_t distinct = 0;
  bool accounted = true;
  const std::size_t rows = corpus.logs.ssl.size() + corpus.logs.x509.size();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    distinct = probe_parse_and_fold(corpus, parse_ms, fold_ms);

    obs::RunContext context;
    const StudyRun traced = run_study(pipeline, corpus, 1, &context);
    digests.observe(traced, 1, result);
    TracedSplit split;
    split.ingest = stage_ms(context, "ingest");
    double staged = 0.0;
    for (const char* stage : kStages) {
      split.stages.push_back(stage_ms(context, stage));
      staged += split.stages.back();
    }
    const double pipeline_ms = stage_ms(context, "pipeline");
    split.pipeline_unattributed = pipeline_ms - staged;
    split.run_unattributed = traced.run_ms - split.ingest - pipeline_ms;
    split.render = traced.render_ms;
    split.total_ms = traced.total_ms();
    // Spans nest inside their parents, so no residual may be negative.
    accounted = accounted && split.pipeline_unattributed > -0.05 &&
                split.run_unattributed > -0.05;
    splits.push_back(split);

    const StudyRun untraced = run_study(pipeline, corpus, 1, nullptr);
    digests.observe(untraced, 1, result);
    untraced_ms.push_back(untraced.total_ms());

    obs::RunContext sharded_context;
    const StudyRun parallel =
        run_study(pipeline, corpus, kShardedThreads, &sharded_context);
    digests.observe(parallel, kShardedThreads, result);
    sharded_total_ms.push_back(parallel.total_ms());
    for (const char* stage : {"ingest", "join", "categorize", "structure"}) {
      sharded[stage].push_back(stage_ms(sharded_context, stage));
    }

    const StudyRun untraced_parallel =
        run_study(pipeline, corpus, kShardedThreads, nullptr);
    digests.observe(untraced_parallel, kShardedThreads, result);
    untraced_sharded_ms.push_back(untraced_parallel.total_ms());
  } while (Clock::now() < deadline);

  result.timing("zeek.parse_ms", parse_ms, 1.0, "ms", "streaming readers + DnPool");
  result.metric("zeek.parse_rows_per_s",
                static_cast<double>(rows) * 1000.0 / median(parse_ms), "1/s",
                parse_ms.size());
  result.metric("core.dn_pool.distinct", static_cast<double>(distinct), "count");
  result.timing("core.fold_ms", fold_ms, 1.0, "ms", "LogJoiner + CorpusIndex::add");

  // Report every part of the serial split from the run with the median
  // traced wall time, so the parts sum to core.traced_study_ms exactly.
  std::vector<std::size_t> order(splits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return splits[a].total_ms < splits[b].total_ms;
  });
  const TracedSplit& mid = splits[order[(order.size() - 1) / 2]];
  const std::string from = "from the median of " + std::to_string(splits.size()) +
                           " traced serial runs";
  result.metric("core.ingest_ms", mid.ingest, "ms", splits.size(), from);
  for (std::size_t i = 0; i < mid.stages.size(); ++i) {
    result.metric(std::string("core.") + kStages[i] + "_ms", mid.stages[i], "ms",
                  splits.size(), from);
  }
  result.metric("core.pipeline_unattributed_ms", mid.pipeline_unattributed, "ms",
                splits.size(), "time.pipeline.ms minus the named stages");
  result.metric("core.run_unattributed_ms", mid.run_unattributed, "ms",
                splits.size(), "run wall minus time.ingest.ms minus time.pipeline.ms");
  result.metric("core.render_ms", mid.render, "ms", splits.size(), from);
  result.metric("core.traced_study_ms", mid.total_ms, "ms", splits.size(),
                "ingest + stages + both residuals + render");
  std::vector<double> traced_totals;
  for (const TracedSplit& split : splits) traced_totals.push_back(split.total_ms);
  result.metric("trace.overhead_ms", median(traced_totals) - median(untraced_ms),
                "ms", untraced_ms.size(), "traced minus untraced serial study");
  for (const auto& [stage, values] : sharded) {
    result.timing("sharded.core." + stage + "_ms", values, 1.0, "ms",
                  "threads=" + std::to_string(kShardedThreads));
  }
  result.metric("trace.sharded_overhead_ms",
                median(sharded_total_ms) - median(untraced_sharded_ms), "ms",
                untraced_sharded_ms.size(), "traced minus untraced sharded study");
  result.metric("par.speedup", median(untraced_ms) / median(untraced_sharded_ms),
                "ratio", untraced_sharded_ms.size(),
                "untraced serial / untraced sharded study");
  result.check("batch.trace_accounts_for_wall", accounted,
               "no residual below -0.05 ms in " + std::to_string(splits.size()) +
                   " traced runs");
}

}  // namespace

void run_batch(const Options& options, const Corpus& corpus, Result& result,
               double seconds) {
  const datagen::Scenario& scenario = *corpus.scenario;
  DigestCheck digests(recorded_digest(options));

  if (options.trace) {
    const core::StudyPipeline pipeline(scenario.world.stores(),
                                       scenario.world.ct_logs(), scenario.vendors,
                                       &scenario.world.cross_signs());
    traced_phase(corpus, pipeline, digests, result, seconds);
    digests.report(result);
    return;
  }

  // Set-up: pipeline construction plus one warm-up study at each thread
  // count (the first sharded study also grows the workers' allocator
  // arenas), repeated; the median is setup_s.
  std::vector<double> setup_ms;
  std::optional<core::StudyPipeline> pipeline;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    pipeline.emplace(scenario.world.stores(), scenario.world.ct_logs(),
                     scenario.vendors, &scenario.world.cross_signs());
    const StudyRun warm = run_study(*pipeline, corpus, 1, nullptr);
    const StudyRun warm_sharded = run_study(*pipeline, corpus, kShardedThreads, nullptr);
    setup_ms.push_back(ms_since(start));
    digests.observe(warm, 1, result);
    digests.observe(warm_sharded, kShardedThreads, result);
  }

  std::vector<double> serial_ms, sharded_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const StudyRun serial = run_study(*pipeline, corpus, 1, nullptr);
    serial_ms.push_back(serial.total_ms());
    digests.observe(serial, 1, result);
    const StudyRun sharded = run_study(*pipeline, corpus, kShardedThreads, nullptr);
    sharded_ms.push_back(sharded.total_ms());
    digests.observe(sharded, kShardedThreads, result);
  } while (Clock::now() < deadline);
  digests.report(result);

  const double rows =
      static_cast<double>(corpus.logs.ssl.size() + corpus.logs.x509.size());
  result.timing("setup_s", setup_ms, 1e-3, "s", "construction + a warm-up study at each thread count");
  result.timing("op_p50_ms", serial_ms, 1.0, "ms", "study at threads=1");
  result.metric("op_tail_ms", quantile(serial_ms, supported_quantile(serial_ms.size())),
                "ms", serial_ms.size(), "highest supported percentile, threads=1");
  result.timing("alt_p50_ms", sharded_ms, 1.0, "ms", "study at threads=4");
  result.metric("throughput_per_s", rows * 1000.0 / median(serial_ms), "1/s",
                serial_ms.size(), "log rows per second at threads=1");
  result.alias("study_s", median(serial_ms) / 1000.0, "s");
  result.alias("study_sharded_s", median(sharded_ms) / 1000.0, "s");
}

}  // namespace certbench
