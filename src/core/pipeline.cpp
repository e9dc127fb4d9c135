// The StudyPipeline analysis path (DESIGN.md §10).
//
// There is one execution path. Every stage splits its input into one chunk
// per pool worker — one chunk, run inline, when the pool is null — runs the
// chunk bodies, and reduces the per-chunk partials by one rule
// (par::merge_chunks): the result starts as chunk 0's partial, moved in, and
// chunks 1..N-1 merge into it in chunk order. Because each merge is either
// order-independent (sums, set unions, min/max) or a concatenation of
// consecutive input ranges in range order, the merged state is exactly what
// a single chunk over the whole input produces — which is why the reports
// come out byte-identical at every thread count, and why one worker costs no
// merge at all. The parallel-diff suite (tests/test_parallel_diff.cpp)
// enforces that contract for every release.
#include "core/pipeline.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "core/pipeline_detail.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "par/thread_pool.hpp"
#include "truststore/issuer_classifier.hpp"
#include "zeek/joiner.hpp"

namespace certchain::core {

using chain::ChainCategory;
using detail::attach_shard_span;
using detail::publish_stage;
using detail::stage_timer;

std::string_view ingest_mode_name(IngestMode mode) {
  switch (mode) {
    case IngestMode::kStrict: return "strict";
    case IngestMode::kLenient: return "lenient";
  }
  return "unknown";
}

StudyReport StudyPipeline::run(const StudyInput& input, const RunOptions& options,
                               obs::RunContext* obs) const {
  const std::unique_ptr<par::ThreadPool> pool = par::make_pool(options.threads);
  if (obs != nullptr) {
    obs->set_config("input.kind", input.describe());
    if (pool != nullptr) {
      obs->set_config("par.threads", static_cast<std::uint64_t>(pool->size()));
    }
  }
  switch (input.kind()) {
    case StudyInput::Kind::kRecords:
      return run_records(pool.get(), input.ssl_records(), input.x509_records(),
                         obs);
    case StudyInput::Kind::kText:
      return run_text(pool.get(), input.ssl_text(), input.x509_text(),
                      options.ingest, obs);
    case StudyInput::Kind::kSources:
    case StudyInput::Kind::kFiles: {
      const std::shared_ptr<LogSource> ssl = input.open_ssl_source();
      if (ssl == nullptr) {
        throw IngestError("cannot open SSL log source: " + input.ssl_path());
      }
      const std::shared_ptr<LogSource> x509 = input.open_x509_source();
      if (x509 == nullptr) {
        throw IngestError("cannot open X509 log source: " + input.x509_path());
      }
      return run_streaming(pool.get(), *ssl, *x509, options, obs);
    }
  }
  throw IngestError("unknown StudyInput kind");
}

StudyReport StudyPipeline::run_records(par::ThreadPool* pool,
                                       const std::vector<zeek::SslLogRecord>& ssl,
                                       const std::vector<zeek::X509LogRecord>& x509,
                                       obs::RunContext* obs) const {
  auto pipeline_timer = stage_timer(obs, "pipeline");
  const std::size_t chunks = par::chunk_count(pool);

  // Stage 0: the joiner index is built once, on the coordinator, and shared
  // read-only. The joiner is the run's one intern point (DESIGN.md §16.3):
  // the run pool is complete before any chunk reads it. Each distinct DN
  // spelling parses once, and every joined certificate is fingerprint-sealed
  // and id-stamped before the fold sees it. SSL rows fold into per-chunk
  // corpora merged in chunk order (order-independent reductions +
  // cross-chunk certificate dedupe inside merge_from).
  DnPool dn_pool;
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&dn_pool);
  for (const zeek::X509LogRecord& record : x509) joiner.add(record);
  CorpusIndex corpus;
  {
    auto timer = stage_timer(obs, "join");
    std::vector<CorpusIndex> partials(chunks);
    std::vector<double> wall(chunks, 0.0);
    par::parallel_for_chunks(
        pool, ssl.size(), chunks,
        [&partials, &wall, &joiner, &ssl](std::size_t chunk, std::size_t begin,
                                          std::size_t end) {
          obs::Stopwatch watch;
          for (std::size_t i = begin; i < end; ++i) {
            partials[chunk].add(joiner, ssl[i]);
          }
          wall[chunk] = watch.elapsed_ms();
        });
    for (std::size_t i = 0; i < chunks; ++i) {
      attach_shard_span(obs, "join", i, wall[i]);
    }
    corpus = par::merge_chunks(partials);
  }
  return analyze_corpus(pool, corpus, obs, &dn_pool);
}

StudyReport StudyPipeline::analyze(const CorpusIndex& corpus,
                                   obs::RunContext* obs,
                                   const DnPool* dn_pool) const {
  auto pipeline_timer = stage_timer(obs, "pipeline");
  return analyze_corpus(nullptr, corpus, obs, dn_pool);
}

StudyReport StudyPipeline::analyze_corpus(par::ThreadPool* pool,
                                          const CorpusIndex& corpus,
                                          obs::RunContext* obs,
                                          const DnPool* dn_pool) const {
  StudyReport report;
  const std::size_t chunks = par::chunk_count(pool);
  report.totals = corpus.totals();
  report.unique_chains = corpus.unique_chain_count();
  publish_stage(obs, "join", report.totals.connections,
                report.totals.with_certificates,
                report.totals.connections - report.totals.with_certificates);
  detail::publish_join_counters(obs, report);

  // Stage 1: certificate enrichment — interception identification, chunked
  // over the unique chains (the issuer classification itself happens lazily
  // via the trust-store set). Every stage memoizes its chain-intrinsic
  // verdicts in the observations under memo_owner_ (DESIGN.md §16.7).
  chain::InterceptionIssuerSet interception_issuers;
  {
    auto timer = stage_timer(obs, "enrich");
    const InterceptionDetector detector(*stores_, *ct_logs_, *vendors_,
                                        memo_owner_);
    report.interception = detector.detect(corpus, pool);
    interception_issuers = report.interception.issuer_set();
  }
  publish_stage(obs, "enrich", report.unique_chains, report.unique_chains, 0);
  detail::publish_enrich_counters(obs, report);

  // The corpus map in iteration order, so stages 2 and 5 can split it into
  // consecutive chunk ranges.
  std::vector<const ChainObservation*> observations;
  observations.reserve(corpus.chains().size());
  for (const auto& [chain_id, observation] : corpus.chains()) {
    observations.push_back(&observation);
  }

  // Stage 2: chain categorization + usage statistics + Figure 1 data, as
  // per-chunk folds merged in range order — reproducing the whole-range fold
  // exactly, including slice vector order (what the structure stage
  // iterates). A chain's issuer-class mix is memoized (§16.7); only the
  // interception-set test runs against this generation's set.
  detail::CategorySlices slices;
  {
    auto timer = stage_timer(obs, "categorize");
    std::vector<detail::CategorizeFold> folds(chunks);
    std::vector<double> wall(chunks, 0.0);
    par::parallel_for_chunks(
        pool, observations.size(), chunks,
        [&folds, &wall, &observations, &interception_issuers, dn_pool, this](
            std::size_t chunk, std::size_t begin, std::size_t end) {
          obs::Stopwatch watch;
          // One classifier per chunk: its memo mutates on lookup, so
          // instances are not shared across workers; the pool is shared
          // read-only.
          truststore::IssuerClassifier classifier(*stores_, dn_pool);
          for (std::size_t i = begin; i < end; ++i) {
            const ChainObservation& observation = *observations[i];
            std::optional<ChainCategory>& class_mix =
                observation.verdicts(memo_owner_).class_mix;
            if (!class_mix) {
              class_mix =
                  chain::issuer_class_category(observation.chain, classifier);
            }
            folds[chunk].add(observation,
                             chain::has_interception_issuer(
                                 observation.chain, interception_issuers)
                                 ? ChainCategory::kTlsInterception
                                 : *class_mix);
          }
          wall[chunk] = watch.elapsed_ms();
        });
    for (std::size_t i = 0; i < chunks; ++i) {
      attach_shard_span(obs, "categorize", i, wall[i]);
    }
    detail::CategorizeFold fold = par::merge_chunks(folds);
    slices = std::move(fold.slices);
    fold.finish(report);
  }
  publish_stage(obs, "categorize", report.unique_chains, report.unique_chains, 0);
  publish_stage(obs, "figure1", report.unique_chains,
                report.unique_chains - report.excluded_outliers.size(),
                report.excluded_outliers.size());
  detail::publish_categorize_counters(obs, report);

  // The three analyzed slices, materialized before any chunk runs: map
  // operator[] inserts, and the map must not mutate under the workers.
  const std::vector<const ChainObservation*>* const category_slices[] = {
      &slices[ChainCategory::kHybrid], &slices[ChainCategory::kNonPublicDbOnly],
      &slices[ChainCategory::kTlsInterception]};

  // Stage 3: the per-category structure analyzers are independent
  // computations over disjoint slices — one chunk each, so each chunk writes
  // only its own slice's verdict memos.
  {
    auto timer = stage_timer(obs, "structure");
    std::vector<double> wall(3, 0.0);
    par::parallel_for_chunks(
        pool, 3, 3,
        [this, &report, &category_slices, &wall, dn_pool](
            std::size_t chunk, std::size_t, std::size_t) {
          obs::Stopwatch watch;
          const std::vector<const ChainObservation*>& slice =
              *category_slices[chunk];
          if (chunk == 0) {
            // The analyzer builds its own per-call classifier, so the shared
            // pool is read-only here and safe alongside the other chunks.
            report.hybrid = HybridAnalyzer(*stores_, *ct_logs_, registry_,
                                           dn_pool, memo_owner_)
                                .analyze(slice);
          } else if (chunk == 1) {
            report.non_public = NonPublicAnalyzer(registry_, memo_owner_)
                                    .analyze("Non-public-DB-only", slice);
          } else {
            report.interception_chains = NonPublicAnalyzer(registry_, memo_owner_)
                                             .analyze("TLS interception", slice);
          }
          wall[chunk] = watch.elapsed_ms();
        });
    const char* const spans[] = {"structure.hybrid", "structure.non_public",
                                 "structure.interception"};
    for (std::size_t i = 0; i < 3; ++i) {
      attach_shard_span(obs, spans[i], i, wall[i]);
    }
  }
  const std::uint64_t structure_in = detail::structure_in_count(slices);
  publish_stage(obs, "structure", structure_in, structure_in, 0);
  detail::publish_structure_counters(obs, slices);

  // Stage 4: the three PKI relationship graphs, likewise independent.
  {
    auto timer = stage_timer(obs, "graphs");
    PkiGraph* const graphs[] = {&report.hybrid_graph, &report.non_public_graph,
                                &report.interception_graph};
    par::parallel_for_chunks(
        pool, 3, 3,
        [this, &graphs, &category_slices, dn_pool](std::size_t chunk,
                                                   std::size_t, std::size_t) {
          *graphs[chunk] = build_pki_graph(*category_slices[chunk], *stores_,
                                           dn_pool, memo_owner_);
        });
  }
  publish_stage(obs, "graphs", structure_in, structure_in, 0);
  detail::publish_graph_counters(obs, report);

  // Stage 5: per-issuer-category CT compliance over the unique chains,
  // chunked like categorization; per-chunk reports merge additively.
  {
    auto timer = stage_timer(obs, "ct_compliance");
    const CtComplianceAnalyzer ct_analyzer(*stores_, *ct_logs_, memo_owner_);
    std::vector<CtComplianceReport> partials(chunks);
    std::vector<double> wall(chunks, 0.0);
    par::parallel_for_chunks(
        pool, observations.size(), chunks,
        [&partials, &wall, &observations, &ct_analyzer](
            std::size_t chunk, std::size_t begin, std::size_t end) {
          obs::Stopwatch watch;
          for (std::size_t i = begin; i < end; ++i) {
            ct_analyzer.add(*observations[i], partials[chunk]);
          }
          wall[chunk] = watch.elapsed_ms();
        });
    for (std::size_t i = 0; i < chunks; ++i) {
      attach_shard_span(obs, "ct_compliance", i, wall[i]);
    }
    report.ct_compliance = par::merge_chunks(partials);
  }
  publish_stage(obs, "ct_compliance", report.unique_chains, report.unique_chains, 0);
  detail::publish_ct_compliance_counters(obs, report);

  return report;
}

}  // namespace certchain::core
