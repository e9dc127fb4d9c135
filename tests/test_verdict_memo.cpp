// The chain verdict memo (DESIGN.md §16.7): a corpus that is analyzed,
// grown and analyzed again must report exactly what a freshly folded corpus
// of the same rows reports.
//
//   1. Per-generation replay: load, then appends of 1 row, 64 rows, a new
//      chain, and a new SNI that turns an existing chain into an
//      interception candidate. At every generation a persistent corpus (the
//      served write path's shape) and the live ServiceState must equal
//      analyze() over a fresh corpus: rendered report with graphs, graph
//      edges, and every stage counter.
//   2. Two pipelines with different trust stores / CT logs take turns on one
//      corpus; each reproduces its own fresh-corpus report.
//   3. Analyze, merge_from, analyze again == a fresh corpus.
//   4. The memo never reaches snapshot bytes, and a pooled run (memos filled
//      inside pool chunks) matches an inline one.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "core/interception.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "datagen/scenario.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "svc/service_state.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

using core::CorpusIndex;
using core::StudyPipeline;
using core::StudyReport;

core::ReportTextOptions with_graphs() {
  core::ReportTextOptions options;
  options.graphs = true;
  return options;
}

/// What one analysis produced, in comparable form.
struct Analysis {
  std::string text;
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::vector<core::PkiGraph::Edge>> edges;
};

Analysis analyze(const StudyPipeline& pipeline, const CorpusIndex& corpus,
                 const core::DnPool* pool) {
  obs::RunContext context;
  const StudyReport report = pipeline.analyze(corpus, &context, pool);
  Analysis out;
  out.text = core::render_report_text(report, with_graphs());
  out.counters = context.metrics.counters();
  for (const core::PkiGraph* graph :
       {&report.hybrid_graph, &report.non_public_graph,
        &report.interception_graph}) {
    out.edges.push_back(graph->co_occurrence_edges());
    out.edges.push_back(graph->issuance_links());
  }
  return out;
}

void expect_same(const Analysis& actual, const Analysis& expected,
                 const std::string& where) {
  EXPECT_EQ(actual.text, expected.text) << where;
  EXPECT_EQ(actual.counters, expected.counters) << where;
  EXPECT_EQ(actual.edges, expected.edges) << where;
}

/// A pooled joiner over every X509 row and a corpus over `ssl`, folded the
/// way the served write path folds.
struct FreshCorpus {
  core::DnPool pool;
  zeek::LogJoiner joiner;
  CorpusIndex corpus;

  FreshCorpus(const std::vector<zeek::X509LogRecord>& x509,
              const std::vector<zeek::SslLogRecord>& ssl) {
    joiner.set_dn_pool(&pool);
    for (const zeek::X509LogRecord& record : x509) joiner.add(record);
    for (const zeek::SslLogRecord& record : ssl) corpus.add(joiner, record);
  }
};

class ChainVerdictMemo : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 2000.0;
    config.total_connections = 2500;
    config.client_count = 150;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());
  }
  static void TearDownTestSuite() {
    delete logs_;
    delete scenario_;
  }

  static StudyPipeline pipeline() {
    return StudyPipeline(scenario_->world.stores(), scenario_->world.ct_logs(),
                         scenario_->vendors, &scenario_->world.cross_signs());
  }

  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
};

datagen::Scenario* ChainVerdictMemo::scenario_ = nullptr;
netsim::GeneratedLogs* ChainVerdictMemo::logs_ = nullptr;

TEST_F(ChainVerdictMemo, PerGenerationReplayMatchesFreshCorpus) {
  const std::vector<zeek::SslLogRecord>& all = logs_->ssl;
  const std::vector<zeek::X509LogRecord>& x509 = logs_->x509;
  const zeek::LogJoiner lookup(x509);
  std::vector<std::string> chain_of(all.size());
  std::map<std::string, std::vector<std::size_t>> rows_of;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const zeek::JoinedConnection joined = lookup.join(all[i]);
    if (joined.chain.empty()) continue;
    chain_of[i] = joined.chain.id();
    rows_of[chain_of[i]].push_back(i);
  }

  // The flip row: an SNI that makes a chain with other rows an interception
  // candidate. The load carries that chain's rows with an SNI that CT knows
  // nothing about, so the chain exists, has a domain, and is not a candidate
  // until the flip row grows its domain set.
  const core::InterceptionDetector detector(scenario_->world.stores(),
                                            scenario_->world.ct_logs(),
                                            scenario_->vendors);
  std::optional<std::size_t> flip;
  for (const auto& [chain_id, rows] : rows_of) {
    if (rows.size() < 2) continue;
    for (const std::size_t row : rows) {
      if (detector.is_interception_candidate(lookup.join(all[row]).chain,
                                             all[row].server_name)) {
        flip = row;
        break;
      }
    }
    if (flip) break;
  }
  ASSERT_TRUE(flip.has_value()) << "the scenario has no interception candidate";
  const std::string flip_chain = chain_of[*flip];

  // The new-chain row: the only row of its chain.
  std::optional<std::size_t> fresh_chain_row;
  for (const auto& [chain_id, rows] : rows_of) {
    if (rows.size() == 1 && chain_id != flip_chain) {
      fresh_chain_row = rows.front();
      break;
    }
  }
  ASSERT_TRUE(fresh_chain_row.has_value());

  // Generations: load, then 1 row, 64 rows, the new chain, the flip. The
  // flip chain's other rows all load, with the unknown SNI.
  std::vector<std::vector<zeek::SslLogRecord>> batches(5);
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i == *flip || i == *fresh_chain_row) continue;
    if (chain_of[i] == flip_chain) {
      zeek::SslLogRecord record = all[i];
      record.server_name = "unlogged.memo.example";
      batches[0].push_back(std::move(record));
    } else {
      rest.push_back(i);
    }
  }
  ASSERT_GT(rest.size(), 200u);
  for (std::size_t k = 0; k < rest.size(); ++k) {
    const std::size_t from_end = rest.size() - k;
    batches[from_end == 1 ? 1 : from_end <= 65 ? 2 : 0].push_back(all[rest[k]]);
  }
  batches[3].push_back(all[*fresh_chain_row]);
  batches[4].push_back(all[*flip]);
  ASSERT_EQ(batches[1].size(), 1u);
  ASSERT_EQ(batches[2].size(), 64u);

  const StudyPipeline study = pipeline();
  FreshCorpus live(x509, {});
  svc::ServiceState state(scenario_->world.stores(), scenario_->world.ct_logs(),
                          scenario_->vendors, &scenario_->world.cross_signs());
  std::vector<zeek::SslLogRecord> folded;
  for (std::size_t generation = 0; generation < batches.size(); ++generation) {
    const std::vector<zeek::SslLogRecord>& batch = batches[generation];
    for (const zeek::SslLogRecord& record : batch) {
      live.corpus.add(live.joiner, record);
    }
    if (generation == 0) {
      state.load(batch, x509);
    } else {
      std::vector<std::string> rows;
      for (const zeek::SslLogRecord& record : batch) {
        rows.push_back(zeek::render_ssl_row(record));
      }
      state.ingest_append(rows, {});
    }
    folded.insert(folded.end(), batch.begin(), batch.end());

    const core::ChainObservation& flipping = live.corpus.chains().at(flip_chain);
    if (generation == 4) {
      EXPECT_FALSE(flipping.verdict_memo.candidate)
          << "candidacy is still the memo of the earlier generations";
      EXPECT_EQ(flipping.verdict_memo.candidacy_domains, 1u);
    }

    const std::string where = "generation " + std::to_string(generation);
    const FreshCorpus reference(x509, folded);
    const Analysis expected = analyze(study, reference.corpus, &reference.pool);
    expect_same(analyze(study, live.corpus, &live.pool), expected, where);
    EXPECT_EQ(state.report_section(with_graphs()), expected.text) << where;

    EXPECT_EQ(flipping.verdict_memo.candidate, generation == 4) << where;
  }
}

TEST_F(ChainVerdictMemo, TwoPipelinesOneCorpusEachReproduceTheirOwnReport) {
  const truststore::TrustStoreSet no_stores;
  const ct::CtLogSet no_logs(2);
  const StudyPipeline world = pipeline();
  const StudyPipeline other_stores(no_stores, scenario_->world.ct_logs(),
                                   scenario_->vendors,
                                   &scenario_->world.cross_signs());
  const StudyPipeline other_logs(scenario_->world.stores(), no_logs,
                                 scenario_->vendors,
                                 &scenario_->world.cross_signs());
  const StudyPipeline* const pipelines[] = {&world, &other_stores, &other_logs};

  std::vector<Analysis> expected;
  for (const StudyPipeline* study : pipelines) {
    const FreshCorpus reference(logs_->x509, logs_->ssl);
    expected.push_back(analyze(*study, reference.corpus, &reference.pool));
  }
  // The configurations disagree, so reproducing each one is not vacuous.
  EXPECT_NE(expected[0].text, expected[1].text);
  EXPECT_NE(expected[0].text, expected[2].text);

  const FreshCorpus shared(logs_->x509, logs_->ssl);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      expect_same(analyze(*pipelines[i], shared.corpus, &shared.pool),
                  expected[i],
                  "round " + std::to_string(round) + " pipeline " +
                      std::to_string(i));
    }
  }
}

TEST_F(ChainVerdictMemo, MergeAfterAnalysisMatchesFreshCorpus) {
  const StudyPipeline study = pipeline();
  const std::size_t half = logs_->ssl.size() / 2;
  const std::vector<zeek::SslLogRecord> first(logs_->ssl.begin(),
                                              logs_->ssl.begin() + half);
  const std::vector<zeek::SslLogRecord> second(logs_->ssl.begin() + half,
                                               logs_->ssl.end());

  // Both halves share one joiner and pool, like the shards of a run.
  FreshCorpus merged(logs_->x509, first);
  CorpusIndex other;
  for (const zeek::SslLogRecord& record : second) {
    other.add(merged.joiner, record);
  }
  analyze(study, merged.corpus, &merged.pool);
  analyze(study, other, &merged.pool);
  merged.corpus.merge_from(std::move(other));

  const FreshCorpus reference(logs_->x509, logs_->ssl);
  expect_same(analyze(study, merged.corpus, &merged.pool),
              analyze(study, reference.corpus, &reference.pool), "merged");
}

TEST_F(ChainVerdictMemo, MemoStaysOutOfSnapshotsAndPooledRunsMatch) {
  const StudyPipeline study = pipeline();
  const FreshCorpus corpus(logs_->x509, logs_->ssl);
  const auto snapshot = [&corpus] {
    obs::json::Writer writer;
    corpus.corpus.write_snapshot(writer);
    return writer.str();
  };
  const std::string before = snapshot();
  analyze(study, corpus.corpus, &corpus.pool);
  EXPECT_EQ(snapshot(), before);

  // A copy carries the filled memos and reports the same.
  const CorpusIndex copy = corpus.corpus;
  EXPECT_EQ(analyze(study, copy, &corpus.pool).text,
            analyze(study, corpus.corpus, &corpus.pool).text);

  // Pooled stages fill the memos from their chunks.
  core::RunOptions inline_options;
  inline_options.threads = 1;
  core::RunOptions pooled_options;
  pooled_options.threads = 4;
  const auto input = core::StudyInput::records(logs_->ssl, logs_->x509);
  EXPECT_EQ(core::render_report_text(study.run(input, pooled_options),
                                     with_graphs()),
            core::render_report_text(study.run(input, inline_options),
                                     with_graphs()));
}

}  // namespace
}  // namespace certchain
