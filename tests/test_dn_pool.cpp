// DnPool unit + differential coverage (DESIGN.md §16).
//
// Three layers of proof, from the pool outward:
//   1. Intern/lookup round-trips and canonicalize-once semantics: distinct
//      spellings that canonicalize equally share one id, while
//      name_for_raw() preserves each spelling's own parse (display
//      fidelity).
//   2. The one ids-or-strings decision (truststore::IssuerClassifier): over
//      a datagen population, a classifier over the joiner's pool, a poolless
//      classifier and the trust stores' string path give the same verdict
//      for every certificate, pooled or not, and categorize_chain gives a
//      pooled chain and its poolless copy the same category.
//   3. End to end: over a DN-dense datagen population, serial, sharded
//      parallel, and streaming pipeline runs must render byte-identical
//      reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "chain/categorizer.hpp"
#include "core/corpus.hpp"
#include "core/dn_id.hpp"
#include "core/dn_pool.hpp"
#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "datagen/scenario.hpp"
#include "truststore/issuer_classifier.hpp"
#include "x509/distinguished_name.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"
#include "zeek/records.hpp"

namespace certchain {
namespace {

using core::DnId;
using core::DnPool;
using core::kInvalidDnId;

TEST(DnPool, InternRoundTripsAndDeduplicates) {
  DnPool pool;
  const DnId a = pool.intern("CN=Example CA,O=Example Org,C=US");
  const DnId b = pool.intern("CN=Other CA,O=Example Org,C=US");
  EXPECT_NE(a, kInvalidDnId);
  EXPECT_NE(b, kInvalidDnId);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);

  // Repeating the exact spelling hits the raw memo: same id, no growth.
  EXPECT_EQ(pool.intern("CN=Example CA,O=Example Org,C=US"), a);
  EXPECT_EQ(pool.size(), 2u);

  // The interned parse agrees with a fresh parse of the same bytes.
  const x509::DistinguishedName parsed =
      x509::DistinguishedName::parse_or_die("CN=Example CA,O=Example Org,C=US");
  const DnPool::Interned interned =
      pool.intern_raw("CN=Example CA,O=Example Org,C=US");
  EXPECT_EQ(interned.id, a);
  EXPECT_EQ(*interned.name, parsed);
  EXPECT_EQ(interned.name->to_string(), parsed.to_string());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(DnPool, CanonicalizesOnceAtInternTime) {
  DnPool pool;
  const DnId base = pool.intern("CN=Example CA,O=Example Org");
  // Case changes and whitespace runs canonicalize away: one id for all
  // spellings, even though every spelling is a distinct raw-memo key.
  EXPECT_EQ(pool.intern("cn=example ca,o=example org"), base);
  EXPECT_EQ(pool.intern("CN=EXAMPLE   CA,O=Example Org"), base);
  EXPECT_EQ(pool.size(), 1u);

  // Display fidelity under canonical collision: every spelling keeps its
  // own parse, and all of them share the first spelling's canonical form.
  const x509::DistinguishedName& first =
      pool.name_for_raw("CN=Example CA,O=Example Org");
  EXPECT_EQ(first.to_string(), "CN=Example CA,O=Example Org");
  const x509::DistinguishedName& variant =
      pool.name_for_raw("cn=example ca,o=example org");
  EXPECT_EQ(variant.to_string(), "cn=example ca,o=example org");
  EXPECT_EQ(variant.canonical(), first.canonical());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(DnPool, CollisionHeavyCorpusSharesIds) {
  // Re-spell every issuer/subject a datagen scenario produces (case flips,
  // padded whitespace): the pool must keep one id per canonical form no
  // matter how many spellings arrive.
  datagen::ScenarioConfig config;
  config.seed = 4242;
  config.chain_scale = 1.0 / 500.0;
  config.total_connections = 500;
  config.client_count = 40;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs logs = scenario->generate_logs();
  ASSERT_FALSE(logs.x509.empty());

  const auto upper = [](std::string_view text) {
    std::string out(text);
    for (char& c : out) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
    return out;
  };

  DnPool pool;
  std::set<std::string> canonicals;
  std::size_t checked = 0;
  for (const zeek::X509LogRecord& record : logs.x509) {
    const DnId subject = pool.intern(record.subject);
    const DnId issuer = pool.intern(record.issuer);
    EXPECT_EQ(pool.intern(upper(record.subject)), subject);
    EXPECT_EQ(pool.intern(upper(record.issuer)), issuer);
    for (const std::string& raw : {record.subject, record.issuer}) {
      canonicals.insert(
          x509::DistinguishedName::parse_lenient(raw).canonical());
    }
    ++checked;
  }
  ASSERT_GT(checked, 0u);

  // Pool size equals the number of distinct canonical forms, not spellings.
  EXPECT_EQ(pool.size(), canonicals.size());
}

/// A small datagen population and its X509 rows joined through a pool.
struct PooledPopulation {
  std::unique_ptr<datagen::Scenario> scenario;
  netsim::GeneratedLogs logs;
  DnPool pool;
  zeek::LogJoiner joiner;

  PooledPopulation() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 2000.0;
    config.total_connections = 2000;
    config.client_count = 150;
    config.include_length_outliers = false;
    scenario = datagen::build_study_scenario(config);
    logs = scenario->generate_logs();
    joiner.set_dn_pool(&pool);
    for (const zeek::X509LogRecord& record : logs.x509) joiner.add(record);
  }
};

TEST(DnPool, IssuerClassifierAgreesWithAndWithoutPool) {
  const PooledPopulation population;
  const truststore::TrustStoreSet& stores = population.scenario->world.stores();
  ASSERT_GT(population.pool.size(), 0u);

  truststore::IssuerClassifier pooled(stores, &population.pool);
  truststore::IssuerClassifier poolless(stores, nullptr);
  std::size_t public_db = 0;
  std::size_t checked = 0;
  for (const auto& [fuid, cert] : population.joiner.certificates()) {
    ASSERT_NE(cert.issuer_id, kInvalidDnId) << fuid;
    const truststore::IssuerClass expected = stores.classify_certificate(cert);
    // Twice through the pooled classifier: the miss and the memo hit.
    EXPECT_EQ(pooled.classify(cert), expected) << fuid;
    EXPECT_EQ(pooled.classify(cert), expected) << fuid;
    EXPECT_EQ(poolless.classify(cert), expected) << fuid;

    // The same row built without a pool carries kInvalidDnId and must take
    // the string path through either classifier.
    const auto record = std::find_if(
        population.logs.x509.begin(), population.logs.x509.end(),
        [&fuid](const zeek::X509LogRecord& row) { return row.fuid == fuid; });
    ASSERT_NE(record, population.logs.x509.end());
    const x509::Certificate unpooled = zeek::certificate_from_record(*record);
    ASSERT_EQ(unpooled.issuer_id, kInvalidDnId);
    EXPECT_EQ(pooled.classify(unpooled), expected) << fuid;
    EXPECT_EQ(poolless.classify(unpooled), expected) << fuid;

    if (expected == truststore::IssuerClass::kPublicDb) ++public_db;
    ++checked;
  }
  // Both verdicts occur, so agreement is not vacuous.
  EXPECT_GT(public_db, 0u);
  EXPECT_LT(public_db, checked);
}

TEST(DnPool, CategorizeChainPooledMatchesPoollessUnderInterception) {
  const PooledPopulation population;
  const truststore::TrustStoreSet& stores = population.scenario->world.stores();
  const zeek::LogJoiner unpooled_joiner(population.logs.x509);

  core::CorpusIndex pooled_corpus;
  core::CorpusIndex unpooled_corpus;
  for (const zeek::SslLogRecord& record : population.logs.ssl) {
    pooled_corpus.add(population.joiner, record);
    unpooled_corpus.add(unpooled_joiner, record);
  }
  ASSERT_EQ(pooled_corpus.unique_chain_count(),
            unpooled_corpus.unique_chain_count());
  ASSERT_GT(pooled_corpus.unique_chain_count(), 0u);

  truststore::IssuerClassifier pooled(stores, &population.pool);
  truststore::IssuerClassifier poolless(stores, nullptr);
  const chain::InterceptionIssuerSet none;
  for (const auto& [chain_id, observation] : pooled_corpus.chains()) {
    const chain::CertificateChain& with_ids = observation.chain;
    const chain::CertificateChain& without_ids =
        unpooled_corpus.chains().at(chain_id).chain;
    ASSERT_NE(with_ids.first().issuer_id, kInvalidDnId);
    ASSERT_EQ(without_ids.first().issuer_id, kInvalidDnId);

    // The leaf issuer in the interception set: interception wins for both.
    const chain::InterceptionIssuerSet leaf_issuer = {
        with_ids.first().issuer.canonical()};
    EXPECT_EQ(chain::categorize_chain(with_ids, pooled, leaf_issuer),
              chain::ChainCategory::kTlsInterception)
        << chain_id;
    EXPECT_EQ(chain::categorize_chain(without_ids, poolless, leaf_issuer),
              chain::ChainCategory::kTlsInterception)
        << chain_id;

    // No interception: the class mix agrees across pooled and poolless
    // chains and the stores overload.
    const chain::ChainCategory expected =
        chain::categorize_chain(without_ids, stores, none);
    EXPECT_EQ(chain::categorize_chain(with_ids, pooled, none), expected)
        << chain_id;
    EXPECT_EQ(chain::categorize_chain(without_ids, poolless, none), expected)
        << chain_id;
  }
}

TEST(DnPoolDifferential, SerialParallelStreamingReportsByteIdentical) {
  // DN-dense population: many distinct chains relative to connection count,
  // so the pool carries thousands of entries through every engine.
  datagen::ScenarioConfig config;
  config.seed = 99173;
  config.chain_scale = 1.0 / 40.0;
  config.total_connections = 3000;
  config.client_count = 200;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs logs = scenario->generate_logs();

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs.ssl) ssl_writer.add(record);
  const std::string ssl_text = ssl_writer.finish();
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs.x509) x509_writer.add(record);
  const std::string x509_text = x509_writer.finish();

  const core::StudyPipeline pipeline(
      scenario->world.stores(), scenario->world.ct_logs(), scenario->vendors,
      &scenario->world.cross_signs());
  core::ReportTextOptions text_options;
  text_options.graphs = true;

  core::RunOptions serial_options;
  serial_options.threads = 1;
  const std::string serial_text = render_report_text(
      pipeline.run(core::StudyInput::text(ssl_text, x509_text), serial_options),
      text_options);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    core::RunOptions options;
    options.threads = threads;
    EXPECT_EQ(render_report_text(
                  pipeline.run(core::StudyInput::text(ssl_text, x509_text),
                               options),
                  text_options),
              serial_text)
        << threads << " threads";
  }

  core::RunOptions stream_options;
  stream_options.threads = 1;
  stream_options.chunk_bytes = 16 * 1024;
  EXPECT_EQ(render_report_text(
                pipeline.run(core::StudyInput::sources(
                                 core::make_text_source(ssl_text),
                                 core::make_text_source(x509_text)),
                             stream_options),
                text_options),
            serial_text);
}

}  // namespace
}  // namespace certchain
