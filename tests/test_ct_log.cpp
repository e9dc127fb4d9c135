// CT log behaviour: submission, SCTs, domain queries, the interception
// cross-reference query, CT policy, and proof plumbing.
#include "ct/ct_log.hpp"

#include <gtest/gtest.h>

#include "../tests/helpers.hpp"

namespace certchain::ct {
namespace {

using certchain::testing::TestPki;
using certchain::testing::test_validity;

TEST(CtLog, SubmitReturnsSctAndIsIdempotent) {
  TestPki pki;
  CtLog log("test-log");
  const x509::Certificate leaf = pki.leaf("a.example");
  const auto sct1 = log.submit(leaf, 1000);
  EXPECT_EQ(sct1.log_id, log.log_id());
  EXPECT_EQ(sct1.timestamp, 1000);
  EXPECT_EQ(log.size(), 1u);

  // Resubmission returns the original SCT, no duplicate entry.
  const auto sct2 = log.submit(leaf, 2000);
  EXPECT_EQ(sct2.timestamp, 1000);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.contains(leaf));
}

TEST(CtLog, DomainQueryExactAndWildcard) {
  TestPki pki;
  CtLog log("test-log");
  log.submit(pki.leaf("www.exact.example"), 1);

  x509::DistinguishedName wildcard_subject;
  wildcard_subject.add("CN", "*.wild.example");
  x509::Certificate wildcard =
      pki.intermediate_ca.issue_leaf(wildcard_subject, "*.wild.example",
                                     test_validity());
  log.submit(wildcard, 2);

  EXPECT_EQ(log.entries_for_domain("www.exact.example").size(), 1u);
  EXPECT_EQ(log.entries_for_domain("WWW.EXACT.EXAMPLE").size(), 1u);
  EXPECT_EQ(log.entries_for_domain("a.wild.example").size(), 1u);
  EXPECT_TRUE(log.entries_for_domain("a.b.wild.example").empty());
  EXPECT_TRUE(log.entries_for_domain("nothing.example").empty());
}

TEST(CtLog, IssuersForDomainRespectsValidityOverlap) {
  TestPki pki;
  CtLog log("test-log");
  log.submit(pki.leaf("time.example"), 1);
  const util::TimeRange inside{util::make_time(2021, 1, 1), util::make_time(2021, 2, 1)};
  const util::TimeRange outside{util::make_time(2030, 1, 1), util::make_time(2031, 1, 1)};
  EXPECT_EQ(log.issuers_for_domain("time.example", inside).size(), 1u);
  EXPECT_TRUE(log.issuers_for_domain("time.example", outside).empty());
}

TEST(CtLog, InterceptionQuerySemantics) {
  // The §3.2.1 detection primitive: CT has the genuine issuer; a forged
  // chain's issuer is absent.
  TestPki genuine;
  CtLog log("test-log");
  log.submit(genuine.leaf("victim.example"), 1);

  const auto issuers = log.issuers_for_domain("victim.example", test_validity());
  ASSERT_EQ(issuers.size(), 1u);
  EXPECT_TRUE(issuers[0].matches(genuine.intermediate_ca.name()));

  x509::DistinguishedName middlebox =
      x509::DistinguishedName::parse_or_die("CN=Proxy SSL CA,O=Proxy");
  bool found = false;
  for (const auto& issuer : issuers) {
    if (issuer.matches(middlebox)) found = true;
  }
  EXPECT_FALSE(found);  // mismatch -> interception candidate
}

TEST(CtLog, ContainsMatchingWorksWithoutKeyMaterial) {
  TestPki pki;
  CtLog log("test-log");
  const x509::Certificate leaf = pki.leaf("keyless.example");
  log.submit(leaf, 1);

  // Strip key material (the Zeek X509.log view) — field matching still hits.
  x509::Certificate stripped = leaf;
  stripped.public_key.material.clear();
  stripped.signature.value.clear();
  EXPECT_FALSE(log.contains(stripped));  // fingerprint changed...
  EXPECT_TRUE(log.contains_matching(stripped));  // ...fields still match

  // A different serial must not match.
  stripped.serial = "deadbeef";
  EXPECT_FALSE(log.contains_matching(stripped));
}

TEST(CtLog, InclusionProofVerifies) {
  TestPki pki;
  CtLog log("test-log");
  x509::Certificate target = pki.leaf("proof.example");
  log.submit(target, 1);
  for (int i = 0; i < 20; ++i) {
    log.submit(pki.leaf("filler" + std::to_string(i) + ".example"), 2);
  }
  const auto proof = log.prove_inclusion(target);
  EXPECT_TRUE(log.check_inclusion(target, proof));

  const x509::Certificate absent = pki.leaf("absent.example");
  EXPECT_TRUE(log.prove_inclusion(absent).empty());
  EXPECT_FALSE(log.check_inclusion(absent, proof));
}

TEST(CtLog, ConsistencyProofAcrossGrowth) {
  TestPki pki;
  CtLog log("test-log");
  for (int i = 0; i < 5; ++i) log.submit(pki.leaf("c" + std::to_string(i) + ".ex"), 1);
  const Digest256 old_root = log.root_hash();
  const std::size_t old_size = log.size();
  for (int i = 5; i < 12; ++i) log.submit(pki.leaf("c" + std::to_string(i) + ".ex"), 2);
  const auto proof = log.prove_consistency(old_size);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(verify_consistency(old_size, log.size(), old_root, log.root_hash(), *proof));
}

TEST(CtLog, ConsistencyProofOutOfRangeIsNullopt) {
  TestPki pki;
  CtLog log("test-log");
  for (int i = 0; i < 4; ++i) log.submit(pki.leaf("n" + std::to_string(i) + ".ex"), 1);
  // A monitor that saw a larger tree than we hold (the rollback case) asks
  // for a proof we cannot produce — typed refusal, not a throw.
  EXPECT_FALSE(log.prove_consistency(log.size() + 1).has_value());
  EXPECT_FALSE(log.prove_consistency(3, log.size() + 5).has_value());
  EXPECT_FALSE(log.prove_consistency(4, 2).has_value());
  EXPECT_TRUE(log.prove_consistency(2, 4).has_value());
}

TEST(CtLog, EntryIndexForFingerprint) {
  TestPki pki;
  CtLog log("test-log");
  const x509::Certificate leaf = pki.leaf("indexed.example");
  log.submit(pki.leaf("first.example"), 1);
  log.submit(leaf, 2);
  const auto index = log.entry_index_for(leaf.fingerprint());
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(*index, 1u);
  EXPECT_FALSE(log.entry_index_for("not-a-fingerprint").has_value());
}

TEST(CtLog, DomainIndexMatchesBruteForceScan) {
  // Differential: the sharded domain index answers exactly what a linear
  // scan over every entry's domain list answers, for exact names, wildcard
  // patterns, multi-label queries, and case-folded probes.
  TestPki pki;
  CtLog log("test-log");
  const std::vector<std::string> hosts = {
      "a.example",        "b.a.example",     "www.shop.example",
      "*.shop.example",   "shop.example",    "deep.b.a.example",
      "*.deep.example",   "x.deep.example",  "odd-host.example"};
  for (const std::string& host : hosts) {
    x509::DistinguishedName subject;
    subject.add("CN", host);
    log.submit(pki.intermediate_ca.issue_leaf(subject, host, test_validity()), 1);
  }

  const std::vector<std::string> queries = {
      "a.example",      "b.a.example",    "c.a.example",
      "www.shop.example", "zzz.shop.example", "shop.example",
      "deep.b.a.example", "x.deep.example",   "y.deep.example",
      "a.b.shop.example", "A.EXAMPLE",        "*.shop.example",
      "unrelated.test"};
  for (const std::string& query : queries) {
    std::vector<const LogEntry*> expected;
    for (const LogEntry& entry : log.entries()) {
      for (const std::string& domain : entry.domains) {
        if (x509::wildcard_matches(domain, query)) {
          expected.push_back(&entry);
          break;
        }
      }
    }
    EXPECT_EQ(log.entries_for_domain(query), expected) << "query=" << query;
  }
}

TEST(CtLogSet, SubmitAndEmbedAttachesDistinctScts) {
  TestPki pki;
  CtLogSet logs(3);
  const x509::Certificate cert =
      logs.submit_and_embed(pki.leaf("embed.example"), 42, 2);
  ASSERT_EQ(cert.scts.size(), 2u);
  EXPECT_NE(cert.scts[0].log_id, cert.scts[1].log_id);
  EXPECT_TRUE(logs.logged_anywhere(cert));
}

TEST(CtLogSet, SubmitAndEmbedDefaultsToPolicyCount) {
  // With no explicit count the embed follows the Chrome-style policy for the
  // certificate's lifetime: 2 SCTs at <= 180 days, 3 beyond.
  TestPki pki;
  CtLogSet logs(3);

  x509::Certificate short_lived = pki.leaf("short.example");
  short_lived.validity = {util::make_time(2021, 1, 1), util::make_time(2021, 4, 1)};
  const x509::Certificate short_embedded = logs.submit_and_embed(short_lived, 42);
  EXPECT_EQ(short_embedded.scts.size(), 2u);
  EXPECT_TRUE(logs.complies(short_embedded));

  x509::Certificate long_lived = pki.leaf("long.example");
  long_lived.validity = {util::make_time(2021, 1, 1), util::make_time(2022, 6, 1)};
  const x509::Certificate long_embedded = logs.submit_and_embed(long_lived, 42);
  EXPECT_EQ(long_embedded.scts.size(), 3u);
  EXPECT_TRUE(logs.complies(long_embedded));

  // The explicit override still models under-logged issuance.
  const x509::Certificate underlogged =
      logs.submit_and_embed(pki.leaf("under.example"), 42, 1);
  EXPECT_EQ(underlogged.scts.size(), 1u);
}

TEST(CtLogSet, PolicyThresholdsByLifetime) {
  EXPECT_EQ(CtLogSet::required_sct_count(90 * util::kSecondsPerDay), 2u);
  EXPECT_EQ(CtLogSet::required_sct_count(180 * util::kSecondsPerDay), 2u);
  EXPECT_EQ(CtLogSet::required_sct_count(181 * util::kSecondsPerDay), 3u);
}

TEST(CtLogSet, ComplianceRequiresRealLogEntries) {
  TestPki pki;
  CtLogSet logs(3);
  x509::Certificate leaf = pki.leaf("comply.example");
  leaf.validity = {util::make_time(2021, 1, 1), util::make_time(2021, 4, 1)};  // 90d

  EXPECT_FALSE(logs.complies(leaf));  // no SCTs

  const x509::Certificate embedded = logs.submit_and_embed(leaf, 7, 2);
  EXPECT_TRUE(logs.complies(embedded));

  // Forged SCTs naming unknown logs don't count.
  x509::Certificate forged = leaf;
  forged.scts = {{"bogus-log-1", 1}, {"bogus-log-2", 2}};
  EXPECT_FALSE(logs.complies(forged));

  // One SCT is below the policy threshold.
  const x509::Certificate single = logs.submit_and_embed(leaf, 7, 1);
  EXPECT_FALSE(logs.complies(single));
}

TEST(CtLogSet, SealedCertificateAnswersLikeUnsealed) {
  // A sealed certificate memoizes its as-delivered (SCT-bearing)
  // fingerprint; the policy and log lookups must still use the SCT-free
  // precertificate's.
  TestPki pki;
  CtLogSet logs(3);
  const x509::Certificate original = pki.leaf("sealed.example");
  x509::Certificate embedded = logs.submit_and_embed(original, 7);
  ASSERT_TRUE(logs.complies(embedded));
  ASSERT_TRUE(logs.logged_anywhere(embedded));

  embedded.seal_fingerprint();
  EXPECT_TRUE(logs.complies(embedded));
  EXPECT_TRUE(logs.logged_anywhere(embedded));

  x509::Certificate bare = original;
  bare.seal_fingerprint();
  EXPECT_FALSE(logs.complies(bare));  // no SCTs
  EXPECT_TRUE(logs.logged_anywhere(bare));
}

TEST(CtLogSet, UnionQueriesDeduplicate) {
  TestPki pki;
  CtLogSet logs(2);
  const x509::Certificate leaf = pki.leaf("union.example");
  logs.log(0).submit(leaf, 1);
  logs.log(1).submit(leaf, 2);
  EXPECT_EQ(logs.issuers_for_domain("union.example", test_validity()).size(), 1u);
  EXPECT_TRUE(logs.logged_matching(leaf));
}

TEST(CtLogSet, FindLogById) {
  CtLogSet logs(2);
  EXPECT_EQ(logs.find_log(logs.log(1).log_id()), &logs.log(1));
  EXPECT_EQ(logs.find_log("nope"), nullptr);
}

}  // namespace
}  // namespace certchain::ct
