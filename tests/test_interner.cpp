// The string interner, dense-id sets, and the interned usage attributes of
// CorpusIndex: id-remapping merges and the snapshot bytes they must keep.
#include "core/interner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../tests/helpers.hpp"
#include "core/corpus.hpp"
#include "obs/json.hpp"

namespace certchain::core {
namespace {

using certchain::testing::self_signed;

TEST(Interner, DenseIdsInFirstInternOrder) {
  Interner empty_first;
  EXPECT_EQ(empty_first.intern(""), 0u);
  EXPECT_EQ(empty_first.text(0), "");

  Interner interner;
  EXPECT_EQ(interner.intern("10.0.0.2"), 0u);
  EXPECT_EQ(interner.intern("10.0.0.1"), 1u);
  EXPECT_EQ(interner.intern("10.0.0.2"), 0u);
  EXPECT_EQ(interner.intern(""), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.text(1), "10.0.0.1");
  EXPECT_EQ(interner.text(2), "");
  EXPECT_EQ(interner.find("10.0.0.1"), 1u);
  EXPECT_EQ(interner.find("10.0.0.3"), kInvalidInternId);
}

TEST(Interner, ViewsSurviveArenaGrowthMovesAndCopies) {
  Interner interner;
  std::vector<std::string> texts;
  // Well past one 64 KiB arena chunk, plus one string larger than a chunk.
  for (int i = 0; i < 20000; ++i) texts.push_back("host-" + std::to_string(i));
  texts.push_back(std::string(100000, 'x'));
  for (const std::string& text : texts) interner.intern(text);
  const std::string_view first = interner.text(0);

  Interner moved = std::move(interner);
  EXPECT_EQ(moved.text(0).data(), first.data());  // no byte moved
  const Interner copy = moved;
  ASSERT_EQ(copy.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(moved.text(static_cast<InternId>(i)), texts[i]);
    EXPECT_EQ(copy.find(texts[i]), static_cast<InternId>(i));
  }

  interner = copy;  // assignment over a moved-from interner
  EXPECT_EQ(interner.intern("host-7"), 7u);
  EXPECT_EQ(interner.intern("fresh"), texts.size());
}

TEST(Interner, InsertSortedIdKeepsSetSortedAndUnique) {
  std::vector<InternId> ids;
  for (const InternId id : {5u, 1u, 9u, 5u, 0u, 9u, 7u}) insert_sorted_id(ids, id);
  EXPECT_EQ(ids, (std::vector<InternId>{0, 1, 5, 7, 9}));
}

TEST(DistinctIds, CountsUnionAcrossAddsAndMerges) {
  DistinctIds a;
  a.add({0, 3, 64});
  a.add({3, 200});
  EXPECT_EQ(a.size(), 4u);
  DistinctIds b;
  b.add({1, 64, 1000});
  a.merge(b);
  EXPECT_EQ(a.size(), 6u);  // {0, 1, 3, 64, 200, 1000}
  DistinctIds empty;
  a.merge(empty);
  EXPECT_EQ(a.size(), 6u);
  empty.merge(a);
  EXPECT_EQ(empty.size(), 6u);
}

zeek::JoinedConnection connection(const chain::CertificateChain& chain,
                                  const std::string& client,
                                  const std::string& server, std::uint16_t port,
                                  const std::string& sni, util::SimTime ts) {
  zeek::JoinedConnection out;
  out.ssl.ts = ts;
  out.ssl.id_orig_h = client;
  out.ssl.id_resp_h = server;
  out.ssl.id_resp_p = port;
  out.ssl.version = "TLSv12";
  out.ssl.established = !sni.empty();
  out.ssl.server_name = sni;
  out.chain = chain;
  return out;
}

std::string snapshot_bytes(const CorpusIndex& corpus) {
  obs::json::Writer writer;
  corpus.write_snapshot(writer);
  return std::move(writer).str();
}

TEST(CorpusIndexMerge, PartialIndexesInAnyOrderMatchOnePass) {
  const auto chain_a = testing::make_chain({self_signed("merge-a")});
  const auto chain_b = testing::make_chain({self_signed("merge-b")});
  const std::vector<zeek::JoinedConnection> connections = {
      connection(chain_a, "10.0.0.1", "192.0.2.1", 443, "a.example", 10),
      connection(chain_a, "10.0.0.2", "192.0.2.1", 8443, "c.example", 20),
      connection(chain_b, "10.0.0.3", "192.0.2.2", 443, "b.example", 30),
      connection(chain_b, "10.0.0.1", "192.0.2.1", 443, "a.example", 40),
      connection(chain_a, "10.0.0.3", "192.0.2.2", 443, "b.example", 50),
      connection(chain_b, "10.0.0.2", "192.0.2.1", 8443, "c.example", 60),
      connection(chain_b, "10.0.0.3", "192.0.2.2", 443, "", 70),
  };
  CorpusIndex single;
  for (const auto& c : connections) single.add(c);

  // Both partials see every client, endpoint and SNI name, in different
  // orders, so their ids disagree.
  CorpusIndex front;
  CorpusIndex back;
  for (const std::size_t i : {0u, 1u, 2u, 6u}) front.add(connections[i]);
  for (const std::size_t i : {5u, 4u, 3u}) back.add(connections[i]);
  ASSERT_NE(front.clients().text(0), back.clients().text(0));

  CorpusIndex front_first = front;
  front_first.merge_from(CorpusIndex(back));
  CorpusIndex back_first = back;
  back_first.merge_from(CorpusIndex(front));

  const std::string expected = snapshot_bytes(single);
  EXPECT_EQ(snapshot_bytes(front_first), expected);
  EXPECT_EQ(snapshot_bytes(back_first), expected);
  for (const CorpusIndex* merged : {&front_first, &back_first}) {
    EXPECT_EQ(merged->clients().size(), 3u);
    EXPECT_EQ(merged->endpoints().size(), 3u);
    EXPECT_EQ(merged->sni_names().size(), 3u);
    ASSERT_EQ(merged->unique_chain_count(), 2u);
    DistinctIds clients;
    for (const auto& [id, observation] : merged->chains()) {
      const ChainObservation& reference = single.chains().at(id);
      EXPECT_EQ(observation.client_ips.size(), reference.client_ips.size());
      EXPECT_EQ(observation.server_keys.size(), reference.server_keys.size());
      EXPECT_EQ(observation.domains.size(), reference.domains.size());
      EXPECT_TRUE(std::is_sorted(observation.client_ips.begin(),
                                 observation.client_ips.end()));
      clients.add(observation.client_ips);
    }
    EXPECT_EQ(clients.size(), 3u);
  }
}

TEST(CorpusIndexMerge, SnapshotRoundTripReinternsIds) {
  const auto chain = testing::make_chain({self_signed("round-trip")});
  CorpusIndex corpus;
  corpus.add(connection(chain, "10.0.0.9", "192.0.2.7", 443, "z.example", 5));
  corpus.add(connection(chain, "10.0.0.10", "192.0.2.7", 443, "y.example", 6));
  const std::string bytes = snapshot_bytes(corpus);

  std::map<std::string, x509::Certificate> by_fingerprint;
  for (const x509::Certificate& cert : chain) {
    by_fingerprint.emplace(cert.fingerprint(), cert);
  }
  std::string parse_error;
  const std::optional<obs::json::Value> parsed =
      obs::json::parse(bytes, &parse_error);
  ASSERT_TRUE(parsed.has_value()) << parse_error;
  CorpusIndex restored;
  std::string error;
  ASSERT_TRUE(restored.restore_snapshot(*parsed, by_fingerprint, &error)) << error;
  EXPECT_EQ(snapshot_bytes(restored), bytes);
  EXPECT_EQ(restored.clients().size(), 2u);
}

// The corpus block of a stream checkpoint or svc snapshot, byte for byte.
// Usage values are written as strings in byte order ("10.0.0.10" before
// "10.0.0.9"), never in id order, so these bytes do not depend on ids.
TEST(CorpusSnapshot, ThreeConnectionBytes) {
  const auto chain_a = testing::make_chain({self_signed("snapshot-a")});
  const auto chain_b = testing::make_chain({self_signed("snapshot-b")});
  CorpusIndex corpus;
  corpus.add(connection(chain_a, "10.0.0.9", "192.0.2.1", 443, "www.example", 100));
  corpus.add(connection(chain_a, "10.0.0.10", "192.0.2.1", 8443, "", 200));
  corpus.add(connection(chain_b, "10.0.0.9", "198.51.100.4", 443, "api.example", 300));
  EXPECT_EQ(
      snapshot_bytes(corpus),
      R"({"totals":{"connections":3,"with_certificates":3,)"
      R"("tls13_connections":0,"incomplete_joins":0},)"
      R"("certificates":["1717e0d26ee04eaf07ab2e254b16e77c44a4477b271fb5855abc26493bfd7ed0",)"
      R"("1e206246e586916f68d84244a382a4deb9c1ae63e6f4a2660f55c5065bd3c862"],)"
      R"("chains":[{"id":"1f87a30795f661cc3330d661b5606d0a24b8a855b176ec3550b725cfe734deca",)"
      R"("fingerprints":["1717e0d26ee04eaf07ab2e254b16e77c44a4477b271fb5855abc26493bfd7ed0"],)"
      R"("connections":2,"established":1,"client_ips":["10.0.0.10","10.0.0.9"],)"
      R"("server_keys":["192.0.2.1:443","192.0.2.1:8443"],)"
      R"("ports":[[443,1],[8443,1]],"with_sni":1,"without_sni":1,)"
      R"("domains":["www.example"],"first_seen":100,)"
      R"("last_seen":200},{"id":"851defe3fc570c81fa380dd3cd6697530887cf1d071f3cdeff3fc403d5acb810",)"
      R"("fingerprints":["1e206246e586916f68d84244a382a4deb9c1ae63e6f4a2660f55c5065bd3c862"],)"
      R"("connections":1,"established":1,"client_ips":["10.0.0.9"],)"
      R"("server_keys":["198.51.100.4:443"],"ports":[[443,1]],"with_sni":1,)"
      R"("without_sni":0,"domains":["api.example"],"first_seen":300,)"
      R"("last_seen":300}]})");
}

}  // namespace
}  // namespace certchain::core
