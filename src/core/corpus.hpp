// Corpus indexing: from joined connections to deduplicated chains with usage
// statistics.
//
// The study counts three things per certificate chain: how many TLS
// connections delivered it, how many completed the handshake, and how many
// distinct client IPs were involved (§3.2.2, Table 2). CorpusIndex folds a
// stream of joined SSL/X509 records into one ChainObservation per unique
// chain (identity = ordered certificate fingerprints) plus corpus-wide
// counters, preserving exactly the fields the downstream analyzers read.
//
// Usage attributes that repeat across connections — client IPs, server
// "ip:port" endpoints and SNI names — are interned once per index into
// dense ids (DESIGN.md §16.6); a chain keeps sorted id vectors, so folding a
// connection whose values were seen before allocates nothing, and every
// distinct count downstream is a bitmap union (DistinctIds).
//
// Each observation also carries the memo of its chain-intrinsic analysis
// verdicts (ChainVerdictMemo, DESIGN.md §16.7), so re-analyzing a corpus
// after an append re-derives only what the append changed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chain/chain.hpp"
#include "core/interner.hpp"
#include "core/verdict_memo.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "zeek/joiner.hpp"

namespace certchain::core {

/// Everything the study tracks about one unique certificate chain.
struct ChainObservation {
  chain::CertificateChain chain;

  std::uint64_t connections = 0;
  std::uint64_t established = 0;
  // Sorted, duplicate-free ids into the owning index's interners
  // (CorpusIndex::clients(), endpoints(), sni_names()).
  std::vector<InternId> client_ips;
  std::vector<InternId> server_keys;  // "ip:port" delivery points
  util::Counter<std::uint16_t> ports;
  std::uint64_t with_sni = 0;
  std::uint64_t without_sni = 0;
  std::vector<InternId> domains;  // observed SNI values
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;

  /// Derived analysis state (DESIGN.md §16.7): excluded from snapshots,
  /// copied with the observation. Access it through verdicts().
  mutable ChainVerdictMemo verdict_memo;

  /// The verdict memo, cleared first when another owner filled it. Only the
  /// chunk that owns this observation in the running stage may call this.
  ChainVerdictMemo& verdicts(VerdictOwner owner) const {
    if (verdict_memo.owner != owner) {
      verdict_memo = ChainVerdictMemo();
      verdict_memo.owner = owner;
    }
    return verdict_memo;
  }

  double establish_rate() const {
    return connections == 0 ? 0.0
                            : static_cast<double>(established) /
                                  static_cast<double>(connections);
  }
};

/// Corpus-wide counters that don't belong to a single chain.
struct CorpusTotals {
  std::uint64_t connections = 0;          // all SSL.log rows
  std::uint64_t with_certificates = 0;    // rows that delivered a chain
  std::uint64_t tls13_connections = 0;    // certificates invisible (§6.3)
  std::uint64_t incomplete_joins = 0;     // rows with missing fuids
  std::size_t distinct_certificates = 0;  // unique cert fingerprints
};

class CorpusIndex {
 public:
  CorpusIndex() = default;
  // The fold memo points into chains_: map nodes survive moves, so the
  // defaulted moves are sound, but a copy must not inherit pointers into the
  // source — copies start with a cold memo.
  CorpusIndex(const CorpusIndex& other)
      : chains_(other.chains_),
        certificate_fingerprints_(other.certificate_fingerprints_),
        totals_(other.totals_),
        clients_(other.clients_),
        endpoints_(other.endpoints_),
        sni_names_(other.sni_names_) {}
  CorpusIndex& operator=(const CorpusIndex& other) {
    chains_ = other.chains_;
    certificate_fingerprints_ = other.certificate_fingerprints_;
    totals_ = other.totals_;
    clients_ = other.clients_;
    endpoints_ = other.endpoints_;
    sni_names_ = other.sni_names_;
    reset_fold_memo();
    return *this;
  }
  CorpusIndex(CorpusIndex&&) = default;
  CorpusIndex& operator=(CorpusIndex&&) = default;

  /// Folds connections in. Connections without certificates (TLS 1.3,
  /// resumed) contribute to totals only.
  void add(const zeek::JoinedConnection& connection);
  void add_all(const std::vector<zeek::JoinedConnection>& connections);

  /// Fused join+fold — the hot ingest path (DESIGN.md §16). Resolves the
  /// row's fuids against the joiner and folds the connection in place:
  /// no JoinedConnection is materialized, so the SSL record and the
  /// certificates are never copied per row; a chain is deep-copied exactly
  /// once, when its id is first observed. Byte-identical in effect to
  /// add(joiner.join(ssl)).
  void add(const zeek::LogJoiner& joiner, const zeek::SslLogRecord& ssl);

  /// Folds another index in, destructively. Every per-chain and corpus-wide
  /// field is an order-independent reduction (sums, set unions, min/max over
  /// timestamps), so merging shard-local indexes — in any order — yields
  /// exactly the index a single pass over the concatenated connections would
  /// have built; certificates seen by several shards are deduplicated here.
  /// The other index's usage ids are remapped into this index's interners
  /// first — O(distinct values + ids) — so ids may differ from a single
  /// pass, but every set, and so every count and snapshot byte, is the same.
  /// The parallel-diff suite asserts this equivalence end to end. Verdict
  /// memos stay valid on both sides: they are chain-intrinsic, and the one
  /// usage-keyed entry (interception candidacy) re-tests when a union grows
  /// the chain's domain set.
  void merge_from(CorpusIndex&& other);

  const std::map<std::string, ChainObservation>& chains() const { return chains_; }
  const CorpusTotals& totals() const { return totals_; }

  std::size_t unique_chain_count() const { return chains_.size(); }

  /// The id spaces of ChainObservation::client_ips, server_keys and domains.
  const Interner& clients() const { return clients_; }
  const Interner& endpoints() const { return endpoints_; }
  const Interner& sni_names() const { return sni_names_; }

  /// Writes the complete fold state as one JSON object (the `corpus` block
  /// of a stream checkpoint, DESIGN.md §11). Chains are stored as ordered
  /// certificate fingerprints, not serialized certificates — every
  /// certificate in the corpus came out of the X509 log, so a resuming run
  /// re-derives the objects from its re-ingested records. Usage ids are
  /// written as their strings, sorted, so the bytes never depend on ids.
  void write_snapshot(obs::json::Writer& writer) const;

  /// Restores a write_snapshot() state into an empty index. Fingerprints are
  /// resolved through `by_fingerprint` (built from the re-ingested X509
  /// records); an unresolvable fingerprint or a malformed snapshot fails
  /// with `error` set and leaves the index cleared.
  bool restore_snapshot(
      const obs::json::Value& value,
      const std::map<std::string, x509::Certificate>& by_fingerprint,
      std::string* error);

 private:
  std::map<std::string, ChainObservation> chains_;  // by chain id
  std::set<std::string> certificate_fingerprints_;
  CorpusTotals totals_;
  Interner clients_;
  Interner endpoints_;
  Interner sni_names_;

  /// The per-connection usage tail shared by both fold entry points: first/
  /// last seen, establishment, client/server endpoints, SNI. Must stay the
  /// single definition so the fused path cannot drift from
  /// add(JoinedConnection).
  void fold_usage(ChainObservation& observation, const zeek::SslLogRecord& ssl);

  /// Slow half of the fused fold: resolves fuids, digests the chain id, and
  /// registers the chain — runs once per distinct fuid list, not per row.
  ChainObservation* resolve_and_register(const zeek::LogJoiner& joiner,
                                         const zeek::SslLogRecord& ssl,
                                         bool& missing);

  void reset_fold_memo() {
    fold_memo_.clear();
    fold_joiner_ = nullptr;
    fold_joiner_size_ = 0;
  }

  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  /// What one fuid list folds to under the current joiner: the chain's
  /// observation slot (nullptr when no fuid resolved) and whether any fuid
  /// was missing. ChainObservation pointers are std::map nodes — stable.
  struct FoldMemoEntry {
    ChainObservation* observation = nullptr;
    bool missing = false;
  };

  // Scratch reused across fused add(joiner, ssl) calls so the per-row fold
  // stays allocation-free (one CorpusIndex is only ever fed from one thread).
  std::vector<const x509::Certificate*> fold_certs_;
  std::string fold_id_bytes_;
  std::string fold_fingerprint_;
  std::string fold_key_;
  std::string fold_endpoint_;
  // Fuid-list memo, valid only for one (joiner, certificate_count) snapshot:
  // the joiner can grow between folds (svc appends X509 rows incrementally),
  // and growth can turn a missing fuid into a resolved one.
  const zeek::LogJoiner* fold_joiner_ = nullptr;
  std::size_t fold_joiner_size_ = 0;
  std::unordered_map<std::string, FoldMemoEntry, TransparentHash,
                     std::equal_to<>>
      fold_memo_;
};

}  // namespace certchain::core
