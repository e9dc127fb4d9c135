// The interned-DN pool (DESIGN.md §16).
//
// Every distinguished name the joiner sees is canonicalized exactly once —
// at intern time — and mapped to a dense DnId. From then on issuer
// classification memoizes per id (truststore::IssuerClassifier) instead of
// re-probing the trust stores with canonical strings.
//
// The one intern entry point takes raw RFC 4514 bytes from a log field. A
// raw-bytes memo (an Interner over the spellings) skips DN parsing entirely
// when the same spelling recurs — the common case, since X509 rows repeat a
// small set of issuers thousands of times. A malformed DN degrades to a
// single CN=<raw> RDN (DistinguishedName::parse_lenient), exactly as the
// poolless joiner parses it. Canonical forms live in a second Interner whose
// ids are the DnIds.
//
// zeek::LogJoiner is the one place the pipeline interns: every batch engine
// (records, text, streamed) builds its joiner on the coordinator over the
// X509 rows in stream order, so each run's pool is written by one thread
// before any analysis chunk reads it, and ids come out the same in every
// engine; the serving state feeds its joiner under its writer lock. Ids are
// pool-local and only ever used for memo lookups and equality tests.
//
// Distinct spellings that canonicalize equally ("CN=Example" vs
// "cn=example") share one id but keep their own parsed form: name_for_raw()
// returns the parse of *those* bytes, so certificates built through the pool
// render exactly as they would without it (byte-identity of reports).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dn_id.hpp"
#include "core/interner.hpp"
#include "x509/distinguished_name.hpp"

namespace certchain::core {

class DnPool {
 public:
  DnPool() = default;
  DnPool(const DnPool&) = delete;
  DnPool& operator=(const DnPool&) = delete;
  DnPool(DnPool&&) = default;
  DnPool& operator=(DnPool&&) = default;

  /// Id plus the parse of exactly one raw spelling. For a spelling that
  /// collides canonically with an earlier entry, `name` is the variant parse
  /// of *these* bytes, not the pool entry — display fidelity is preserved.
  struct Interned {
    DnId id = kInvalidDnId;
    const x509::DistinguishedName* name = nullptr;
  };

  /// Interns the raw RFC 4514 text of one log field (lenient). Repeated
  /// spellings hit the raw-bytes memo and never touch the parser.
  DnId intern(std::string_view raw) { return intern_raw(raw).id; }

  /// Raw-bytes intern returning both the id and the spelling's parse — the
  /// joiner's entry point (one hash lookup covers both).
  Interned intern_raw(std::string_view raw);

  /// The parse of exactly these raw bytes (interning them if new).
  const x509::DistinguishedName& name_for_raw(std::string_view raw) {
    return *intern_raw(raw).name;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  Interned memo_raw(std::string_view raw);

  // Canonical forms; an id here is the DnId, in first-intern order.
  Interner canonicals_;
  // Entries are heap-allocated so pointers handed out in Interned survive
  // deque growth and pool moves.
  std::deque<std::unique_ptr<x509::DistinguishedName>> entries_;
  // Variant parses: spellings whose canonical form was already interned.
  std::deque<std::unique_ptr<x509::DistinguishedName>> variants_;

  // The raw-spelling memo: spelling id -> what intern_raw() answered for it.
  Interner raw_spellings_;
  std::vector<Interned> by_raw_id_;
};

}  // namespace certchain::core
