// Issuer classification, memoized per interned DN (DESIGN.md §16.4).
//
// This class is the one place that decides between a certificate's interned
// issuer id and its canonical issuer string. classify_issuer() is a handful
// of ordered-map probes per call; the analysis stages invoke it once per
// certificate per chain, and a campus corpus repeats the same few hundred
// issuers millions of times. With a pool, IssuerClassifier memoizes the
// verdict per DnId — a vector indexed by the id — so every repeat is one
// array load. A certificate without an issuer id from this pool, or any
// certificate when the pool is null, takes the uncached string path, with
// the same verdict. Callers therefore always hold a classifier and never
// branch on whether a pool exists.
//
// The memo mutates on lookup, so sharded stages use one instance per chunk
// (the pool itself is read-only and shared).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dn_pool.hpp"
#include "truststore/trust_store.hpp"
#include "x509/certificate.hpp"

namespace certchain::truststore {

class IssuerClassifier {
 public:
  /// `pool` may be null; it must be the pool the certificates' ids came from.
  IssuerClassifier(const TrustStoreSet& stores, const core::DnPool* pool)
      : stores_(&stores), pool_(pool) {}

  /// Classification of a certificate = classification of its issuer.
  IssuerClass classify(const x509::Certificate& cert) {
    if (pool_ == nullptr || cert.issuer_id >= pool_->size()) {
      return stores_->classify_certificate(cert);
    }
    if (cert.issuer_id >= memo_.size()) memo_.resize(pool_->size(), kUnknown);
    std::uint8_t& slot = memo_[cert.issuer_id];
    if (slot == kUnknown) {
      slot = stores_->classify_certificate(cert) == IssuerClass::kPublicDb
                 ? kPublic
                 : kNonPublic;
    }
    return slot == kPublic ? IssuerClass::kPublicDb : IssuerClass::kNonPublicDb;
  }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kPublic = 1;
  static constexpr std::uint8_t kNonPublic = 2;

  const TrustStoreSet* stores_;
  const core::DnPool* pool_;
  std::vector<std::uint8_t> memo_;
};

}  // namespace certchain::truststore
