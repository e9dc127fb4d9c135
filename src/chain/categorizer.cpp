#include "chain/categorizer.hpp"

namespace certchain::chain {

using truststore::IssuerClass;

std::string_view chain_category_name(ChainCategory category) {
  switch (category) {
    case ChainCategory::kPublicDbOnly: return "Public-DB-only";
    case ChainCategory::kNonPublicDbOnly: return "Non-public-DB-only";
    case ChainCategory::kHybrid: return "Hybrid";
    case ChainCategory::kTlsInterception: return "TLS interception";
  }
  return "unknown";
}

ChainCategory issuer_class_category(const CertificateChain& chain,
                                    truststore::IssuerClassifier& classifier) {
  bool any_public = false;
  bool any_non_public = false;
  for (const x509::Certificate& cert : chain) {
    if (classifier.classify(cert) == IssuerClass::kPublicDb) {
      any_public = true;
    } else {
      any_non_public = true;
    }
  }
  if (any_public && any_non_public) return ChainCategory::kHybrid;
  if (any_public) return ChainCategory::kPublicDbOnly;
  return ChainCategory::kNonPublicDbOnly;
}

bool has_interception_issuer(const CertificateChain& chain,
                             const InterceptionIssuerSet& interception_issuers) {
  if (interception_issuers.empty()) return false;
  for (const x509::Certificate& cert : chain) {
    if (interception_issuers.contains(cert.issuer.canonical())) return true;
  }
  return false;
}

ChainCategory categorize_chain(const CertificateChain& chain,
                               truststore::IssuerClassifier& classifier,
                               const InterceptionIssuerSet& interception_issuers) {
  if (has_interception_issuer(chain, interception_issuers)) {
    return ChainCategory::kTlsInterception;
  }
  return issuer_class_category(chain, classifier);
}

ChainCategory categorize_chain(const CertificateChain& chain,
                               const truststore::TrustStoreSet& stores,
                               const InterceptionIssuerSet& interception_issuers) {
  truststore::IssuerClassifier classifier(stores, nullptr);
  return categorize_chain(chain, classifier, interception_issuers);
}

std::string_view hybrid_structure_name(HybridStructure structure) {
  switch (structure) {
    case HybridStructure::kCompleteNonPubToPub:
      return "Complete path: Non-pub. chained to Pub.";
    case HybridStructure::kCompletePubToPrivate:
      return "Complete path: Pub. chained to Prv.";
    case HybridStructure::kContainsCompletePath:
      return "Chain contains a complete matched path";
    case HybridStructure::kNoCompletePath:
      return "No complete matched path";
  }
  return "unknown";
}

std::string_view no_path_category_name(NoPathCategory category) {
  switch (category) {
    case NoPathCategory::kSelfSignedLeafThenMismatches:
      return "Non-pub-DB self-signed leaf followed by mismatched {issuer-subject} pairs";
    case NoPathCategory::kSelfSignedLeafThenValidSubchain:
      return "Non-pub-DB self-signed leaf followed by a valid sub-chain";
    case NoPathCategory::kAllPairsMismatched:
      return "All {issuer-subject} pairs are mismatched";
    case NoPathCategory::kPartialPairsMismatched:
      return "Partial {issuer-subject} pairs are mismatched";
    case NoPathCategory::kNonPubRootAppendedToValidPublicSubchain:
      return "Non-pub-DB root appended to a valid public-issued sub-chain";
    case NoPathCategory::kNonPubRootAndMismatches:
      return "Non-pub-DB root and mismatched {issuer-subject} pairs";
  }
  return "unknown";
}

namespace {

/// §4.2 footnote observation: a public-DB-issued leaf present in the chain
/// with no certificate in the chain whose subject matches the leaf's issuer.
bool has_public_leaf_without_issuer(const CertificateChain& chain,
                                    const truststore::TrustStoreSet& stores) {
  for (std::size_t i = 0; i < chain.length(); ++i) {
    const x509::Certificate& cert = chain.at(i);
    if (cert.is_ca()) continue;
    if (cert.is_self_signed()) continue;
    if (stores.classify_certificate(cert) != IssuerClass::kPublicDb) continue;
    bool issuer_present = false;
    for (std::size_t j = 0; j < chain.length(); ++j) {
      if (j == i) continue;
      if (chain.at(j).subject.matches(cert.issuer)) {
        issuer_present = true;
        break;
      }
    }
    if (!issuer_present) return true;
  }
  return false;
}

NoPathCategory categorize_no_path(const CertificateChain& chain,
                                  const truststore::TrustStoreSet& stores,
                                  const PathAnalysis& paths) {
  const std::size_t n = chain.length();
  const auto& pairs = paths.match.pairs;
  const std::size_t mismatches = paths.match.mismatch_count();
  const bool all_mismatched = mismatches == pairs.size() && !pairs.empty();

  // Self-signed non-public leaf at the front?
  const x509::Certificate& front = chain.first();
  const bool front_self_signed_non_pub =
      front.is_self_signed() &&
      stores.classify_certificate(front) == IssuerClass::kNonPublicDb;
  if (front_self_signed_non_pub && n >= 2) {
    // "Followed by a valid sub-chain": the only mismatch is pair 0 and the
    // rest of the chain matches throughout.
    bool rest_matched = !pairs[0].matched;
    for (std::size_t i = 1; i < pairs.size() && rest_matched; ++i) {
      rest_matched = pairs[i].matched;
    }
    if (rest_matched && n >= 3) {
      return NoPathCategory::kSelfSignedLeafThenValidSubchain;
    }
    return NoPathCategory::kSelfSignedLeafThenMismatches;
  }

  // Non-public self-signed root at the top?
  const x509::Certificate& top = chain.at(n - 1);
  const bool top_non_pub_root =
      top.is_self_signed() &&
      stores.classify_certificate(top) == IssuerClass::kNonPublicDb;
  if (top_non_pub_root && n >= 2) {
    // "Appended to a valid public-issued sub-chain": only the final pair
    // mismatches, everything below matches, and the sub-chain below is
    // public-DB issued.
    bool below_matched = true;
    for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
      below_matched = below_matched && pairs[i].matched;
    }
    const bool last_pair_mismatched = !pairs.back().matched;
    bool below_public = true;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      below_public = below_public && stores.classify_certificate(chain.at(i)) ==
                                         IssuerClass::kPublicDb;
    }
    if (below_matched && last_pair_mismatched && below_public && n >= 3) {
      return NoPathCategory::kNonPubRootAppendedToValidPublicSubchain;
    }
    return NoPathCategory::kNonPubRootAndMismatches;
  }

  if (all_mismatched) return NoPathCategory::kAllPairsMismatched;
  return NoPathCategory::kPartialPairsMismatched;
}

}  // namespace

HybridClassification classify_hybrid(const CertificateChain& chain,
                                     const truststore::TrustStoreSet& stores,
                                     const CrossSignRegistry* registry) {
  HybridClassification verdict;
  verdict.paths = analyze_paths(chain, registry, /*require_leaf=*/true);

  if (verdict.paths.is_complete_path()) {
    // Split the Table 3 "complete" bucket by who issued the leaf and where
    // the path tops out.
    const x509::Certificate& leaf = chain.at(verdict.paths.complete_path->begin);
    const x509::Certificate& top = chain.at(verdict.paths.complete_path->end);
    const bool leaf_public =
        stores.classify_certificate(leaf) == IssuerClass::kPublicDb;
    const bool top_non_public =
        stores.classify_certificate(top) == IssuerClass::kNonPublicDb;
    if (leaf_public && top_non_public) {
      verdict.structure = HybridStructure::kCompletePubToPrivate;
    } else {
      verdict.structure = HybridStructure::kCompleteNonPubToPub;
    }
  } else if (verdict.paths.contains_complete_path()) {
    verdict.structure = HybridStructure::kContainsCompletePath;
  } else {
    verdict.structure = HybridStructure::kNoCompletePath;
    verdict.no_path_category = categorize_no_path(chain, stores, verdict.paths);
    verdict.public_leaf_without_issuer = has_public_leaf_without_issuer(chain, stores);
  }
  return verdict;
}

}  // namespace certchain::chain
