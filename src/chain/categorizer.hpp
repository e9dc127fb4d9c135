// Chain categorization (§3.2.2) and the paper's per-category structure
// taxonomies (Table 3 for hybrid chains, Table 7 for hybrid chains without a
// complete matched path).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "chain/chain.hpp"
#include "chain/cross_sign_registry.hpp"
#include "chain/matcher.hpp"
#include "truststore/issuer_classifier.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::chain {

/// §3.2.2 chain categories.
enum class ChainCategory : std::uint8_t {
  kPublicDbOnly,     // every certificate issued by a public-DB issuer
  kNonPublicDbOnly,  // every certificate issued by a non-public-DB issuer
  kHybrid,           // both classes present
  kTlsInterception,  // contains a certificate from a known interception issuer
};

std::string_view chain_category_name(ChainCategory category);

/// Canonical-DN set of issuers identified as performing TLS interception.
/// Transparent comparator: membership tests take canonical string_views.
using InterceptionIssuerSet = std::set<std::string, std::less<>>;

/// Categorizes one chain. Interception wins over the class mix, matching the
/// paper's filtering order (interception chains are excluded from the
/// non-public-DB-only and hybrid buckets). Interception is tested on the
/// issuer's canonical string; classification goes through `classifier`
/// (a DnId memo load for pooled certificates, DESIGN.md §16.4).
ChainCategory categorize_chain(const CertificateChain& chain,
                               truststore::IssuerClassifier& classifier,
                               const InterceptionIssuerSet& interception_issuers);

/// The two halves of categorize_chain, for callers that keep the class mix
/// across interception sets (the pipeline's verdict memo, DESIGN.md §16.7):
/// categorize_chain == has_interception_issuer ? kTlsInterception
///                                             : issuer_class_category.
/// issuer_class_category answers kPublicDbOnly, kNonPublicDbOnly or kHybrid.
ChainCategory issuer_class_category(const CertificateChain& chain,
                                    truststore::IssuerClassifier& classifier);
bool has_interception_issuer(const CertificateChain& chain,
                             const InterceptionIssuerSet& interception_issuers);

/// The same verdict through a poolless classifier over `stores`.
ChainCategory categorize_chain(const CertificateChain& chain,
                               const truststore::TrustStoreSet& stores,
                               const InterceptionIssuerSet& interception_issuers);

/// Table 3 buckets for hybrid chains.
enum class HybridStructure : std::uint8_t {
  /// Chain is exactly a complete matched path; non-public leaf anchored to a
  /// public trust root ("Non-pub. chained to Pub.", 26 chains).
  kCompleteNonPubToPub,
  /// Chain is exactly a complete matched path; public-DB leaf/intermediates
  /// followed by a non-public certificate whose subject matches the
  /// preceding issuer ("Pub. chained to Prv.", 10 chains — Scalyr/Canal+).
  kCompletePubToPrivate,
  /// Chain contains a complete matched path plus unnecessary certificates
  /// (70 chains).
  kContainsCompletePath,
  /// No complete matched path at all (215 chains).
  kNoCompletePath,
};

std::string_view hybrid_structure_name(HybridStructure structure);

/// Table 7 buckets for hybrid chains lacking a complete matched path.
enum class NoPathCategory : std::uint8_t {
  kSelfSignedLeafThenMismatches,   // 108 chains
  kSelfSignedLeafThenValidSubchain,  // 13 chains (self-signed cert replaced leaf)
  kAllPairsMismatched,             // 61 chains
  kPartialPairsMismatched,         // 27 chains
  kNonPubRootAppendedToValidPublicSubchain,  // 5 chains
  kNonPubRootAndMismatches,        // 1 chain
};

std::string_view no_path_category_name(NoPathCategory category);

/// Full hybrid verdict for one chain.
struct HybridClassification {
  HybridStructure structure = HybridStructure::kNoCompletePath;
  PathAnalysis paths;
  /// Set only when structure == kNoCompletePath.
  NoPathCategory no_path_category = NoPathCategory::kPartialPairsMismatched;
  /// §4.2: chain includes a public-DB leaf but no intermediate that issued
  /// it (56 of the 215 no-path chains).
  bool public_leaf_without_issuer = false;
};

/// Classifies a hybrid chain per Table 3 / Table 7.
HybridClassification classify_hybrid(const CertificateChain& chain,
                                     const truststore::TrustStoreSet& stores,
                                     const CrossSignRegistry* registry = nullptr);

}  // namespace certchain::chain
