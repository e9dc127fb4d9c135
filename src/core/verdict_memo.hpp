// The chain verdict memo (DESIGN.md §16.7).
//
// Most of what the Figure-2 stages derive for a unique chain depends only on
// the chain's certificates and on the analysis configuration — trust stores,
// CT logs, cross-sign registry, vendor directory — none of which change while
// a live corpus is re-analyzed after every append. Each ChainObservation
// therefore carries a ChainVerdictMemo: the stage that first needs a verdict
// computes and stores it, and every later analysis of the same corpus reads
// it back instead of re-deriving it.
//
// The memo is derived state, like Certificate::fingerprint_memo: never
// written to a snapshot, copied with its observation, and stamped with the
// VerdictOwner of the configuration that filled it. ChainObservation::
// verdicts(owner) clears a memo some other owner filled, so a corpus
// analyzed under two configurations in turn simply refills. It holds flags
// and small index vectors only — no certificate or DN strings.
//
// Only the chunk that owns an observation in the running stage may touch its
// memo: every stage splits the corpus into disjoint ranges or slices, so a
// pooled run writes each memo from one worker at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "chain/categorizer.hpp"

namespace certchain::core {

/// Identifies one analysis configuration (StudyPipeline, or a standalone
/// analyzer). Process-unique and never 0; 0 marks an empty memo.
using VerdictOwner = std::uint64_t;

/// A fresh, process-unique owner id.
VerdictOwner next_verdict_owner();

/// The CT-compliance issuance category of a chain's leaf (§4.2 extended).
enum class CtIssuerCategory : std::uint8_t {
  kPublic,                 // leaf issued by a public-DB issuer
  kNonPublicHierarchical,  // non-public-DB issuer, leaf not self-signed
  kSelfContained,          // self-signed leaf
};

/// The leaf verdicts CtComplianceAnalyzer needs beyond the SCT counts.
struct CtLeafVerdict {
  CtIssuerCategory category = CtIssuerCategory::kNonPublicHierarchical;
  bool logged_matching = false;  // CtLogSet::logged_matching(leaf)
  bool complies = false;         // CtLogSet::complies(leaf)
};

/// HybridAnalyzer's per-chain verdict.
struct HybridVerdict {
  chain::HybridClassification classification;
  /// For kCompleteNonPubToPub: the anchored leaf is CT-logged.
  bool anchored_leaf_ct_logged = false;
};

/// NonPublicAnalyzer's Table 8 bucket for a multi-certificate chain
/// (matched paths with the leaf test disabled, §4.3).
enum class MatchedPathShape : std::uint8_t { kIsPath, kContainsPath, kNoPath };

struct ChainVerdictMemo {
  /// Who filled it; 0 = empty.
  VerdictOwner owner = 0;

  // Enrich: interception candidacy over the first `candidacy_domains`
  // observed SNI names. The domain set only grows, and candidacy is "any
  // domain confirms", so a candidate stays one and a non-candidate is
  // re-tested only when the set size changed. {0, false} is exact for a
  // chain without SNI.
  std::size_t candidacy_domains = 0;
  bool candidate = false;

  // Categorize: the category by issuer-class mix alone (kPublicDbOnly,
  // kNonPublicDbOnly or kHybrid). The interception-set test runs against
  // each generation's set.
  std::optional<chain::ChainCategory> class_mix;

  // Structure.
  std::optional<HybridVerdict> hybrid;
  std::optional<MatchedPathShape> non_public_paths;

  // Graphs: one byte of node inputs per certificate (layout private to
  // pki_graph.cpp); empty until the graph stage first sees the chain.
  std::vector<std::uint8_t> graph_inputs;

  // CT compliance.
  std::optional<CtLeafVerdict> ct;
};

}  // namespace certchain::core
