#include "core/pki_graph.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "chain/matcher.hpp"

namespace certchain::core {

std::string_view cert_role_name(CertRole role) {
  switch (role) {
    case CertRole::kLeaf: return "leaf";
    case CertRole::kIntermediate: return "intermediate";
    case CertRole::kRoot: return "root";
  }
  return "unknown";
}

std::map<std::pair<CertRole, truststore::IssuerClass>, std::size_t>
PkiGraph::node_breakdown() const {
  std::map<std::pair<CertRole, truststore::IssuerClass>, std::size_t> out;
  for (const PkiGraphNode& node : nodes_) {
    ++out[{node.role, node.issuer_class}];
  }
  return out;
}

std::size_t PkiGraph::issuance_degree(std::size_t index) const {
  std::set<std::size_t> neighbors;
  for (const auto& [lower, upper] : links_) {
    if (lower == index) neighbors.insert(upper);
    if (upper == index) neighbors.insert(lower);
  }
  return neighbors.size();
}

std::vector<std::size_t> PkiGraph::complex_intermediates(std::size_t threshold) const {
  // Per-intermediate set of *intermediate* neighbors over issuance links.
  std::map<std::size_t, std::set<std::size_t>> neighbors;
  for (const auto& [lower, upper] : links_) {
    if (nodes_[lower].role == CertRole::kIntermediate &&
        nodes_[upper].role == CertRole::kIntermediate) {
      neighbors[lower].insert(upper);
      neighbors[upper].insert(lower);
    }
  }
  std::vector<std::size_t> out;
  for (const auto& [index, set] : neighbors) {
    if (set.size() >= threshold) out.push_back(index);
  }
  return out;
}

std::size_t PkiGraph::connected_components() const {
  if (nodes_.empty()) return 0;
  std::vector<std::size_t> parent(nodes_.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [a, b] : co_edges_) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra != rb) parent[ra] = rb;
  }
  std::set<std::size_t> roots;
  for (std::size_t i = 0; i < parent.size(); ++i) roots.insert(find(i));
  return roots.size();
}

namespace {

// One memoized node-input byte per certificate: the role the certificate's
// own chain proves at least (a CertRole), whether its issuer is public-DB,
// and whether it matched the next certificate up.
constexpr std::uint8_t kRoleMask = 0x3;
constexpr std::uint8_t kPublicIssuer = 0x4;
constexpr std::uint8_t kMatchesNext = 0x8;

std::vector<std::uint8_t> node_inputs(const chain::CertificateChain& chain,
                                      truststore::IssuerClassifier& classifier) {
  const chain::MatchResult match = chain::match_chain(chain);
  std::vector<std::uint8_t> inputs(chain.length(), 0);
  const auto matched = [&match](std::size_t pair) {
    return pair < match.pairs.size() && match.pairs[pair].matched;
  };
  for (std::size_t i = 0; i < chain.length(); ++i) {
    const x509::Certificate& cert = chain.at(i);
    // Role evidence; roles only ever promote (leaf < intermediate < root).
    CertRole role = CertRole::kLeaf;
    if (cert.is_self_signed() && chain.length() > 1) {
      role = CertRole::kRoot;
    } else if (cert.is_ca()) {
      role = CertRole::kIntermediate;
    }
    // A certificate that issues the one below it is at least intermediate.
    if (i > 0 && matched(i - 1)) {
      role = std::max(role, cert.is_self_signed() ? CertRole::kRoot
                                                  : CertRole::kIntermediate);
    }
    std::uint8_t byte = static_cast<std::uint8_t>(role);
    if (classifier.classify(cert) == truststore::IssuerClass::kPublicDb) {
      byte |= kPublicIssuer;
    }
    if (matched(i)) byte |= kMatchesNext;
    inputs[i] = byte;
  }
  return inputs;
}

struct TransparentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace

/// Accumulates one graph: nodes are found by fingerprint once per
/// certificate occurrence and addressed by dense index from then on; edges
/// collect in vectors that are sorted and deduplicated once at the end.
class PkiGraphBuilder {
 public:
  explicit PkiGraphBuilder(PkiGraph& graph) : graph_(graph) {}

  void add_chain(const chain::CertificateChain& chain,
                 const std::vector<std::uint8_t>& inputs) {
    indices_.clear();
    for (std::size_t i = 0; i < chain.length(); ++i) {
      const std::size_t index = node_for(chain.at(i), inputs[i]);
      PkiGraphNode& node = graph_.nodes_[index];
      ++node.chain_count;
      const CertRole role = static_cast<CertRole>(inputs[i] & kRoleMask);
      if (role > node.role) node.role = role;
      indices_.push_back(index);
    }
    // Co-occurrence: all unordered pairs in the chain. Quadratic in chain
    // length, so the pathological misconfigured chains (the paper's
    // 3,822-cert outlier would mean ~7.3M edges) only contribute links.
    if (indices_.size() <= PkiGraph::kMaxCoOccurrenceChain) {
      for (std::size_t a = 0; a < indices_.size(); ++a) {
        for (std::size_t b = a + 1; b < indices_.size(); ++b) {
          if (indices_[a] == indices_[b]) continue;
          graph_.co_edges_.emplace_back(std::min(indices_[a], indices_[b]),
                                        std::max(indices_[a], indices_[b]));
        }
      }
    }
    // Issuance links: matched adjacent pairs only.
    for (std::size_t i = 0; i + 1 < indices_.size(); ++i) {
      if ((inputs[i] & kMatchesNext) != 0 && indices_[i] != indices_[i + 1]) {
        graph_.links_.emplace_back(indices_[i], indices_[i + 1]);
      }
    }
  }

  void finish() {
    for (std::vector<PkiGraph::Edge>* edges : {&graph_.co_edges_, &graph_.links_}) {
      std::sort(edges->begin(), edges->end());
      edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
    }
  }

 private:
  std::size_t node_for(const x509::Certificate& cert, std::uint8_t input) {
    // Sealed certificates (every corpus certificate) are looked up through
    // their memo without a copy.
    std::string computed;
    const std::string_view fingerprint =
        cert.fingerprint_memo.empty()
            ? std::string_view(computed = cert.fingerprint())
            : std::string_view(cert.fingerprint_memo);
    const auto it = by_fingerprint_.find(fingerprint);
    if (it != by_fingerprint_.end()) return it->second;
    const std::size_t index = graph_.nodes_.size();
    PkiGraphNode& node = graph_.nodes_.emplace_back();
    node.fingerprint = std::string(fingerprint);
    node.subject = cert.subject.to_string();
    node.issuer_class = (input & kPublicIssuer) != 0
                            ? truststore::IssuerClass::kPublicDb
                            : truststore::IssuerClass::kNonPublicDb;
    by_fingerprint_.emplace(node.fingerprint, index);
    return index;
  }

  PkiGraph& graph_;
  std::unordered_map<std::string, std::size_t, TransparentHash, std::equal_to<>>
      by_fingerprint_;
  std::vector<std::size_t> indices_;
};

PkiGraph build_pki_graph(const std::vector<const ChainObservation*>& chains,
                         const truststore::TrustStoreSet& stores,
                         const core::DnPool* dn_pool, VerdictOwner owner,
                         std::size_t max_length) {
  PkiGraph graph;
  PkiGraphBuilder builder(graph);
  // One classifier for the whole build: its DnId memo carries across the
  // chains whose node inputs are not memoized yet.
  truststore::IssuerClassifier classifier(stores, dn_pool);
  for (const ChainObservation* observation : chains) {
    const auto& chain = observation->chain;
    if (chain.empty() || chain.length() > max_length) continue;
    std::vector<std::uint8_t>& inputs = observation->verdicts(owner).graph_inputs;
    if (inputs.empty()) inputs = node_inputs(chain, classifier);
    builder.add_chain(chain, inputs);
  }
  builder.finish();
  return graph;
}

}  // namespace certchain::core
