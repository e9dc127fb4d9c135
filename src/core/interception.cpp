#include "core/interception.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "obs/run_context.hpp"
#include "par/thread_pool.hpp"

namespace certchain::core {

chain::InterceptionIssuerSet InterceptionReport::issuer_set() const {
  chain::InterceptionIssuerSet out = vendor_issuer_dns;
  for (const InterceptionFinding& finding : findings) {
    out.insert(finding.issuer_canonical);
  }
  return out;
}

bool InterceptionDetector::is_interception_candidate(
    const chain::CertificateChain& chain, std::string_view domain) const {
  if (chain.empty() || domain.empty()) return false;
  const x509::Certificate& leaf = chain.first();
  // Step 1: leaf issuer absent from every public database.
  if (stores_->classify_certificate(leaf) == truststore::IssuerClass::kPublicDb) {
    return false;
  }
  // Step 2: CT cross-reference for the same domain and validity period. No
  // CT record at all is inconclusive (the genuine certificate may itself be
  // non-public and unlogged, Appendix B) — only a *different* recorded
  // issuer implies interception.
  const auto ct_issuers = ct_logs_->issuers_for_domain(domain, leaf.validity);
  if (ct_issuers.empty()) return false;
  for (const x509::DistinguishedName& recorded : ct_issuers) {
    if (recorded.matches(leaf.issuer)) return false;  // observed issuer is on file
  }
  return true;
}

namespace {

/// Partial detection state: the per-chain fold target, one per chunk of
/// consecutive corpus ranges, merged in range order.
struct DetectFold {
  std::map<std::string, InterceptionFinding> findings;  // by issuer canonical
  std::set<std::string> unconfirmed_candidates;
  std::uint64_t total_connections = 0;

  /// Folds a later corpus range in; call in range order so first-wins
  /// identity fields resolve like a single pass over the whole corpus.
  void merge_from(DetectFold&& other) {
    for (auto& [canonical, theirs] : other.findings) {
      const auto [it, inserted] =
          findings.try_emplace(canonical, std::move(theirs));
      if (inserted) continue;
      it->second.connections += theirs.connections;
      it->second.client_ips.merge(theirs.client_ips);
    }
    unconfirmed_candidates.merge(other.unconfirmed_candidates);
    total_connections += other.total_connections;
  }
};

/// The chunk loop body: evaluates one chain observation into the fold.
void fold_observation(const InterceptionDetector& detector,
                      const VendorDirectory& directory,
                      const Interner& sni_names, VerdictOwner owner,
                      const ChainObservation& observation, DetectFold& fold) {
  if (observation.chain.empty()) return;
  // Candidacy is "some observed SNI confirms", so it only has to be
  // re-tested while it is false and the domain set has grown.
  ChainVerdictMemo& memo = observation.verdicts(owner);
  if (!memo.candidate && memo.candidacy_domains != observation.domains.size()) {
    for (const InternId domain : observation.domains) {
      if (detector.is_interception_candidate(observation.chain,
                                             sni_names.text(domain))) {
        memo.candidate = true;
        break;
      }
    }
    memo.candidacy_domains = observation.domains.size();
  }
  if (!memo.candidate) return;

  const x509::Certificate& leaf = observation.chain.first();
  const std::string& canonical = leaf.issuer.canonical();
  const auto directory_entry = directory.find(canonical);
  if (directory_entry == directory.end()) {
    fold.unconfirmed_candidates.insert(canonical);
    return;
  }
  InterceptionFinding& finding = fold.findings[canonical];
  if (finding.issuer_canonical.empty()) {
    finding.issuer_canonical = canonical;
    finding.issuer_display = leaf.issuer.to_string();
    finding.vendor = directory_entry->second;
  }
  finding.connections += observation.connections;
  finding.client_ips.add(observation.client_ips);
  fold.total_connections += observation.connections;
}

/// Table 1: findings aggregated per vendor category, by descending
/// connection share. Client ids are deduplicated per category, not summed
/// per issuer.
std::vector<InterceptionCategoryRow> category_rows_of(
    const std::map<std::string, InterceptionFinding>& findings) {
  std::map<std::string, InterceptionCategoryRow> by_category;
  std::map<std::string, std::set<std::string>> vendors_by_category;
  std::map<std::string, DistinctIds> clients_by_category;
  for (const auto& [canonical, finding] : findings) {
    const std::string& category = finding.vendor.category;
    InterceptionCategoryRow& row = by_category[category];
    row.category = category;
    row.connections += finding.connections;
    vendors_by_category[category].insert(finding.vendor.vendor);
    clients_by_category[category].merge(finding.client_ips);
  }
  std::vector<InterceptionCategoryRow> rows;
  rows.reserve(by_category.size());
  for (auto& [category, row] : by_category) {
    row.issuers = vendors_by_category[category].size();
    row.client_ips = clients_by_category[category].size();
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const InterceptionCategoryRow& a, const InterceptionCategoryRow& b) {
                     return a.connections > b.connections;
                   });
  return rows;
}

/// Vendor expansion, Table 1 rows and the findings ordering over the merged
/// fold.
InterceptionReport finalize_fold(DetectFold&& fold,
                                 const VendorDirectory& directory) {
  InterceptionReport report;
  report.unconfirmed_candidates = std::move(fold.unconfirmed_candidates);
  report.total_connections = fold.total_connections;

  // Vendor expansion: every directory DN of a confirmed vendor.
  std::set<std::string> confirmed_vendors;
  for (const auto& [canonical, finding] : fold.findings) {
    confirmed_vendors.insert(finding.vendor.vendor);
  }
  for (const auto& [canonical, info] : directory) {
    if (confirmed_vendors.contains(info.vendor)) {
      report.vendor_issuer_dns.insert(canonical);
    }
  }
  report.rows = category_rows_of(fold.findings);

  report.findings.reserve(fold.findings.size());
  for (auto& [canonical, finding] : fold.findings) {
    report.findings.push_back(std::move(finding));
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const InterceptionFinding& a, const InterceptionFinding& b) {
                     return a.connections > b.connections;
                   });
  return report;
}

}  // namespace

InterceptionReport InterceptionDetector::detect(const CorpusIndex& corpus,
                                                par::ThreadPool* pool) const {
  std::vector<const ChainObservation*> observations;
  observations.reserve(corpus.chains().size());
  for (const auto& [chain_id, observation] : corpus.chains()) {
    observations.push_back(&observation);
  }

  const std::size_t chunks = par::chunk_count(pool);
  std::vector<DetectFold> folds(chunks);
  par::parallel_for_chunks(
      pool, observations.size(), chunks,
      [this, &folds, &observations, &corpus](std::size_t chunk,
                                             std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fold_observation(*this, *directory_, corpus.sni_names(), owner_,
                           *observations[i], folds[chunk]);
        }
      });
  return finalize_fold(par::merge_chunks(folds), *directory_);
}

InterceptionReport InterceptionDetector::detect(const CorpusIndex& corpus,
                                                const RunOptions& options,
                                                obs::RunContext* obs) const {
  std::optional<obs::StageTimer> timer;
  if (obs != nullptr) timer.emplace(*obs, "interception.detect");

  const std::unique_ptr<par::ThreadPool> pool = par::make_pool(options.threads);
  InterceptionReport report = detect(corpus, pool.get());
  if (obs != nullptr) {
    obs->metrics.count("interception.detect.chains_in",
                       corpus.unique_chain_count());
    obs->metrics.count("interception.detect.findings", report.findings.size());
  }
  return report;
}

}  // namespace certchain::core
