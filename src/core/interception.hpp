// TLS interception identification (§3.2.1, Table 1, Appendix B).
//
// The paper's procedure: (1) filter connections whose leaf issuer appears in
// no public database; (2) cross-reference CT for the same domain and
// validity period — if CT records only *different* issuers, the observed
// chain was likely forged by a middlebox; (3) confirm and categorize the
// issuer by manual investigation. Step (3)'s stand-in here is the
// VendorDirectory: a lookup from canonical issuer DN to (vendor, category),
// built by the corpus generator the way the authors built their table by
// web search. Only directory-confirmed issuers are counted as interception;
// candidates without a directory entry remain ordinary non-public-DB issuers
// (the paper's method is explicitly best-effort, Appendix B).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "chain/categorizer.hpp"
#include "core/corpus.hpp"
#include "core/run_options.hpp"
#include "ct/ct_log.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::obs {
struct RunContext;
}  // namespace certchain::obs

namespace certchain::par {
class ThreadPool;
}  // namespace certchain::par

namespace certchain::core {

struct VendorInfo {
  std::string vendor;    // e.g. "Sim Zscaler"
  std::string category;  // Table 1 category label
};

/// Canonical issuer DN -> vendor info. Transparent comparator: detection
/// probes with the leaf's cached canonical form (a view) per candidate.
using VendorDirectory = std::map<std::string, VendorInfo, std::less<>>;

/// Per-issuer interception finding.
struct InterceptionFinding {
  std::string issuer_canonical;
  std::string issuer_display;  // RFC 4514 form
  VendorInfo vendor;
  std::uint64_t connections = 0;
  DistinctIds client_ips;  // ids of the detected corpus's clients()
};

/// Aggregated Table 1 row. `issuers` counts distinct vendors (the paper's
/// 80 "issuers" are intercepting entities, not individual CA certificates).
struct InterceptionCategoryRow {
  std::string category;
  std::size_t issuers = 0;
  std::uint64_t connections = 0;
  std::size_t client_ips = 0;
};

struct InterceptionReport {
  std::vector<InterceptionFinding> findings;  // one per confirmed issuer
  /// CT-mismatch candidates that no directory entry confirmed.
  std::set<std::string> unconfirmed_candidates;
  std::uint64_t total_connections = 0;

  /// Every directory DN belonging to a confirmed vendor (the vendor's whole
  /// CA apparatus — inspection intermediates and roots). Filled by detect().
  chain::InterceptionIssuerSet vendor_issuer_dns;

  /// The set the chain categorizer consumes: the detected leaf-signing DNs
  /// plus every other DN of the confirmed vendors. Chains presenting only a
  /// middlebox root (the single-certificate case, 13.24% of interception
  /// chains) are attributed through the vendor expansion.
  chain::InterceptionIssuerSet issuer_set() const;

  /// Table 1 rows, ordered by descending connection share. Computed once by
  /// detect(), so rendering a report does no set work.
  std::vector<InterceptionCategoryRow> rows;
  const std::vector<InterceptionCategoryRow>& category_rows() const {
    return rows;
  }
};

class InterceptionDetector {
 public:
  /// Per-chain candidacy is memoized in each observation under `owner`
  /// (DESIGN.md §16.7); the pipeline passes its own, so a re-analyzed corpus
  /// re-tests only chains whose SNI set grew.
  InterceptionDetector(const truststore::TrustStoreSet& stores,
                       const ct::CtLogSet& ct_logs, const VendorDirectory& directory,
                       VerdictOwner owner = next_verdict_owner())
      : stores_(&stores), ct_logs_(&ct_logs), directory_(&directory),
        owner_(owner) {}

  /// Runs detection over the deduplicated corpus. Chains are flagged via
  /// their observed SNI domains (read back through corpus.sni_names());
  /// SNI-less traffic cannot be checked against CT (Appendix B limitation,
  /// reproduced faithfully). The per-chain candidate test runs over one
  /// chunk of consecutive corpus ranges per `pool` worker (one chunk,
  /// inline, when `pool` is null); the partial finding maps merge in range
  /// order (identity fields first-wins, counts summed, client id sets
  /// unioned) before the vendor expansion, the Table 1 rows and the sort —
  /// so the report is identical at every worker count.
  InterceptionReport detect(const CorpusIndex& corpus,
                            par::ThreadPool* pool = nullptr) const;

  /// Uniform `(input, options, obs)` entry (DESIGN.md §11): builds a pool
  /// only when options.threads resolves to more than one worker, and — when
  /// `obs` is given — wraps detection in an `interception.detect` stage span
  /// with chains-in/findings counters. Output is identical to the overload
  /// above at every thread count.
  InterceptionReport detect(const CorpusIndex& corpus, const RunOptions& options,
                            obs::RunContext* obs = nullptr) const;

  /// The per-chain primitive: true if the leaf issuer is absent from public
  /// databases and CT records a different issuer for `domain` during the
  /// leaf's validity.
  bool is_interception_candidate(const chain::CertificateChain& chain,
                                 std::string_view domain) const;

 private:
  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const VendorDirectory* directory_;
  VerdictOwner owner_;
};

}  // namespace certchain::core
