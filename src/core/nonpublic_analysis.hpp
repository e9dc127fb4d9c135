// Non-public-DB-only and TLS-interception chain analysis (§4.3; Table 8;
// the DGA special case; the basicConstraints omission statistics; and the
// per-category port distribution of Table 4 / Appendix C).
//
// For these chains the leaf test is disabled: non-public issuers routinely
// omit basicConstraints, so "complete matched path" here means a matched run
// spanning at least two certificates (§4.3 methodology).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/cross_sign_registry.hpp"
#include "core/corpus.hpp"
#include "util/stats.hpp"

namespace certchain::core {

/// §4.3 + Table 8 numbers for one chain category.
struct NonPublicReport {
  std::string category_label;

  // Population.
  std::size_t chains = 0;
  std::uint64_t connections = 0;
  std::size_t client_ips = 0;

  // Single-certificate chains.
  std::size_t single_chains = 0;
  std::size_t single_self_signed = 0;
  std::uint64_t single_connections = 0;
  std::size_t single_client_ips = 0;
  std::uint64_t single_no_sni_connections = 0;

  // DGA cluster (single-cert chains, distinct issuer/subject, both CNs
  // matching the www<random>com pattern).
  std::size_t dga_chains = 0;
  std::uint64_t dga_connections = 0;
  std::size_t dga_client_ips = 0;

  // basicConstraints omission (§4.3): share of certificates omitting the
  // extension, split by first-in-chain vs subsequent positions. Computed
  // over the certificates of multi-certificate chains.
  std::uint64_t first_position_certs = 0;
  std::uint64_t first_position_bc_omitted = 0;
  std::uint64_t later_position_certs = 0;
  std::uint64_t later_position_bc_omitted = 0;

  // Table 8: multi-certificate chain structure.
  std::size_t multi_chains = 0;
  std::size_t is_matched_path = 0;        // whole chain is one matched run
  std::size_t contains_matched_path = 0;  // a >=2-cert run exists plus extras
  std::size_t no_matched_path = 0;        // no >=2-cert matched run

  // Port distribution (Table 4), split single/multi for the non-public
  // category the way the paper splits its columns.
  util::Counter<std::uint16_t> ports_single;
  util::Counter<std::uint16_t> ports_multi;

  double single_fraction() const {
    return chains == 0 ? 0.0
                       : static_cast<double>(single_chains) /
                             static_cast<double>(chains);
  }
  double single_self_signed_fraction() const {
    return single_chains == 0 ? 0.0
                              : static_cast<double>(single_self_signed) /
                                    static_cast<double>(single_chains);
  }
  double is_matched_path_fraction() const {
    return multi_chains == 0 ? 0.0
                             : static_cast<double>(is_matched_path) /
                                   static_cast<double>(multi_chains);
  }
  double bc_omitted_first_fraction() const {
    return first_position_certs == 0
               ? 0.0
               : static_cast<double>(first_position_bc_omitted) /
                     static_cast<double>(first_position_certs);
  }
  double bc_omitted_later_fraction() const {
    return later_position_certs == 0
               ? 0.0
               : static_cast<double>(later_position_bc_omitted) /
                     static_cast<double>(later_position_certs);
  }
};

/// True if `name` looks like the paper's DGA pattern: "www<alpha>com" as a
/// single label (the paper renders it www[dot]randomstring[dot]com).
bool looks_like_dga_name(const std::string& name);

/// True if a single-certificate chain belongs to the DGA cluster.
bool is_dga_certificate(const x509::Certificate& cert);

class NonPublicAnalyzer {
 public:
  /// Each multi-certificate chain's matched-path shape is memoized under
  /// `owner` (DESIGN.md §16.7).
  explicit NonPublicAnalyzer(const chain::CrossSignRegistry* registry = nullptr,
                             VerdictOwner owner = next_verdict_owner())
      : registry_(registry), owner_(owner) {}

  NonPublicReport analyze(std::string category_label,
                          const std::vector<const ChainObservation*>& chains) const;

 private:
  const chain::CrossSignRegistry* registry_;
  VerdictOwner owner_;
};

}  // namespace certchain::core
