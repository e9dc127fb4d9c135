// Per-category certificate population statistics (extension analysis).
//
// The paper characterizes chains structurally; this analyzer adds the
// certificate-level distributions measurement studies usually report next:
// key algorithms, signature algorithms, validity lifetimes, SAN counts and
// expiry-at-observation — per chain category, over distinct certificates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/run_options.hpp"
#include "util/stats.hpp"

namespace certchain::obs {
struct RunContext;
}  // namespace certchain::obs

namespace certchain::par {
class ThreadPool;
}  // namespace certchain::par

namespace certchain::core {

struct CertPopulationStats {
  std::string label;
  std::size_t distinct_certificates = 0;

  util::Counter<std::string> key_algorithms;
  util::Counter<std::string> signature_algorithms;

  /// Lifetime (days) distribution.
  util::EmpiricalCdf lifetimes_days;
  /// Lifetime buckets the Web PKI cares about.
  std::size_t lifetime_le_90d = 0;
  std::size_t lifetime_le_398d = 0;   // CA/B Forum ceiling for public leaves
  std::size_t lifetime_le_2y = 0;
  std::size_t lifetime_gt_2y = 0;

  util::Counter<std::size_t> san_counts;
  std::size_t san_absent = 0;

  /// Expired at the time the chain was last observed.
  std::size_t expired_when_observed = 0;

  /// Self-signed certificates in the population.
  std::size_t self_signed = 0;
};

/// Computes the statistics over the distinct certificates of the given
/// chains (deduplicated by fingerprint). Chains longer than `max_length`
/// are skipped (the Figure 1 outlier rule). The first-occurrence scans run
/// over one chunk of consecutive chains per `pool` worker (one chunk,
/// inline, when `pool` is null), then a chunk-order pass applies the global
/// fingerprint dedupe and accumulates — so each certificate is attributed to
/// exactly the observation a single scan would pick (expiry-at-observation
/// depends on it), and the output is identical at every worker count.
CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length = 30, par::ThreadPool* pool = nullptr);

/// Uniform `(input, options, obs)` entry (DESIGN.md §11): builds a pool only
/// when options.threads resolves to more than one worker and — when `obs` is
/// given — wraps the scan in a `cert_stats` stage span with chains-in /
/// distinct-certificate counters. Output is identical at every thread count.
CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length, const RunOptions& options,
    obs::RunContext* obs = nullptr);

}  // namespace certchain::core
