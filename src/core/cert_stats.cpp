#include "core/cert_stats.hpp"

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/run_context.hpp"
#include "par/thread_pool.hpp"

namespace certchain::core {

namespace {

/// Folds one distinct certificate into the statistics. `last_seen` is the
/// last-seen time of the observation that introduced the certificate —
/// whole-range scan order decides which observation that is, and the chunked
/// scan reproduces that choice exactly.
void accumulate_certificate(CertPopulationStats& stats,
                            const x509::Certificate& cert,
                            util::SimTime last_seen) {
  ++stats.distinct_certificates;

  stats.key_algorithms.add(
      std::string(crypto::key_algorithm_name(cert.public_key.algorithm)));
  stats.signature_algorithms.add(
      std::string(crypto::signature_algorithm_name(cert.signature.algorithm)));

  const double days = static_cast<double>(cert.validity.duration()) /
                      static_cast<double>(util::kSecondsPerDay);
  stats.lifetimes_days.add(days);
  if (days <= 90) {
    ++stats.lifetime_le_90d;
  } else if (days <= 398) {
    ++stats.lifetime_le_398d;
  } else if (days <= 731) {
    ++stats.lifetime_le_2y;
  } else {
    ++stats.lifetime_gt_2y;
  }

  if (cert.subject_alt_names.empty()) {
    ++stats.san_absent;
  } else {
    stats.san_counts.add(cert.subject_alt_names.size());
  }

  if (cert.expired_at(last_seen)) ++stats.expired_when_observed;
  if (cert.is_self_signed()) ++stats.self_signed;
}

}  // namespace

CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length, par::ThreadPool* pool) {
  // Each chunk scans a consecutive chain range and keeps the first occurrence
  // of every fingerprint it sees, in scan order. The fingerprint hashing —
  // the expensive part — happens here.
  struct Candidate {
    const std::string* fingerprint = nullptr;  // node of the chunk's `seen`
    const x509::Certificate* cert = nullptr;
    util::SimTime last_seen = 0;
  };
  struct ChunkScan {
    std::set<std::string> seen;
    std::vector<Candidate> candidates;
  };
  const std::size_t chunks = par::chunk_count(pool);
  std::vector<ChunkScan> scans(chunks);
  par::parallel_for_chunks(
      pool, chains.size(), chunks,
      [&scans, &chains, max_length](std::size_t chunk, std::size_t begin,
                                    std::size_t end) {
        ChunkScan& scan = scans[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const ChainObservation* observation = chains[i];
          if (observation->chain.length() > max_length) continue;
          for (const x509::Certificate& cert : observation->chain) {
            const auto [it, inserted] = scan.seen.insert(cert.fingerprint());
            if (!inserted) continue;
            scan.candidates.push_back(
                Candidate{&*it, &cert, observation->last_seen});
          }
        }
      });

  // Global dedupe + accumulation in chunk order, which visits first
  // occurrences in exactly whole-range scan order. Chunk 0's first
  // occurrences are global ones, so its set seeds the global one; later
  // chunks' candidates count only when new.
  CertPopulationStats stats;
  stats.label = std::move(label);
  std::set<std::string> seen = std::move(scans[0].seen);
  for (const Candidate& candidate : scans[0].candidates) {
    accumulate_certificate(stats, *candidate.cert, candidate.last_seen);
  }
  for (std::size_t i = 1; i < chunks; ++i) {
    for (const Candidate& candidate : scans[i].candidates) {
      if (!seen.insert(*candidate.fingerprint).second) continue;
      accumulate_certificate(stats, *candidate.cert, candidate.last_seen);
    }
  }
  return stats;
}

CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length, const RunOptions& options, obs::RunContext* obs) {
  std::optional<obs::StageTimer> timer;
  if (obs != nullptr) timer.emplace(*obs, "cert_stats");

  const std::unique_ptr<par::ThreadPool> pool = par::make_pool(options.threads);
  CertPopulationStats stats =
      compute_cert_stats(std::move(label), chains, max_length, pool.get());
  if (obs != nullptr) {
    obs->metrics.count("cert_stats.chains_in", chains.size());
    obs->metrics.count("cert_stats.distinct_certificates",
                       stats.distinct_certificates);
  }
  return stats;
}

}  // namespace certchain::core
