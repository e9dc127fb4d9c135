// The live corpus behind certchain_serve (DESIGN.md §12.3, durability §13,
// lock-free reads §15).
//
// ServiceState keeps everything a query needs warm between requests and
// serves it RCU-style: the entire read-side world — the analyzed StudyReport,
// the interception issuer set the chain categorizer consumes, the corpus
// totals and the generation stamp — lives in one immutable AnalysisSnapshot
// published through an atomic shared_ptr. Readers grab the current snapshot
// with a single atomic load and answer from it with **zero locks**; a reader
// that is mid-request keeps its snapshot alive (and byte-stable) no matter
// how many newer generations the writer publishes, and the snapshot is freed
// the instant its last reader drops it. `svc.snapshot.published` counts
// publications and the `svc.snapshot.live` gauge tracks how many generations
// are currently pinned (1 = only the current one).
//
// Writes stay serialized: ingest_append takes the writer mutex, folds the
// new rows through the same LogJoiner/CorpusIndex machinery the batch
// pipeline uses into writer-private state, re-analyzes eagerly, then builds
// the next snapshot off to the side and publishes it with one atomic store —
// so every answer reflects a complete, consistent analysis generation, never
// a half-updated one. Readers never wait for the (expensive) re-analysis.
//
// Durability (opt-in via recover_and_arm): every append is committed to a
// write-ahead log before the fold, a snapshot compacts the log every N
// appends, and a restarted daemon replays snapshot + WAL tail back to a
// state whose report is byte-identical to a never-crashed run. Appends may
// carry an idempotency key; a key seen before (in memory, or replayed from
// the WAL after a crash) short-circuits to the original result, so client
// retries fold exactly once. The WAL-commit-before-fold order is unchanged:
// the new analysis generation is published only after the WAL commit.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/categorizer.hpp"
#include "chain/linter.hpp"
#include "chain/matcher.hpp"
#include "core/dn_pool.hpp"
#include "core/epoch_delta.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "ct/monitor.hpp"
#include "svc/telemetry.hpp"
#include "svc/wal.hpp"

namespace certchain::svc {

/// What categorize_chain answers for one submitted chain: the §3.2.2
/// category, the matched-path verdict, the hybrid classification when the
/// category warrants one, and the lint findings.
struct ChainVerdict {
  chain::ChainCategory category = chain::ChainCategory::kNonPublicDbOnly;
  chain::PathAnalysis paths;
  std::optional<chain::HybridClassification> hybrid;
  chain::LintReport lints;
  std::uint64_t generation = 0;  // corpus generation that answered
};

/// Accounting for one ingest_append call.
struct AppendResult {
  std::size_t ssl_added = 0;
  std::size_t x509_added = 0;
  std::size_t ssl_malformed = 0;
  std::size_t x509_malformed = 0;
  std::uint64_t generation = 0;     // generation after the fold
  std::size_t unique_chains = 0;    // corpus state after the fold
  std::uint64_t connections = 0;
  bool duplicate = false;           // idempotency key seen before; not re-folded
  std::uint64_t wal_seq = 0;        // 0 when the state is not durable
};

/// Durability configuration for recover_and_arm.
struct DurabilityOptions {
  std::string wal_path;
  /// Compact (snapshot + WAL reset) after this many appends; 0 = never.
  std::size_t snapshot_every = 0;
  /// Bound on the idempotency ledger: only the most recent N applied keys
  /// are remembered, evicted FIFO in commit order (0 = unbounded). Keeps
  /// ledger memory and snapshot size from growing with the daemon's
  /// lifetime; the trade-off is that a retry arriving after more than N
  /// newer keyed appends re-folds — pick N well above any client's retry
  /// horizon.
  std::size_t applied_ledger_max = 65536;
};

/// What a recovery pass found, for operator logs and telemetry.
struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t wal_records_seen = 0;     // intact records in the WAL
  std::uint64_t wal_records_applied = 0;  // folded during replay
  std::uint64_t wal_records_skipped = 0;  // <= snapshot seq or duplicate key
  std::uint64_t torn_bytes = 0;           // damaged tail truncated from the WAL
  std::uint64_t generation = 0;           // generation after recovery
};

/// One immutable, fully analyzed view of the corpus. Everything a read-only
/// request needs lives here, so a single atomic shared_ptr load yields a
/// self-consistent answer set: the report text, the interception issuer set,
/// the generation stamp, and the corpus counters all belong to the same
/// analysis pass. Snapshots are never mutated after publication — a reader
/// holding one can render from it for as long as it likes while newer
/// generations come and go.
struct AnalysisSnapshot {
  /// Shared, not copied, by a republication that leaves the corpus alone
  /// (record_fleet_epoch).
  std::shared_ptr<const core::StudyReport> report;
  chain::InterceptionIssuerSet interception_issuers;
  std::uint64_t generation = 0;
  std::size_t unique_chains = 0;
  core::CorpusTotals totals;
  /// Completed fleet epochs (index order). The fleet_status / epoch_delta
  /// endpoints and the "fleet" report section answer from this list, so a
  /// reader sees epochs and corpus state from the same publication.
  std::vector<core::EpochSummary> fleet_epochs;
};

class ServiceState {
 public:
  using SnapshotPtr = std::shared_ptr<const AnalysisSnapshot>;

  /// The referenced databases must outlive the state (same contract as
  /// StudyPipeline's).
  ServiceState(const truststore::TrustStoreSet& stores,
               const ct::CtLogSet& ct_logs, const core::VendorDirectory& vendors,
               const chain::CrossSignRegistry* registry = nullptr);
  ~ServiceState();

  /// Loads the initial corpus from parsed records, replacing any previous
  /// state, runs the first analysis, and publishes generation 0.
  void load(const std::vector<zeek::SslLogRecord>& ssl,
            const std::vector<zeek::X509LogRecord>& x509);

  /// Arms durability: restores any snapshot at snapshot_path_for(wal_path),
  /// replays the WAL tail (preserving original batch boundaries, skipping
  /// records the snapshot already absorbed and idempotency keys already
  /// applied), truncates the torn tail, and opens the WAL for appending.
  /// Call after load() and before serving. On failure the state is not
  /// durable and may hold a partially restored corpus — refuse to serve, or
  /// load() again and serve without durability.
  bool recover_and_arm(const DurabilityOptions& options, RecoveryStats* stats,
                       std::string* error);

  /// The current analysis snapshot: one atomic load, no lock. Hold the
  /// returned pointer for the duration of one request so every value you
  /// read belongs to the same generation; drop it promptly so superseded
  /// generations can be freed.
  SnapshotPtr acquire_snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// §3.2.1 issuer classification. The databases are immutable, so this
  /// needs no snapshot at all.
  truststore::IssuerClass classify_issuer(
      const x509::DistinguishedName& issuer) const;

  /// Categorizes a submitted chain exactly the way the batch pipeline
  /// categorizes corpus chains — same categorize_chain call against the
  /// live interception issuer set — plus the matched-path analysis, hybrid
  /// classification and lints. Lock-free: answers from one snapshot.
  ChainVerdict categorize_chain(const chain::CertificateChain& chain) const;

  /// Renders the selected report sections from the warm StudyReport.
  /// Lock-free; byte-identical to rendering a batch run over the same
  /// folded records. (Callers that also need the generation should
  /// acquire_snapshot() once and read both from it.)
  std::string report_section(const core::ReportTextOptions& options) const;

  /// Parses raw Zeek TSV body rows and folds them into the live corpus.
  /// Damaged rows are counted and skipped (the live fold is always lenient:
  /// a server must not die on one bad row). X509 rows are indexed before the
  /// SSL rows join, so an append can introduce a chain and its
  /// connections together; SSL rows referencing fuids never seen remain
  /// incomplete joins, exactly as in batch. Takes the writer mutex, folds
  /// and re-analyzes off to the side, then publishes the new snapshot with
  /// one atomic store — concurrent readers are never blocked and never see
  /// a half-updated corpus.
  ///
  /// When durability is armed the batch is committed to the WAL before the
  /// fold; a WAL write failure throws std::runtime_error with nothing folded
  /// (the client sees a typed error and may retry). A non-empty
  /// idempotency_key that was applied before returns the original result
  /// with duplicate=true and folds nothing.
  AppendResult ingest_append(const std::vector<std::string>& ssl_rows,
                             const std::vector<std::string>& x509_rows,
                             const std::string& idempotency_key = "");

  /// Registers one completed fleet epoch and republishes the snapshot (no
  /// re-analysis: the corpus is unchanged — typically the epoch's rows were
  /// just folded via ingest_append). Idempotent by epoch index: re-feeding
  /// an epoch (client retry, post-recovery re-run) replaces its summary.
  /// The epoch registry is in-memory only; after a crash the fleet re-feeds
  /// it alongside its idempotent row appends (DESIGN.md §17.3).
  void record_fleet_epoch(core::EpochSummary summary);

  // --- snapshot accessors (each one atomic load, no lock) -----------------
  std::uint64_t generation() const { return acquire_snapshot()->generation; }
  std::size_t unique_chains() const {
    return acquire_snapshot()->unique_chains;
  }
  core::CorpusTotals totals() const { return acquire_snapshot()->totals; }
  bool durable() const { return durable_; }

  // --- snapshot lifecycle observability (DESIGN.md §15.2) -----------------

  /// Mirrors snapshot lifecycle events into `telemetry`: the
  /// `svc.snapshot.published` counter and the `svc.snapshot.live` gauge
  /// (updated on every publication and every release, including releases on
  /// reader threads). Pass nullptr to detach; the caller must detach before
  /// the telemetry object is destroyed. The server attaches on start() and
  /// detaches when its teardown completes.
  void attach_telemetry(SyncTelemetry* telemetry);

  /// How many analysis generations are currently alive (the published one
  /// plus any pinned by in-flight readers). Test observability.
  std::int64_t live_snapshots() const;
  /// How many snapshots have ever been published (load + every append).
  std::uint64_t snapshots_published() const;

  // --- CT subsystem (DESIGN.md §14.5) -------------------------------------
  // The CtLogSet is immutable while serving (issuance happened at world
  // build time), so these need no corpus snapshot; the monitor carries its
  // own mutex for the background poll thread.

  /// Current signed tree heads of every known log, in log order.
  std::vector<std::pair<std::string, ct::TreeHead>> ct_sths() const;

  /// Inclusion proof for a logged certificate fingerprint. Searches the
  /// named log (by id) or, with an empty log_id, every log in order.
  /// nullopt when no log holds the fingerprint — the handler answers
  /// NOT_FOUND.
  struct CtInclusionAnswer {
    std::string log_id;
    std::size_t index = 0;
    std::size_t tree_size = 0;
    ct::Digest256 root;
    std::vector<ct::Digest256> proof;
  };
  std::optional<CtInclusionAnswer> ct_prove_inclusion(
      std::string_view fingerprint, std::string_view log_id = {}) const;

  /// Arms the continuous monitor over every log in the set. Idempotent;
  /// returns the monitor for the caller's poll loop.
  ct::Monitor& arm_ct_monitor(const ct::MonitorConfig& config = {},
                              obs::MetricsRegistry* metrics = nullptr);
  /// The armed monitor, or nullptr before arm_ct_monitor.
  ct::Monitor* ct_monitor() { return ct_monitor_.get(); }
  const ct::Monitor* ct_monitor() const { return ct_monitor_.get(); }

 private:
  /// Counts live/published snapshots and mirrors them into the attached
  /// telemetry. Shared by the state and every snapshot's deleter, so a
  /// release on a reader thread (after the state moved on, or even after it
  /// died) still lands: the control block outlives both.
  struct SnapshotTracker {
    std::atomic<std::int64_t> live{0};
    std::atomic<std::uint64_t> published{0};
    std::mutex mutex;                    // guards telemetry (attach/detach)
    SyncTelemetry* telemetry = nullptr;  // nullptr = detached

    void on_publish();
    void on_release();
  };

  /// Builds the analyzed snapshot of the current writer-side corpus and
  /// publishes it (single atomic store). Caller holds writer_mutex_.
  void publish_analysis_locked();
  /// Parses + folds one batch under the writer mutex (shared by live
  /// appends and WAL replay, so both produce identical corpus states).
  /// `publish` defers the re-analysis + publication during replay, where
  /// one pass at the end suffices.
  AppendResult fold_batch_locked(const std::vector<std::string>& ssl_rows,
                                 const std::vector<std::string>& x509_rows,
                                 bool publish);
  /// Writes the compaction snapshot and resets the WAL. Best-effort: a
  /// failed compaction leaves the WAL intact, so recovery still works — it
  /// just replays more.
  void maybe_compact_locked();
  /// Records one applied keyed append in the idempotency ledger, evicting
  /// the oldest entries past applied_ledger_max_ (FIFO: applied_order_
  /// carries the keys in commit order).
  void remember_applied_locked(AppliedAppend applied);

  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const chain::CrossSignRegistry* registry_;
  core::StudyPipeline pipeline_;
  std::unique_ptr<ct::Monitor> ct_monitor_;

  // --- read side: the published snapshot ----------------------------------
  std::atomic<SnapshotPtr> snapshot_;
  std::shared_ptr<SnapshotTracker> tracker_;

  // --- write side (all guarded by writer_mutex_) ---------------------------
  mutable std::mutex writer_mutex_;
  /// The service's DN interning pool (DESIGN.md §16). Declared before
  /// joiner_ so it outlives it; every certificate the joiner builds across
  /// appends carries this pool's ids, and re-analysis classifies issuers by
  /// id. load() resets the corpus but keeps the pool — ids stay stable for
  /// the life of the state, stale entries are just idle memory.
  core::DnPool dn_pool_;
  zeek::LogJoiner joiner_;          // grows across appends
  core::CorpusIndex corpus_;
  std::uint64_t generation_ = 0;    // bumps on every successful append
  std::vector<core::EpochSummary> fleet_epochs_;  // writer-side epoch registry

  // --- durability (guarded by writer_mutex_ once serving starts) -----------
  WriteAheadLog wal_;
  bool durable_ = false;
  std::size_t snapshot_every_ = 0;
  std::size_t appends_since_snapshot_ = 0;
  /// Raw X509 rows since load() whose fuid was new to the joiner when they
  /// folded — the minimal set that rebuilds the joiner on snapshot restore
  /// (LogJoiner::add is first-observation-wins, so a re-observed fuid
  /// contributes nothing a replay could miss).
  std::vector<std::string> appended_x509_rows_;
  std::map<std::string, AppliedAppend> applied_; // idempotency ledger
  std::deque<std::string> applied_order_;        // ledger keys, commit order
  std::size_t applied_ledger_max_ = 0;
};

}  // namespace certchain::svc
