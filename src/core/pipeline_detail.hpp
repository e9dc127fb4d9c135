// Internal helpers of the StudyPipeline execution path (pipeline.cpp,
// pipeline_parallel.cpp, pipeline_stream.cpp).
//
// The differential guarantee — every thread count and every input kind
// produce byte-identical reports and identical deterministic counters — is
// cheap to uphold because all of them flow through the same code here: the
// reader accounting of both ingest engines, the per-chain categorization
// fold, and every counter-publishing block. Not part of the public API.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/run_context.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core::detail {

/// Opens a StageTimer only when telemetry is attached.
std::optional<obs::StageTimer> stage_timer(obs::RunContext* obs,
                                           const char* name);

/// Attaches a worker-measured chunk span (`<stage>.shard<chunk>`) under the
/// currently open stage span. Coordinator thread only; the Trace is not
/// thread-safe. A no-op without obs.
void attach_shard_span(obs::RunContext* obs, const char* stage,
                       std::size_t chunk, double wall_ms);

/// One reader's accounting after finish(): the six `ingest.<stream>.*`
/// counters and its capped sample of line errors. The text ingest keeps one
/// per shard, the streaming engine one per stream.
struct ReaderTally {
  std::uint64_t bytes_consumed = 0;
  std::uint64_t lines = 0;
  std::uint64_t records = 0;
  std::uint64_t rows_malformed = 0;
  std::uint64_t lines_skipped = 0;
  std::uint64_t rotations = 0;
  std::vector<zeek::ReaderLineError> errors;

  ReaderTally() = default;
  template <typename Reader>
  explicit ReaderTally(const Reader& reader)
      : bytes_consumed(reader.bytes_consumed()),
        lines(reader.lines_seen()),
        records(reader.records_emitted()),
        rows_malformed(reader.malformed_rows()),
        lines_skipped(reader.lines_skipped()),
        rotations(reader.rotations_seen()),
        errors(reader.errors()) {}
};

/// Accounts one ingested stream from its readers' tallies, given in stream
/// order (shard order for the text ingest). Publishes the
/// `ingest.<stream>.*` counters and fills `stats` back FROM the registry —
/// the single source, so the report's data-quality section and the metrics
/// export cannot disagree. Appends the errors to the capped sample; in
/// strict mode raises IngestError carrying the stream's first error.
void account_ingest_stream(const std::vector<ReaderTally>& tallies,
                           const char* stream_name, IngestMode mode,
                           obs::MetricsRegistry& metrics,
                           IngestStreamStats& stats, IngestReport& report);

/// Publishes the reserved manifest triple for one stage.
void publish_stage(obs::RunContext* obs, const char* stage, std::uint64_t in,
                   std::uint64_t admitted, std::uint64_t dropped);

/// The per-category slice view stage 2 hands to the structure/graph stages.
using CategorySlices =
    std::map<chain::ChainCategory, std::vector<const ChainObservation*>>;

/// Stage-2 accumulator: the per-chain categorization fold, one per chunk,
/// merged in chunk order. Chains must be added in corpus iteration order
/// within a fold; merging folds of consecutive corpus ranges in range order
/// then reproduces the whole-corpus fold exactly — including the order of
/// slice vectors, Figure 1 length series and excluded outliers.
struct CategorizeFold {
  CategorySlices slices;
  std::map<chain::ChainCategory, CategoryUsage> categories;
  std::map<chain::ChainCategory, DistinctIds> clients_by_category;
  std::map<chain::ChainCategory, std::vector<std::size_t>> chain_lengths;
  std::vector<ExcludedOutlier> excluded_outliers;
  util::Counter<std::uint16_t> ports_hybrid;

  /// Folds one categorized chain in (the body of the stage-2 chunk loop).
  void add(const ChainObservation& observation, chain::ChainCategory category);

  /// Appends another fold; call in chunk order.
  void merge_from(CategorizeFold&& other);

  /// Moves everything except `slices` into the report and resolves the
  /// per-category distinct-client counts.
  void finish(StudyReport& report);
};

// Per-stage counter publication, always computed from the (merged) report so
// runs at different thread counts cannot disagree. Each is a no-op without
// obs.
void publish_join_counters(obs::RunContext* obs, const StudyReport& report);
void publish_enrich_counters(obs::RunContext* obs, const StudyReport& report);
void publish_categorize_counters(obs::RunContext* obs, const StudyReport& report);
void publish_structure_counters(obs::RunContext* obs,
                                const CategorySlices& slices);
void publish_graph_counters(obs::RunContext* obs, const StudyReport& report);
void publish_ct_compliance_counters(obs::RunContext* obs,
                                    const StudyReport& report);

/// Records-in count for the structure/graphs stages: the three analyzed
/// category slices.
std::uint64_t structure_in_count(const CategorySlices& slices);

}  // namespace certchain::core::detail
