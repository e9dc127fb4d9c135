// Internal helpers of the StudyPipeline execution path (pipeline.cpp,
// pipeline_parallel.cpp, pipeline_stream.cpp).
//
// The differential guarantee — every thread count and every input kind
// produce byte-identical reports and identical deterministic counters — is
// cheap to uphold because all of them flow through the same code here: the
// per-chain categorization fold, and every counter-publishing block. Not part
// of the public API.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/run_context.hpp"

namespace certchain::core::detail {

/// Opens a StageTimer only when telemetry is attached.
std::optional<obs::StageTimer> stage_timer(obs::RunContext* obs,
                                           const char* name);

/// Attaches a worker-measured chunk span (`<stage>.shard<chunk>`) under the
/// currently open stage span. Coordinator thread only; the Trace is not
/// thread-safe. A no-op without obs.
void attach_shard_span(obs::RunContext* obs, const char* stage,
                       std::size_t chunk, double wall_ms);

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
  std::map<chain::ChainCategory, std::set<std::string>> clients_by_category;
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
