// The StudyPipeline text-ingest driver (DESIGN.md §10).
//
// Raw Zeek log text is split into one line-aligned shard per pool worker —
// one shard, parsed inline, when the pool is null. A header-state scan plus
// a left-to-right combine primes every shard's reader with the exact state a
// whole-stream reader would be in at its boundary; the shards then parse
// into per-shard slots that merge in shard order, so records, ingestion
// counters, sample errors (absolute line numbers), DN ids and the
// strict-mode failure are identical at every thread count. The parsed
// records then run through the records driver (pipeline.cpp).
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/pipeline_detail.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "par/shard.hpp"
#include "par/thread_pool.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core {

using detail::attach_shard_span;
using detail::publish_stage;

namespace {

/// Parses one log stream into records, interning DNs into the run's
/// `dn_pool`. Publishes the readers' accounting as `ingest.<stream>.*`
/// registry counters and fills `stats` back FROM those counters — the
/// registry is the single source, so the report's data-quality section and
/// the metrics export cannot disagree. Strict mode surfaces the first
/// recorded error instead of returning.
template <typename Record>
std::vector<Record> ingest_stream_sharded(
    par::ThreadPool* pool, std::string_view text, const char* stream_name,
    const std::string& expected_fields, const IngestOptions& options,
    obs::RunContext& ctx, IngestStreamStats& stats, IngestReport& report,
    DnPool& dn_pool) {
  using Reader = zeek::StreamingLogReader<Record>;
  const std::vector<par::TextShard> shards =
      par::split_line_aligned(text, par::chunk_count(pool));

  // Phase 1: header-state scan of every shard but the last, whose exit state
  // nothing reads, combined left-to-right into each shard's reader entry
  // state (in-body flag + absolute line offset). One shard scans nothing.
  const std::size_t scanned = shards.size() - 1;
  std::vector<zeek::ShardHeaderScan> scans(scanned);
  par::parallel_for_chunks(
      pool, scanned, scanned,
      [&scans, &shards, &expected_fields](std::size_t i, std::size_t,
                                          std::size_t) {
        scans[i] =
            zeek::scan_shard_header_state(shards[i].text, expected_fields);
      });
  std::vector<char> entry_in_body(shards.size(), 0);
  std::vector<std::size_t> entry_offset(shards.size(), 0);
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const zeek::ShardHeaderScan& before = scans[i - 1];
    entry_in_body[i] = before.has_directive ? before.exit_in_body
                                            : entry_in_body[i - 1];
    entry_offset[i] = entry_offset[i - 1] + before.newlines;
  }

  // Phase 2: primed parse into per-shard slots. Shard 0 interns straight into
  // the run pool — the ids it mints are already the ones a whole-stream
  // reader would — while later shards intern into private pools (no sharing,
  // no locks) that the merge below absorbs.
  struct ShardSlot {
    std::vector<Record> records;
    obs::MetricsRegistry metrics;
    std::vector<typename Reader::LineError> errors;
    std::size_t lines_skipped = 0;
    double wall_ms = 0.0;
    DnPool dn_pool;
  };
  std::vector<ShardSlot> slots(shards.size());
  const std::string prefix = std::string("ingest.") + stream_name + ".";
  par::parallel_for_chunks(
      pool, shards.size(), shards.size(),
      [&](std::size_t i, std::size_t, std::size_t) {
        obs::Stopwatch watch;
        ShardSlot& slot = slots[i];
        const std::string_view shard = shards[i].text;
        // Reserving from the newline count (a slight overcount: headers)
        // keeps the record vector from doubling through ~2x the needed
        // footprint while rows accumulate — growth reallocation briefly
        // holds old and new buffers.
        slot.records.reserve(static_cast<std::size_t>(
            std::count(shard.begin(), shard.end(), '\n')));
        Reader reader(expected_fields, [&slot](Record record) {
          slot.records.push_back(std::move(record));
        });
        reader.set_dn_pool(i == 0 ? &dn_pool : &slot.dn_pool);
        reader.prime(entry_in_body[i] != 0, entry_offset[i]);
        const std::size_t chunk = options.feed_chunk_bytes == 0
                                      ? std::max<std::size_t>(1, shard.size())
                                      : options.feed_chunk_bytes;
        for (std::size_t pos = 0; pos < shard.size(); pos += chunk) {
          reader.feed(shard.substr(pos, std::min(chunk, shard.size() - pos)));
        }
        reader.finish();
        slot.metrics.count(prefix + "bytes_consumed", reader.bytes_consumed());
        slot.metrics.count(prefix + "lines", reader.lines_seen());
        slot.metrics.count(prefix + "records", reader.records_emitted());
        slot.metrics.count(prefix + "rows_malformed", reader.malformed_rows());
        slot.metrics.count(prefix + "lines_skipped", reader.lines_skipped());
        slot.metrics.count(prefix + "rotations", reader.rotations_seen());
        slot.errors = reader.errors();
        slot.lines_skipped = reader.lines_skipped();
        slot.wall_ms = watch.elapsed_ms();
      });

  // Phase 3: deterministic merge in shard order; stats are read back from
  // the registry.
  const auto counter_at = [&ctx, &prefix](const char* leaf) {
    return ctx.metrics.counter(prefix + leaf);
  };
  const std::uint64_t bytes_before = counter_at("bytes_consumed");
  const std::uint64_t lines_before = counter_at("lines");
  const std::uint64_t records_before = counter_at("records");
  const std::uint64_t malformed_before = counter_at("rows_malformed");
  const std::uint64_t skipped_before = counter_at("lines_skipped");
  const std::uint64_t rotations_before = counter_at("rotations");

  const std::string span_stage = std::string("ingest.") + stream_name;
  std::size_t total_skipped = 0;
  std::size_t total_records = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ctx.metrics.merge_from(slots[i].metrics);
    attach_shard_span(&ctx, span_stage.c_str(), i, slots[i].wall_ms);
    total_skipped += slots[i].lines_skipped;
    total_records += slots[i].records.size();
  }

  // Records: shard 0's vector moves in; later shards run the id-remap merge
  // protocol (DESIGN.md §16) — absorb the shard pool in shard order and
  // rewrite the shard-local ids. Because each shard's ids follow
  // first-occurrence order within the shard, this reproduces exactly the ids
  // a whole-stream reader would have minted.
  std::vector<Record> records = std::move(slots[0].records);
  records.reserve(total_records);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    ShardSlot& slot = slots[i];
    const std::vector<DnId> id_map = dn_pool.absorb(slot.dn_pool);
    for (Record& record : slot.records) zeek::remap_dn_ids(record, id_map);
    records.insert(records.end(), std::make_move_iterator(slot.records.begin()),
                   std::make_move_iterator(slot.records.end()));
  }

  stats.bytes = counter_at("bytes_consumed") - bytes_before;
  stats.lines = counter_at("lines") - lines_before;
  stats.records = counter_at("records") - records_before;
  stats.malformed_rows = counter_at("rows_malformed") - malformed_before;
  stats.skipped_lines = counter_at("lines_skipped") - skipped_before;
  stats.rotations = counter_at("rotations") - rotations_before;

  // Shard-order concatenation of the per-shard error samples IS stream
  // order, so the first kMaxSampleErrors (and the strict-mode first error)
  // match a whole-stream reader's.
  for (const ShardSlot& slot : slots) {
    for (const auto& error : slot.errors) {
      if (report.sample_errors.size() >= IngestReport::kMaxSampleErrors) break;
      report.sample_errors.push_back(std::string(stream_name) + " line " +
                                     std::to_string(error.line_number) + ": " +
                                     error.message);
    }
  }
  if (options.mode == IngestMode::kStrict && total_skipped > 0) {
    for (const ShardSlot& slot : slots) {
      if (slot.errors.empty()) continue;
      const auto& first = slot.errors.front();
      throw IngestError(std::string(stream_name) + " log line " +
                        std::to_string(first.line_number) + ": " +
                        first.message);
    }
  }
  return records;
}

}  // namespace

StudyReport StudyPipeline::run_text(par::ThreadPool* pool,
                                    std::string_view ssl_log_text,
                                    std::string_view x509_log_text,
                                    const IngestOptions& options,
                                    obs::RunContext* obs) const {
  // Ingestion accounting always flows through a registry; without an
  // injected context a run-local one keeps the single-source guarantee.
  obs::RunContext local;
  obs::RunContext* ctx = obs != nullptr ? obs : &local;

  IngestReport ingest;
  ingest.populated = true;
  ingest.mode = options.mode;

  // One pool for the whole run, filled ssl stream first, then x509: the ids
  // match what one reader over the two streams in that order mints. The
  // joiner reuses the same pool's raw-bytes memo, and the analysis stages
  // compare its ids.
  DnPool dn_pool;
  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;
  {
    obs::StageTimer timer(*ctx, "ingest");
    ssl = ingest_stream_sharded<zeek::SslLogRecord>(
        pool, ssl_log_text, "ssl", zeek::ssl_log_fields(), options, *ctx,
        ingest.ssl, ingest, dn_pool);
    x509 = ingest_stream_sharded<zeek::X509LogRecord>(
        pool, x509_log_text, "x509", zeek::x509_log_fields(), options, *ctx,
        ingest.x509, ingest, dn_pool);
  }
  // The stage triple counts rows that carried (or should have carried) data;
  // header/comment lines are neither admitted nor dropped.
  publish_stage(ctx, "ingest",
                ingest.ssl.records + ingest.x509.records + ingest.skipped_total(),
                ingest.ssl.records + ingest.x509.records,
                ingest.skipped_total());

  StudyReport report = run_records(pool, ssl, x509, obs, &dn_pool);
  report.ingest = std::move(ingest);
  return report;
}

}  // namespace certchain::core
