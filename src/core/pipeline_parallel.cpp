// The StudyPipeline text-ingest driver (DESIGN.md §10).
//
// Raw Zeek log text is split into one line-aligned shard per pool worker —
// one shard, parsed inline, when the pool is null. A header-state scan plus
// a left-to-right combine primes every shard's reader with the exact state a
// whole-stream reader would be in at its boundary; the shards then parse
// into per-shard slots that concatenate in shard order, so records,
// ingestion counters, sample errors (absolute line numbers) and the
// strict-mode failure are identical at every thread count. The readers
// intern nothing: the parsed records run through the records driver
// (pipeline.cpp), whose joiner is the run's one intern point (DESIGN.md
// §16.3).
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

/// Parses one log stream into records and accounts its readers
/// (detail::account_ingest_stream). Strict mode surfaces the first recorded
/// error instead of returning.
template <typename Record>
std::vector<Record> ingest_stream_sharded(
    par::ThreadPool* pool, std::string_view text, const char* stream_name,
    const std::string& expected_fields, const IngestOptions& options,
    obs::RunContext& ctx, IngestStreamStats& stats, IngestReport& report) {
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

  // Phase 2: primed parse into per-shard slots.
  std::vector<std::vector<Record>> shard_records(shards.size());
  std::vector<detail::ReaderTally> tallies(shards.size());
  std::vector<double> wall(shards.size(), 0.0);
  par::parallel_for_chunks(
      pool, shards.size(), shards.size(),
      [&](std::size_t i, std::size_t, std::size_t) {
        obs::Stopwatch watch;
        std::vector<Record>& records = shard_records[i];
        const std::string_view shard = shards[i].text;
        // Reserving from the newline count (a slight overcount: headers)
        // keeps the record vector from doubling through ~2x the needed
        // footprint while rows accumulate — growth reallocation briefly
        // holds old and new buffers.
        records.reserve(static_cast<std::size_t>(
            std::count(shard.begin(), shard.end(), '\n')));
        Reader reader(expected_fields, [&records](Record record) {
          records.push_back(std::move(record));
        });
        reader.prime(entry_in_body[i] != 0, entry_offset[i]);
        const std::size_t chunk = options.feed_chunk_bytes == 0
                                      ? std::max<std::size_t>(1, shard.size())
                                      : options.feed_chunk_bytes;
        for (std::size_t pos = 0; pos < shard.size(); pos += chunk) {
          reader.feed(shard.substr(pos, std::min(chunk, shard.size() - pos)));
        }
        reader.finish();
        tallies[i] = detail::ReaderTally(reader);
        wall[i] = watch.elapsed_ms();
      });

  // Phase 3: deterministic merge in shard order. Shard-order concatenation
  // IS stream order, so records and the error sample match a whole-stream
  // reader's.
  const std::string span_stage = std::string("ingest.") + stream_name;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    attach_shard_span(&ctx, span_stage.c_str(), i, wall[i]);
  }
  std::size_t total_records = 0;
  for (const std::vector<Record>& shard : shard_records) {
    total_records += shard.size();
  }
  std::vector<Record> records = std::move(shard_records[0]);
  records.reserve(total_records);
  for (std::size_t i = 1; i < shard_records.size(); ++i) {
    records.insert(records.end(),
                   std::make_move_iterator(shard_records[i].begin()),
                   std::make_move_iterator(shard_records[i].end()));
  }
  detail::account_ingest_stream(tallies, stream_name, options.mode,
                                ctx.metrics, stats, report);
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

  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;
  {
    obs::StageTimer timer(*ctx, "ingest");
    ssl = ingest_stream_sharded<zeek::SslLogRecord>(
        pool, ssl_log_text, "ssl", zeek::ssl_log_fields(), options, *ctx,
        ingest.ssl, ingest);
    x509 = ingest_stream_sharded<zeek::X509LogRecord>(
        pool, x509_log_text, "x509", zeek::x509_log_fields(), options, *ctx,
        ingest.x509, ingest);
  }
  // The stage triple counts rows that carried (or should have carried) data;
  // header/comment lines are neither admitted nor dropped.
  publish_stage(ctx, "ingest",
                ingest.ssl.records + ingest.x509.records + ingest.skipped_total(),
                ingest.ssl.records + ingest.x509.records,
                ingest.skipped_total());

  StudyReport report = run_records(pool, ssl, x509, obs);
  report.ingest = std::move(ingest);
  return report;
}

}  // namespace certchain::core
