// The bounded-memory streaming StudyPipeline path (DESIGN.md §11).
//
// The in-memory paths hold every parsed record (and, for text, the whole log
// body) resident at once; at campus scale that is tens of GB for what is
// ultimately a small deduplicated corpus. This engine consumes LogSources in
// fixed-size chunks instead:
//
//   Phase A — X509: streamed fully into parsed records. X509.log carries one
//   row per distinct delivered certificate, so this phase's residency is
//   bounded by the corpus's certificate population, not by traffic volume.
//   A running FNV-1a digest fingerprints the stream for checkpoint resume.
//
//   Phase B — SSL: the dominant stream (one row per connection) is read
//   chunk by chunk, and each record is joined and folded straight into the
//   run corpus as the reader emits it — the fold a whole-stream pass makes,
//   so chunk boundaries leave no trace in the corpus. Peak residency is
//   O(chunk_bytes) + the deduplicated corpus + the joiner index, never
//   O(total SSL bytes).
//
// The readers intern nothing; the joiner is the run's one intern point
// (DESIGN.md §16.3), and both streams are accounted by the same helper as
// the text ingest (detail::account_ingest_stream).
//
// After every SSL chunk the complete fold state is checkpointable
// (stream_checkpoint.hpp); a killed run re-ingests the small X509 stream,
// validates both stream digests, seeks past the folded SSL prefix and
// continues — producing the byte-identical report an uninterrupted run
// yields. Streamed runs add `stream.*` counters and the `mem.peak_rss_bytes`
// gauge on top of the in-memory paths' metrics; everything else (report text,
// counters, histograms, manifest stage accounting) is identical at every
// chunk size, which tests/test_streaming.cpp asserts.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/pipeline_detail.hpp"
#include "core/stream_checkpoint.hpp"
#include "obs/resource.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "util/hash.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core {

using detail::publish_stage;
using detail::stage_timer;

namespace {

/// Re-reads the already-folded SSL prefix and checks its running digest
/// against the checkpoint. On success the source is positioned exactly at
/// `offset`, ready for the next chunk; memory stays O(chunk). Returns false
/// (source position unspecified) on seek failure, premature EOF or mismatch.
bool verify_ssl_prefix(LogSource& source, std::uint64_t offset,
                       std::uint64_t expected_state, std::size_t chunk_bytes,
                       std::string& buffer) {
  if (!source.seek(0)) return false;
  std::uint64_t state = util::fnv1a64({});
  std::uint64_t remaining = offset;
  while (remaining > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_bytes, remaining));
    const std::size_t got = source.read(buffer, want);
    if (got == 0) return false;
    state = util::fnv1a64_continue(state, buffer);
    remaining -= got;
  }
  return state == expected_state;
}

}  // namespace

StudyReport StudyPipeline::run_streaming(par::ThreadPool* pool,
                                         LogSource& ssl_source,
                                         LogSource& x509_source,
                                         const RunOptions& options,
                                         obs::RunContext* obs) const {
  obs::RunContext local;
  obs::RunContext* ctx = obs != nullptr ? obs : &local;
  const std::size_t chunk_bytes = options.chunk_bytes == 0
                                      ? RunOptions::kDefaultChunkBytes
                                      : options.chunk_bytes;
  if (obs != nullptr) {
    obs->set_config("stream.ssl_source", ssl_source.name());
    obs->set_config("stream.x509_source", x509_source.name());
    obs->set_config("stream.chunk_bytes",
                    static_cast<std::uint64_t>(chunk_bytes));
  }

  IngestReport ingest;
  ingest.populated = true;
  ingest.mode = options.ingest.mode;

  // The run's DnPool, filled by the joiner alone. Its residency is bounded
  // by the distinct-DN population, far below the certificate index this
  // engine already keeps.
  DnPool dn_pool;
  CorpusIndex corpus;
  std::string buffer;
  {
    obs::StageTimer timer(*ctx, "ingest");

    // Phase A: stream X509 fully; residency ~ distinct certificates.
    std::vector<zeek::X509LogRecord> x509_records;
    auto x509_reader = zeek::make_streaming_x509_reader(
        [&x509_records](zeek::X509LogRecord record) {
          x509_records.push_back(std::move(record));
        });
    std::uint64_t x509_digest = util::fnv1a64({});
    {
      std::uint64_t chunk_index = 0;
      while (true) {
        obs::Stopwatch watch;
        const std::size_t got = x509_source.read(buffer, chunk_bytes);
        if (got == 0) break;
        x509_digest = util::fnv1a64_continue(x509_digest, buffer);
        x509_reader.feed(buffer);
        ctx->metrics.count("stream.chunk.x509");
        ctx->metrics.count("stream.chunk.x509_bytes", got);
        ctx->trace.attach_closed(
            "ingest.x509.chunk" + std::to_string(chunk_index++),
            watch.elapsed_ms());
      }
      x509_reader.finish();
    }

    // Phase B: join index, then the SSL chunk fold. The "join" span covers
    // the index build; the per-record joins happen inside the chunk fold
    // below (the span also keeps the manifest's stage order identical to the
    // in-memory paths, where join is a standalone stage).
    std::optional<zeek::LogJoiner> joiner_storage;
    {
      obs::StageTimer join_timer(*ctx, "join");
      joiner_storage.emplace();
      joiner_storage->set_dn_pool(&dn_pool);
      for (const zeek::X509LogRecord& record : x509_records) {
        joiner_storage->add(record);
      }
    }
    const zeek::LogJoiner& joiner = *joiner_storage;
    x509_records.clear();
    x509_records.shrink_to_fit();

    auto ssl_reader = zeek::make_streaming_ssl_reader(
        [&joiner, &corpus](zeek::SslLogRecord record) {
          corpus.add(joiner, record);
        });

    std::uint64_t ssl_digest = util::fnv1a64({});
    std::uint64_t ssl_offset = 0;
    std::uint64_t chunks_done = 0;

    // Resume: a checkpoint is accepted only when its mode matches, the
    // re-ingested X509 stream digests to the recorded value, and re-reading
    // the SSL prefix reproduces the recorded running digest (the re-read
    // leaves the source positioned at the resume offset).
    if (!options.checkpoint_path.empty()) {
      if (const std::optional<std::string> text =
              read_file_text(options.checkpoint_path)) {
        std::map<std::string, x509::Certificate> by_fingerprint;
        for (const auto& [fuid, cert] : joiner.certificates()) {
          by_fingerprint.emplace(cert.fingerprint(), cert);
        }
        std::string error;
        const std::optional<StreamCheckpoint> checkpoint =
            decode_stream_checkpoint(*text, by_fingerprint, corpus, &error);
        bool resumed = false;
        if (checkpoint && checkpoint->mode == options.ingest.mode &&
            checkpoint->x509_digest == x509_digest &&
            verify_ssl_prefix(ssl_source, checkpoint->ssl_offset,
                              checkpoint->ssl_digest_state, chunk_bytes,
                              buffer)) {
          ssl_reader.restore(checkpoint->ssl_reader);
          ssl_digest = checkpoint->ssl_digest_state;
          ssl_offset = checkpoint->ssl_offset;
          chunks_done = checkpoint->chunks_done;
          resumed = true;
          ctx->metrics.count("stream.resume.loaded");
        }
        if (!resumed) {
          corpus = CorpusIndex();  // drop any partially restored state
          ctx->metrics.count("stream.resume.rejected");
          if (!ssl_source.seek(0)) {
            throw IngestError(
                "stream checkpoint rejected and SSL source cannot rewind: " +
                std::string(ssl_source.name()));
          }
        }
      }
    }

    while (true) {
      obs::Stopwatch watch;
      const std::size_t got = ssl_source.read(buffer, chunk_bytes);
      if (got == 0) break;
      ssl_digest = util::fnv1a64_continue(ssl_digest, buffer);
      ssl_offset += got;
      ssl_reader.feed(buffer);
      ctx->metrics.count("stream.chunk.ssl");
      ctx->metrics.count("stream.chunk.ssl_bytes", got);
      ctx->trace.attach_closed("ingest.ssl.chunk" + std::to_string(chunks_done),
                               watch.elapsed_ms());
      ++chunks_done;

      if (!options.checkpoint_path.empty()) {
        StreamCheckpoint checkpoint;
        checkpoint.mode = options.ingest.mode;
        checkpoint.x509_digest = x509_digest;
        checkpoint.ssl_digest_state = ssl_digest;
        checkpoint.ssl_offset = ssl_offset;
        checkpoint.chunks_done = chunks_done;
        checkpoint.ssl_reader = ssl_reader.checkpoint();
        if (write_stream_checkpoint(options.checkpoint_path, checkpoint,
                                    corpus)) {
          ctx->metrics.count("stream.checkpoint.written");
        }
      }
    }
    // finish() may still emit the trailing unterminated line's record.
    ssl_reader.finish();

    // Account in the text ingest's order: ssl fully first (so a strict-mode
    // SSL failure carries the identical first-error text and leaves X509
    // counters unpublished), then x509.
    detail::account_ingest_stream({detail::ReaderTally(ssl_reader)}, "ssl",
                                  options.ingest.mode, ctx->metrics,
                                  ingest.ssl, ingest);
    detail::account_ingest_stream({detail::ReaderTally(x509_reader)}, "x509",
                                  options.ingest.mode, ctx->metrics,
                                  ingest.x509, ingest);

    // The fold is complete and valid; the checkpoint has served its purpose.
    if (!options.checkpoint_path.empty()) {
      if (std::remove(options.checkpoint_path.c_str()) == 0) {
        ctx->metrics.count("stream.checkpoint.removed");
      }
    }
  }
  publish_stage(ctx, "ingest",
                ingest.ssl.records + ingest.x509.records + ingest.skipped_total(),
                ingest.ssl.records + ingest.x509.records,
                ingest.skipped_total());

  auto pipeline_timer = stage_timer(obs, "pipeline");
  StudyReport report = analyze_corpus(pool, corpus, obs, &dn_pool);
  report.ingest = std::move(ingest);

  ctx->metrics.set_gauge("mem.peak_rss_bytes",
                         static_cast<double>(obs::peak_rss_bytes()));
  return report;
}

}  // namespace certchain::core
