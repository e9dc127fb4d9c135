// Execution options for every StudyPipeline entry point and for the
// standalone chunked analyzers (interception, cert_stats).
//
// One options struct covers the whole execution envelope: ingestion policy,
// worker count, and the streaming knobs (chunk size, checkpoint path) that
// only apply when the input is a LogSource. Keeping them together is the
// point of the PR-4 API redesign — callers configure a run once instead of
// choosing among overloads (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <string>

#include "core/ingest.hpp"
#include "par/exec.hpp"

namespace certchain::core {

struct RunOptions {
  IngestOptions ingest;

  /// Worker count: 0 resolves to hardware concurrency. A count of 1
  /// (default) spawns no pool: every stage runs inline as one chunk. N > 1
  /// builds an N-worker pool and splits every stage into N chunks merged in
  /// chunk order. Either way it is the same code path, and any value
  /// produces byte-identical reports and identical deterministic metrics —
  /// the contract the parallel-diff suite enforces.
  std::size_t threads = 1;

  /// Streaming read granularity for LogSource inputs: bytes pulled from the
  /// source per chunk (each chunk is parsed, joined, and folded into the
  /// corpus before the next is read, so peak residency is O(chunk) + the
  /// deduplicated corpus state, not O(total log bytes)). 0 falls back to the
  /// default. Ignored for in-memory inputs. The report is byte-identical at
  /// every chunk size.
  std::size_t chunk_bytes = kDefaultChunkBytes;
  static constexpr std::size_t kDefaultChunkBytes = 4 * 1024 * 1024;

  /// When non-empty, streamed runs write a versioned fold snapshot
  /// (certchain.stream.checkpoint) to this path after every chunk and, if
  /// the file already exists and matches the inputs, resume from it instead
  /// of starting over. The file is removed on successful completion. Ignored
  /// for in-memory inputs.
  std::string checkpoint_path;

  /// The layer-neutral projection consumed by analyzers below core.
  par::ExecOptions exec() const { return par::ExecOptions{threads}; }
};

}  // namespace certchain::core
