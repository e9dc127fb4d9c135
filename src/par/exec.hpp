// Execution options shared by every chunked analyzer entry point.
//
// Layers below core (chain::lint_chains) cannot depend on core::RunOptions,
// but still want the uniform `(input, options, obs)` call shape the unified
// pipeline API uses (DESIGN.md §11). ExecOptions is the layer-neutral subset:
// just the worker count, with the same semantics RunOptions::threads has —
// make_pool(threads) builds a pool only when the count resolves to more
// than one worker; a null pool runs the same code inline as one chunk, and
// the result is identical either way.
#pragma once

#include <cstddef>

namespace certchain::par {

struct ExecOptions {
  /// Worker count: 1 (default) runs inline with no pool, 0 resolves to
  /// hardware concurrency, N > 1 runs N chunks on an N-worker pool with
  /// deterministic chunk-order merges.
  std::size_t threads = 1;
};

}  // namespace certchain::par
