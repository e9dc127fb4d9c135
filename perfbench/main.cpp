// certbench: the certchain benchmark harness.
//
//   certbench --workload <batch_study|serve_read|serve_write> --seed <n>
//             --seconds <s> --trace <0|1> [--scale <f>] [--connections <n>]
//             [--out-dir <dir>] [--work-dir <dir>] [--expect-digest <hex>]
//
// Generates the seeded corpus, runs one workload for --seconds and prints
// every metric with its unit and every correctness check, then one JSON
// result line. --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics: it runs the named workload's own phase first and
// then short probes of the other two, so every layer is measured on every
// traced run (README.md).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using namespace certbench;

constexpr double kProbeSeconds = 2.0;

int usage(const char* problem) {
  std::fprintf(stderr,
               "certbench: %s\nusage: certbench --workload "
               "<batch_study|serve_read|serve_write> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--connections <n>] [--out-dir <dir>] "
               "[--work-dir <dir>] [--expect-digest <hex>]\n",
               problem);
  return 2;
}

using WorkloadFn = void (*)(const Options&, const Corpus&, Result&, double);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "batch_study") return run_batch;
  if (name == "serve_read") return run_serve_read;
  if (name == "serve_write") return run_serve_write;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atof(value);
    else if (arg == "--trace") options.trace = std::string_view(value) == "1";
    else if (arg == "--scale") options.chain_scale = std::atof(value);
    else if (arg == "--connections") options.connections = std::strtoull(value, nullptr, 10);
    else if (arg == "--out-dir") options.out_dir = value;
    else if (arg == "--work-dir") options.work_dir = value;
    else if (arg == "--expect-digest") options.expect_digest = std::strtoull(value, nullptr, 16);
    else return usage("unknown option");
  }
  const WorkloadFn own = workload_fn(options.workload);
  if (own == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.work_dir.empty()) options.work_dir = ".bench_build/work";

  std::fprintf(stderr, "[certbench] generating corpus (seed=%llu)\n",
               static_cast<unsigned long long>(options.seed));
  const Corpus corpus = generate_corpus(options);
  Result result;
  result.info("corpus.chain_scale", std::to_string(options.chain_scale));
  result.info("corpus.connections", std::to_string(options.connections));
  result.info("corpus.ssl_rows", std::to_string(corpus.logs.ssl.size()));
  result.info("corpus.x509_rows", std::to_string(corpus.logs.x509.size()));
  result.info("corpus.unique_chains", std::to_string(corpus.unique_chains));

  own(options, corpus, result, options.seconds);
  if (options.trace) {
    for (const char* probe : {"batch_study", "serve_read", "serve_write"}) {
      if (options.workload == probe) continue;
      std::fprintf(stderr, "[certbench] probing %s layers\n", probe);
      workload_fn(probe)(options, corpus, result,
                         std::string_view(probe) == "batch_study" ? 0.0 : kProbeSeconds);
    }
  } else {
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB", 0, "ru_maxrss of the process");
  }

  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream out(path, std::ios::binary);
    out << result.document(options) << '\n';
  }
  result.print(options, declared_metrics(options.trace));
  return 0;
}
