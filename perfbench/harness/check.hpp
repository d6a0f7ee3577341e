// Correctness checker for benchmark runs.
//
// The reference answers are computed apart from the cascade: the BNN by
// the scalar per-bit oracle (bnn::run_reference with BnnExec::kScalar),
// the DMU verdict from those scores, and the float net's label by a
// direct Net::predict of the image.  The checker compares what a run
// served against them and collects every mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scene_stream.hpp"

namespace perfbench {

/// Reference answers per input (test image or scene tile).
struct Oracle {
  std::vector<int> bnn_label;     ///< argmax of the scalar BNN scores
  std::vector<float> confidence;  ///< DMU confidence in those scores
  std::vector<int> host_label;    ///< float net label (-1 = not computed)
  std::vector<int> truth;         ///< ground truth (-1 = unlabelled)
  float threshold = 0.5f;         ///< DMU operating threshold of the run

  bool trusted(std::int64_t input) const {
    return confidence[static_cast<std::size_t>(input)] >= threshold;
  }
};

/// Which path produced a served label.
enum class Path {
  kFabric,  ///< BNN answer the DMU accepted
  kRerun,   ///< DMU distrusted the BNN; the host reran the image
  kHost,    ///< host float net without a DMU verdict (degraded, routed)
};

struct Served {
  std::int64_t request = 0;  ///< request id, expected in [0, requests)
  std::int64_t input = 0;    ///< index into the oracle
  int label = -1;
  Path path = Path::kFabric;
};

struct CheckResult {
  std::vector<std::string> errors;
  std::int64_t checked = 0;  ///< labels compared with the oracle

  bool ok() const { return errors.empty(); }
  void fail(const std::string& what);
};

/// Every request answered exactly once; every label equal to the oracle
/// answer of the path that served it, with the DMU verdict consistent
/// with the threshold; and, where inputs carry ground truth, cascade
/// accuracy strictly above the BNN's accuracy alone on the same inputs.
void check_served(const Oracle& oracle, std::int64_t requests,
                  const std::vector<Served>& served, CheckResult& result);

/// Counts MultiPrecisionSystem::run reports for one chunk (it returns
/// aggregates, not labels).
struct ChunkTotals {
  std::int64_t images = 0;
  std::int64_t bnn_correct = 0;
  std::int64_t reruns = 0;
  std::int64_t final_correct = 0;

  bool operator==(const ChunkTotals&) const = default;
};

/// The totals the oracle predicts for a chunk of labelled inputs.
ChunkTotals expected_totals(const Oracle& oracle,
                            const std::vector<std::int64_t>& inputs);

void check_totals(const ChunkTotals& expected, const ChunkTotals& got,
                  const std::string& where, CheckResult& result);

/// Verdicts of a cached scene pass must be byte-identical to those of an
/// uncached pass over the same frames.
void check_scene(const std::vector<mpcnn::core::TileVerdict>& cached,
                 const std::vector<mpcnn::core::TileVerdict>& uncached,
                 CheckResult& result);

}  // namespace perfbench
