// The four benchmark workloads.  Each one drives a system built directly
// from the workbench's trained components with the host latency pinned
// to the paper's Table IV Cortex-A9 rates, so no run calls
// Workbench::host_profile (which times nets on the local machine and
// would make the modelled timeline differ between runs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/workbench.hpp"

namespace perfbench {

/// Pinned host latency (seconds per image) of Table IV: Model A 29.68,
/// B 3.63, C 3.09 img/s on the Cortex-A9.
double pinned_host_seconds(char model);

/// Host model of each workload (the only weights the benchmark loads).
constexpr char kStreamModel = 'A';
constexpr char kBatchModel = 'C';

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's inputs from the seed (part of set-up).
  virtual void prepare(mpcnn::core::Workbench& wb, std::uint64_t seed) = 0;

  /// Runs one round.  Every round does the same work; the duration in ms
  /// of each top-level call the workload times is appended to `call_ms`.
  virtual void round(std::vector<double>& call_ms) = 0;

  /// Compares the outputs of the round just run with the first round's
  /// (outside the timed part of the loop).
  virtual void compare_round(CheckResult& result) = 0;

  /// Requests (images or tiles) attempted per round; each one that gets
  /// a final label counts as one image.
  virtual std::int64_t round_requests() const = 0;

  /// Seed-determined counts of one round, by metric name.
  virtual std::map<std::string, double> counts() const = 0;

  /// Figures of the Eq. (1)-(5) cost model for the last round, in
  /// simulated time: modelled, never measured speed.
  virtual std::map<std::string, double> modelled() const = 0;

  /// Checks the first round's outputs against the independent oracle.
  virtual void check(CheckResult& result) = 0;

  /// Turns the ABFT integrity checks off or back on (serve_fleet only;
  /// the traced run measures their overhead).
  virtual bool has_integrity() const { return false; }
  virtual void set_integrity(bool /*on*/) {}
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// Names accepted by make_workload.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
