#include "check.hpp"

#include <cstring>
#include <sstream>

namespace perfbench {

void CheckResult::fail(const std::string& what) {
  // Keep the report readable when a fault breaks every label.
  if (errors.size() < 20) errors.push_back(what);
  else if (errors.size() == 20) errors.push_back("... further errors omitted");
}

void check_served(const Oracle& oracle, std::int64_t requests,
                  const std::vector<Served>& served, CheckResult& result) {
  std::vector<int> seen(static_cast<std::size_t>(requests), 0);
  std::int64_t labelled = 0, cascade_correct = 0, bnn_correct = 0;
  for (const Served& s : served) {
    std::ostringstream where;
    where << "request " << s.request << " (input " << s.input << ")";
    if (s.request < 0 || s.request >= requests) {
      result.fail(where.str() + ": unknown request id");
      continue;
    }
    if (seen[static_cast<std::size_t>(s.request)]++ != 0) {
      result.fail(where.str() + ": answered more than once");
    }
    const auto i = static_cast<std::size_t>(s.input);
    if (s.input < 0 || i >= oracle.bnn_label.size()) {
      result.fail(where.str() + ": input outside the oracle");
      continue;
    }
    int want = -1;
    switch (s.path) {
      case Path::kFabric:
        if (!oracle.trusted(s.input)) {
          result.fail(where.str() + ": fabric-served below the threshold");
        }
        want = oracle.bnn_label[i];
        break;
      case Path::kRerun:
        if (oracle.trusted(s.input)) {
          result.fail(where.str() + ": rerun although the DMU trusts it");
        }
        want = oracle.host_label[i];
        break;
      case Path::kHost:
        want = oracle.host_label[i];
        break;
    }
    if (want < 0) {
      result.fail(where.str() + ": no reference label computed");
    } else if (s.label != want) {
      std::ostringstream msg;
      msg << where.str() << ": label " << s.label << ", reference " << want;
      result.fail(msg.str());
    }
    ++result.checked;
    if (i < oracle.truth.size() && oracle.truth[i] >= 0) {
      ++labelled;
      cascade_correct += s.label == oracle.truth[i];
      bnn_correct += oracle.bnn_label[i] == oracle.truth[i];
    }
  }
  for (std::int64_t r = 0; r < requests; ++r) {
    if (seen[static_cast<std::size_t>(r)] == 0) {
      result.fail("request " + std::to_string(r) + " got no result");
    }
  }
  if (labelled > 0 && cascade_correct <= bnn_correct) {
    std::ostringstream msg;
    msg << "cascade accuracy " << cascade_correct << "/" << labelled
        << " does not exceed the BNN's " << bnn_correct << "/" << labelled;
    result.fail(msg.str());
  }
}

ChunkTotals expected_totals(const Oracle& oracle,
                            const std::vector<std::int64_t>& inputs) {
  ChunkTotals t;
  for (const std::int64_t input : inputs) {
    const auto i = static_cast<std::size_t>(input);
    const int truth = oracle.truth[i];
    ++t.images;
    t.bnn_correct += oracle.bnn_label[i] == truth;
    const bool rerun = !oracle.trusted(input);
    t.reruns += rerun;
    t.final_correct +=
        (rerun ? oracle.host_label[i] : oracle.bnn_label[i]) == truth;
  }
  return t;
}

void check_totals(const ChunkTotals& expected, const ChunkTotals& got,
                  const std::string& where, CheckResult& result) {
  ++result.checked;
  if (expected == got) return;
  std::ostringstream msg;
  msg << where << ": images/bnn_correct/reruns/final_correct "
      << got.images << "/" << got.bnn_correct << "/" << got.reruns << "/"
      << got.final_correct << ", reference " << expected.images << "/"
      << expected.bnn_correct << "/" << expected.reruns << "/"
      << expected.final_correct;
  result.fail(msg.str());
}

void check_scene(const std::vector<mpcnn::core::TileVerdict>& cached,
                 const std::vector<mpcnn::core::TileVerdict>& uncached,
                 CheckResult& result) {
  if (cached.size() != uncached.size()) {
    result.fail("scene: " + std::to_string(cached.size()) +
                " cached verdicts vs " + std::to_string(uncached.size()) +
                " uncached");
    return;
  }
  for (std::size_t t = 0; t < cached.size(); ++t) {
    ++result.checked;
    if (std::memcmp(&cached[t], &uncached[t], sizeof(cached[t])) != 0) {
      result.fail("scene tile " + std::to_string(t) +
                  ": cached verdict differs from the uncached pass");
    }
  }
}

}  // namespace perfbench
