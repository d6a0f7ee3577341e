// Shows that the checker accepts a faithful run and rejects a run with
// one label flipped, one request dropped, one request answered twice, a
// wrong DMU path, a wrong chunk total, or a cached scene verdict that
// differs from the uncached one.  Exits non-zero on the first surprise.
#include <cstdio>
#include <vector>

#include "check.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

// Six labelled inputs: the DMU trusts 0-3 (BNN right on 0-2, wrong on 3)
// and distrusts 4-5, where the host is right and the BNN wrong.
Oracle make_oracle() {
  Oracle o;
  o.threshold = 0.5f;
  o.bnn_label = {1, 2, 3, 0, 5, 6};
  o.confidence = {0.9f, 0.8f, 0.7f, 0.6f, 0.2f, 0.1f};
  o.host_label = {1, 2, 3, 4, 7, 8};
  o.truth = {1, 2, 3, 4, 7, 8};
  return o;
}

std::vector<Served> faithful_run() {
  return {{0, 0, 1, Path::kFabric}, {1, 1, 2, Path::kFabric},
          {2, 2, 3, Path::kFabric}, {3, 3, 0, Path::kFabric},
          {4, 4, 7, Path::kRerun},  {5, 5, 8, Path::kRerun}};
}

bool passes(const std::vector<Served>& run) {
  CheckResult r;
  check_served(make_oracle(), 6, run, r);
  return r.ok();
}

}  // namespace

int main() {
  expect(passes(faithful_run()), "faithful run passes");

  std::vector<Served> flipped = faithful_run();
  flipped[1].label = 9;
  expect(!passes(flipped), "one flipped fabric label is rejected");

  std::vector<Served> flipped_host = faithful_run();
  flipped_host[4].label = 4;
  expect(!passes(flipped_host), "one flipped host label is rejected");

  std::vector<Served> dropped = faithful_run();
  dropped.erase(dropped.begin() + 2);
  expect(!passes(dropped), "one dropped request is rejected");

  std::vector<Served> doubled = faithful_run();
  doubled.push_back(doubled[0]);
  expect(!passes(doubled), "a request answered twice is rejected");

  std::vector<Served> wrong_path = faithful_run();
  wrong_path[0].path = Path::kRerun;
  expect(!passes(wrong_path), "a rerun the DMU did not ask for is rejected");

  {
    // Same labels as the BNN everywhere: no accuracy gain from the host.
    Oracle o = make_oracle();
    o.host_label = o.bnn_label;
    std::vector<Served> run = faithful_run();
    run[4].label = o.host_label[4];
    run[5].label = o.host_label[5];
    CheckResult r;
    check_served(o, 6, run, r);
    expect(!r.ok(), "cascade no more accurate than the BNN is rejected");
  }

  {
    const Oracle o = make_oracle();
    const ChunkTotals want = expected_totals(o, {0, 1, 2, 3, 4, 5});
    expect(want == ChunkTotals{6, 3, 2, 5}, "chunk totals from the oracle");
    CheckResult good, bad;
    check_totals(want, want, "chunk", good);
    ChunkTotals off = want;
    --off.final_correct;
    check_totals(want, off, "chunk", bad);
    expect(good.ok() && !bad.ok(), "a chunk with one wrong label is rejected");
  }

  {
    std::vector<mpcnn::core::TileVerdict> uncached(4);
    for (std::size_t t = 0; t < uncached.size(); ++t) {
      uncached[t].label = static_cast<int>(t);
      uncached[t].bnn_label = static_cast<int>(t);
      uncached[t].confidence = 0.75f;
    }
    std::vector<mpcnn::core::TileVerdict> cached = uncached;
    CheckResult same;
    check_scene(cached, uncached, same);
    cached[2].confidence = 0.5f;
    CheckResult differs;
    check_scene(cached, uncached, differs);
    expect(same.ok() && !differs.ok(),
           "a cached scene verdict differing from the uncached one is "
           "rejected");
  }

  std::printf("%s\n", failures == 0 ? "all checks behave" : "FAILED");
  return failures == 0 ? 0 : 1;
}
