// Degradation curve of the sharded multi-fabric fleet (core/fleet).
//
// Drives a 4-replica fleet (+2 host float workers) through the same
// open-loop steady trace while a rack-correlated FaultPlan permanently
// kills 0, 1, 2 and then 3 of the replicas mid-trace.  Each row shows
// what the failover machinery preserved: served count (must equal the
// offered trace — the fleet never loses or duplicates work), p50/p99
// latency, throughput, and the exact re-dispatch / host-fallback /
// probe counters behind it.  Rates are expressed relative to the
// operating design's steady throughput, so the regimes are
// machine-independent.
//
// Emits one table row per kill count on stdout and, with `--out FILE`
// (run_all.sh passes BENCH_fleet.json), a JSON report with the
// machine's CPU signature in the context block, comparable across PRs
// and machines — tools/bench_gate.py diffs it against the committed
// baseline.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu.hpp"
#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"

using namespace mpcnn;

namespace {

struct ScenarioResult {
  std::string name;
  Dim offered = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  core::FleetReport report;
};

void print_row(const ScenarioResult& s) {
  const core::FleetStats& fleet = s.report.fleet;
  std::printf("%-8s %6lld served  p50 %8.2f ms  p99 %8.2f ms  %8.1f img/s"
              "  redisp %3lld  host %4lld  probes %3lld  degraded %lld\n",
              s.name.c_str(), static_cast<long long>(s.report.served),
              s.p50_ms, s.p99_ms, s.report.throughput_fps,
              static_cast<long long>(fleet.redispatched_batches),
              static_cast<long long>(fleet.host_fallback_images),
              static_cast<long long>(fleet.probes),
              static_cast<long long>(s.report.degraded_replicas));
}

void write_json(const std::vector<ScenarioResult>& results,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  MPCNN_CHECK(f != nullptr, "cannot write " << path);
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"cpu_signature\": \"%s\",\n",
               core::cpu_signature().c_str());
  std::fprintf(f, "    \"threads\": %d,\n", core::thread_count());
  std::fprintf(f, "    \"suite\": \"fleet\"\n  },\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& s = results[i];
    const core::FleetStats& fleet = s.report.fleet;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", s.name.c_str());
    std::fprintf(f, "      \"offered\": %lld,\n",
                 static_cast<long long>(s.offered));
    std::fprintf(f, "      \"served\": %lld,\n",
                 static_cast<long long>(s.report.served));
    std::fprintf(f, "      \"batches\": %lld,\n",
                 static_cast<long long>(fleet.batches));
    std::fprintf(f, "      \"dispatches\": %lld,\n",
                 static_cast<long long>(fleet.dispatches));
    std::fprintf(f, "      \"redispatched_batches\": %lld,\n",
                 static_cast<long long>(fleet.redispatched_batches));
    std::fprintf(f, "      \"redispatched_images\": %lld,\n",
                 static_cast<long long>(fleet.redispatched_images));
    std::fprintf(f, "      \"host_fallback_images\": %lld,\n",
                 static_cast<long long>(fleet.host_fallback_images));
    std::fprintf(f, "      \"probes\": %lld,\n",
                 static_cast<long long>(fleet.probes));
    std::fprintf(f, "      \"readmissions\": %lld,\n",
                 static_cast<long long>(fleet.readmissions));
    std::fprintf(f, "      \"degraded_replicas\": %lld,\n",
                 static_cast<long long>(s.report.degraded_replicas));
    std::fprintf(f, "      \"span_s\": %.6f,\n", s.report.span_s);
    std::fprintf(f, "      \"p50_ms\": %.4f,\n", s.p50_ms);
    std::fprintf(f, "      \"p95_ms\": %.4f,\n", s.p95_ms);
    std::fprintf(f, "      \"p99_ms\": %.4f,\n", s.p99_ms);
    std::fprintf(f, "      \"throughput_fps\": %.3f\n",
                 s.report.throughput_fps);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }

  core::WorkbenchConfig wb_config;
  wb_config.verbose = false;
  core::Workbench wb(wb_config);
  const double img_s = wb.operating_design().steady_seconds_per_image();

  const Dim replicas = 4;
  const Dim batch = 16;
  // 70% of the healthy 4-replica aggregate: three survivors can still
  // carry it, so the kill rows measure failover cost, not queueing
  // collapse.
  const double rate_hz = 0.7 * static_cast<double>(replicas) / img_s;
  const double duration_s = 320.0 * img_s;
  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kSteady;
  trace.rate_hz = rate_hz;
  trace.duration_s = duration_s;
  const std::vector<double> arrivals = core::generate_arrivals(trace, 17);
  std::printf("fleet degradation curve: %lld replicas, rate %.1f img/s, "
              "%zu requests, mid-trace rack kill of 0..3 replicas\n",
              static_cast<long long>(replicas), rate_hz, arrivals.size());

  std::vector<ScenarioResult> results;
  for (Dim kills = 0; kills < replicas; ++kills) {
    core::FleetFaultPlan plan;
    if (kills > 0) {
      core::FaultWindow kill;
      kill.kind = core::FaultKind::kFabricStall;
      kill.first_dispatch = 4;  // mid-trace
      kill.last_dispatch = Dim{1} << 40;
      plan.rack_burst(0, kills - 1, kill);
    }
    std::vector<core::FaultInjector> injectors;
    injectors.reserve(static_cast<std::size_t>(replicas));
    std::vector<const core::FaultInjector*> pointers;
    for (Dim r = 0; r < replicas; ++r) {
      injectors.emplace_back(core::replica_seed(2026, r), plan.plan_for(r));
      pointers.push_back(&injectors.back());
    }

    core::FleetConfig config;
    config.batch_size = batch;
    config.host_workers = 2;
    // Fail fast: with peers to drain to, the full retry ladder on a
    // dead fabric only stretches the tail.
    core::StreamSession::Config session;
    session.dmu_threshold = 0.0f;
    session.watchdog_factor = 2.0;
    session.max_retries = 1;
    core::FleetScheduler fleet =
        wb.make_fleet('A', config, replicas, session, pointers);

    const data::Dataset& set = wb.test_set();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      fleet.submit(
          set.images.slice_batch(static_cast<Dim>(i) % set.size()),
          arrivals[i]);
    }
    fleet.flush();
    const std::vector<core::FleetResult> served = fleet.drain();

    ScenarioResult s;
    s.name = "kill_" + std::to_string(kills);
    s.offered = static_cast<Dim>(arrivals.size());
    std::vector<double> latencies;
    latencies.reserve(served.size());
    for (const core::FleetResult& r : served) {
      latencies.push_back(r.latency());
    }
    const core::LatencyStats lat =
        core::summarize_latencies(std::move(latencies));
    s.p50_ms = 1e3 * lat.p50_s;
    s.p95_ms = 1e3 * lat.p95_s;
    s.p99_ms = 1e3 * lat.p99_s;
    s.report = fleet.report();
    MPCNN_CHECK(s.report.served == s.offered,
                "fleet lost work: " << s.report.served << " of "
                                    << s.offered);
    results.push_back(std::move(s));
    print_row(results.back());
  }

  if (!out.empty()) write_json(results, out);
  return 0;
}
