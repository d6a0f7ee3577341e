// Wall-clock benchmark harness for the multi-precision cascade.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--cache DIR] [--spans DIR] [--setup-s S,...]
//   perfbench --workload NAME --seed N --setup-only [--threads T]
//             [--cache DIR]
//   perfbench --prepare [--cache DIR]
//
// --setup-only times one cold set-up and prints {"setup_s": S}; a timed
// run reports setup_s as the median of its own set-up and the ones given
// with --setup-s, each measured by a process of its own.
// --prepare trains (or loads) the default WorkbenchConfig weights the
// workloads use into DIR; a timed run only loads them.  The metrics and
// how they are derived are described in perfbench/README.md.  The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it records the pinned
// inputs and the seed-determined counts of one round.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace core = mpcnn::core;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kDefaultThreads = 2;  // below nproc on the 4-vCPU reference
// The p95 of the call times needs at least ten calls beyond it.
constexpr std::size_t kMinCalls = 200;
// Rounds the traced run records: a round opens up to ~40k spans.
constexpr std::int64_t kTracedRounds = 8;
// The traced run fails when the time no layer accounts for is negative
// or above this share of the round: attribution has gone wrong.
constexpr double kMaxUnattributedShare = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int threads = kDefaultThreads;
  std::string cache = "mpcnn_cache_perfbench";
  std::string spans = ".bench_build/spans";
  std::vector<double> setup_s;  ///< cold set-ups of other processes
  bool prepare = false;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--threads T] [--cache DIR] "
               "[--spans DIR] [--setup-s S,...]\n       perfbench --workload "
               "NAME --seed N --setup-only [--threads T] [--cache DIR]\n"
               "       perfbench --prepare [--cache DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value);
      else if (key == "--threads") a.threads = std::stoi(value);
      else if (key == "--cache") a.cache = value;
      else if (key == "--spans") a.spans = value;
      else if (key == "--setup-s") {
        std::stringstream list(value);
        for (std::string item; std::getline(list, item, ',');) {
          a.setup_s.push_back(std::stod(item));
        }
      }
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.prepare) return a;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1) ||
      a.threads < 1 || a.threads > 64) {
    usage("seconds must be > 0, trace 0 or 1, threads 1..64");
  }
  return a;
}

core::WorkbenchConfig bench_config(const std::string& cache) {
  core::WorkbenchConfig config;  // the default weights
  config.cache_dir = cache;
  config.verbose = false;
  return config;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// CPU time of the whole machine, from the first line of /proc/stat, in
// clock ticks: all of it, and the part the hypervisor stole.
struct CpuTicks {
  std::int64_t total = 0, steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  CpuTicks t;
  for (std::int64_t& x : v) {
    if (!(stat >> x)) return {};
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

// Share (%) of all CPU time stolen between two readings.
double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  const std::int64_t total = b.total - a.total;
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

// The set-up: a fresh workbench that loads the weights, scores the
// training set, trains the DMU, picks the FINN design, and the
// workload's inputs built from the seed.
struct Setup {
  std::unique_ptr<core::Workbench> wb;
  std::unique_ptr<Workload> workload;
  double data_ms = 0, load_ms = 0, dmu_ms = 0, design_ms = 0, total_ms = 0;
};

void run_setup(Setup& s, const Args& args, Clock::time_point start) {
  s.wb = std::make_unique<core::Workbench>(bench_config(args.cache));
  core::Workbench& wb = *s.wb;
  auto t = Clock::now();
  (void)wb.train_set();
  (void)wb.test_set();
  (void)wb.objects();
  s.data_ms = ms_since(t);
  t = Clock::now();
  const char model =
      args.workload == "batch_cascade" ? kBatchModel : kStreamModel;
  (void)wb.model(model);
  (void)wb.compiled_bnn();
  s.load_ms = ms_since(t);
  t = Clock::now();
  (void)wb.dmu();
  s.dmu_ms = ms_since(t);
  t = Clock::now();
  (void)wb.operating_design();
  s.design_ms = ms_since(t);
  s.workload = make_workload(args.workload);
  s.workload->prepare(wb, args.seed);
  s.total_ms = ms_since(start);
}

struct Phase {
  std::int64_t rounds = 0;
  double wall_ms = 0;  ///< summed round durations
  std::vector<double> round_ms;
  std::vector<double> call_ms;
};

void run_round(Workload& w, Phase& p, CheckResult& check) {
  const auto t0 = Clock::now();
  w.round(p.call_ms);
  p.round_ms.push_back(ms_since(t0));
  p.wall_ms += p.round_ms.back();
  ++p.rounds;
  w.compare_round(check);
}

// Whole rounds until `seconds` have passed and the phase holds at least
// `min_calls` timed calls.
Phase run_phase(Workload& w, double seconds, std::size_t min_calls,
                CheckResult& check) {
  Phase p;
  const auto start = Clock::now();
  while (p.rounds == 0 || ms_since(start) < 1e3 * seconds ||
         p.call_ms.size() < min_calls) {
    run_round(w, p, check);
  }
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

std::string json_object(const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{";
  for (auto it = values.begin(); it != values.end(); ++it) {
    os << (it == values.begin() ? "" : ", ") << "\"" << it->first
       << "\": " << json_number(it->second);
  }
  os << "}";
  return os.str();
}

// What every run pins and what it ran on, on the line before the result.
void print_context(const Args& args, Workload& w, double steal) {
  std::ostringstream os;
  os << "{\"context\": {\"workload\": \"" << args.workload
     << "\", \"seed\": " << args.seed << ", \"threads\": "
     << core::thread_count() << ", \"isa\": \""
     << core::isa_name(core::active_isa()) << "\", \"cpu_signature\": \""
     << core::cpu_signature() << "\", \"tune\": \"off\", \"integrity\": \""
     << (w.has_integrity() ? "sample" : "off")
     << "\", \"host_img_per_s\": {\"A\": 29.68, \"B\": 3.63, \"C\": 3.09}"
     << ", \"submission\": \"serial\", \"steal_pct\": " << json_number(steal)
     << ", \"round\": " << json_object(w.counts())
     << ", \"modelled\": " << json_object(w.modelled()) << "}}";
  std::printf("%s\n", os.str().c_str());
}

bool weights_present(const std::string& cache) {
  return std::filesystem::exists(std::filesystem::path(cache) / "weights.ok");
}

int prepare_weights(const Args& args) {
  core::WorkbenchConfig config = bench_config(args.cache);
  config.verbose = true;
  core::Workbench wb(config);
  std::printf("BNN accuracy      %.4f\n", wb.bnn_accuracy());
  for (const char m : {kStreamModel, kBatchModel}) {
    std::printf("Model %c accuracy  %.4f\n", m, wb.model_accuracy(m));
  }
  std::printf("operating threshold %.3f\n", wb.operating_threshold());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  // Pinned environment: no autotuning, no global integrity mode, and two
  // malloc arenas.  With glibc's default of one arena per pool thread,
  // VmHWM of identical runs differed by up to 12 MB, depending on which
  // thread happened to run which chunks.
  ::mallopt(M_ARENA_MAX, 2);
  ::setenv("MPCNN_TUNE", "off", 1);
  ::setenv("MPCNN_INTEGRITY", "off", 1);
  ::unsetenv("MPCNN_CACHE_DIR");
  register_main_thread();
  const Args args = parse(argc, argv);
  try {
    core::set_thread_count(args.threads);
    core::integrity::set_global_mode(core::integrity::IntegrityMode::kOff);
    if (args.prepare) return prepare_weights(args);
    if (!weights_present(args.cache)) {
      std::fprintf(stderr,
                   "perfbench: no verified weights in %s (run "
                   "perfbench/weights.py first)\n",
                   args.cache.c_str());
      return 2;
    }

    Setup setup;
    run_setup(setup, args, start);
    if (args.setup_only) {
      std::printf("{\"setup_s\": %s}\n",
                  json_number(setup.total_ms * 1e-3).c_str());
      return 0;
    }
    std::vector<double> setup_s = args.setup_s;
    setup_s.push_back(setup.total_ms * 1e-3);
    Workload& w = *setup.workload;
    CheckResult check;
    std::vector<Metric> metrics;
    std::int64_t rounds = 0;
    const CpuTicks ticks0 = cpu_ticks();

    if (args.trace == 0) {
      // serve_fleet times one call per round, the round itself: it runs
      // for --seconds like the others, and its call_ms_p50 restates
      // img_per_s.
      const std::size_t min_calls =
          args.workload == "serve_fleet" ? 0 : kMinCalls;
      const Phase p = run_phase(w, args.seconds, min_calls, check);
      rounds = p.rounds;
      const double rss = peak_rss_mb();
      // Every round does the same work, so the median round is the
      // throughput a slowdown of the shared machine shorter than half
      // the run does not move.
      metrics = {
          {"img_per_s", w.counts().at("images") / (median(p.round_ms) * 1e-3),
           "img/s"},
          {"call_ms_p50", percentile(p.call_ms, 0.50), "ms"},
          {"call_ms_p95", percentile(p.call_ms, 0.95), "ms"},
          {"setup_s", median(setup_s), "s"},
          {"peak_rss_mb", rss, "MB"},
      };
    } else {
      // Untraced warm-up rounds for a third of --seconds; they enter no
      // figure.  Then a few passes of one untraced round, one traced
      // round and, for serve_fleet, one round with integrity off, so that
      // a slow spell of the machine hits the rounds they are compared
      // with alike.  Each pass rotates their order, so that no kind of
      // round always follows the same kind.
      const Phase warm = run_phase(w, args.seconds / 3.0, 0, check);
      const std::int64_t passes =
          std::min<std::int64_t>(warm.rounds, kTracedRounds);
      const std::int64_t kinds = w.has_integrity() ? 3 : 2;
      Phase plain, traced, off;
      for (std::int64_t i = 0; i < passes; ++i) {
        for (std::int64_t j = 0; j < kinds; ++j) {
          switch ((i + j) % kinds) {
            case 0:
              run_round(w, plain, check);
              break;
            case 1:
              set_tracing(true);
              run_round(w, traced, check);
              set_tracing(false);
              break;
            default:
              w.set_integrity(false);
              run_round(w, off, check);
              w.set_integrity(true);
          }
        }
      }
      const auto spans = collect_spans();
      rounds = warm.rounds + plain.rounds + traced.rounds + off.rounds;
      const double plain_round_ms = median(plain.round_ms);
      const double integrity_ms =
          w.has_integrity() ? plain_round_ms - median(off.round_ms) : 0.0;
      std::filesystem::create_directories(args.spans);
      write_spans(spans, args.spans + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".tsv");

      const LayerTimes t = analyse_spans(spans, traced.wall_ms);
      const double n = static_cast<double>(traced.rounds);
      const auto k = [](SpanKind kind) { return static_cast<int>(kind); };
      const auto per = [&](double v) { return v / n; };
      const std::map<std::string, double> counts = w.counts();
      const auto count = [&](const std::string& name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
      };
      const double bnn_images =
          per(t.work[k(SpanKind::kBnnImage)] + t.work[k(SpanKind::kBnnBatch)]);
      const double bnn_thread = per(t.thread_ms[k(SpanKind::kBnnImage)] +
                                    t.thread_ms[k(SpanKind::kBnnBatch)]);
      const double nn_images = per(t.work[k(SpanKind::kPredict)]);
      const double nn_wall = per(t.union_ms[k(SpanKind::kPredict)]);
      const double xnor_ms = t.union_ms[k(SpanKind::kXnorGemm)];
      const double gemm_ms = t.union_ms[k(SpanKind::kGemm)];
      double self_total = 0.0;
      for (int i = 0; i < static_cast<int>(SpanKind::kCount); ++i) {
        self_total += t.self_ms[i];
      }
      const double call_self = per(t.self_ms[k(SpanKind::kCall)]);
      const std::string& wl = args.workload;
      const double round_ms = per(t.wall_ms);
      const double unattributed = per(t.wall_ms - self_total);
      if (unattributed < -1e-6 ||
          unattributed > kMaxUnattributedShare * round_ms) {
        check.fail("layer self times leave " + std::to_string(unattributed) +
                   " ms of a " + std::to_string(round_ms) +
                   " ms round unattributed");
      }
      const double tiles = count("scene.tiles");
      metrics = {
          {"bnn.images", bnn_images, "count"},
          {"bnn.wall_ms", per(t.union_ms[k(SpanKind::kBnnImage)]), "ms"},
          {"bnn.thread_ms", bnn_thread, "ms"},
          {"bnn.us_per_img", bnn_images > 0 ? 1e3 * bnn_thread / bnn_images : 0,
           "us"},
          {"bnn.xnor_gemm.calls", per(t.count[k(SpanKind::kXnorGemm)]),
           "count"},
          {"bnn.xnor_gemm.gop_per_s",
           xnor_ms > 0 ? t.work[k(SpanKind::kXnorGemm)] / (xnor_ms * 1e6) : 0,
           "Gop/s"},
          {"bnn.self_ms",
           per(t.self_ms[k(SpanKind::kBnnImage)] +
               t.self_ms[k(SpanKind::kBnnBatch)] +
               t.self_ms[k(SpanKind::kBitIm2col)] +
               t.self_ms[k(SpanKind::kXnorGemm)]),
           "ms"},
          {"nn.images", nn_images, "count"},
          {"nn.calls", per(t.count[k(SpanKind::kPredict)]), "count"},
          {"nn.wall_ms", nn_wall, "ms"},
          {"nn.us_per_img", nn_images > 0 ? 1e3 * nn_wall / nn_images : 0,
           "us"},
          {"nn.self_ms", per(t.self_ms[k(SpanKind::kPredict)]), "ms"},
          {"tensor.gemm.calls", per(t.count[k(SpanKind::kGemm)]), "count"},
          {"tensor.gemm.wall_ms", per(gemm_ms), "ms"},
          {"tensor.gemm.gflop_per_s",
           gemm_ms > 0 ? t.work[k(SpanKind::kGemm)] / (gemm_ms * 1e6) : 0,
           "GFLOP/s"},
          {"tensor.im2col.wall_ms", per(t.union_ms[k(SpanKind::kIm2col)]),
           "ms"},
          {"tensor.self_ms",
           per(t.self_ms[k(SpanKind::kGemm)] + t.self_ms[k(SpanKind::kIm2col)]),
           "ms"},
          {"dmu.calls", per(t.count[k(SpanKind::kDmu)]), "count"},
          {"dmu.wall_ms", per(t.union_ms[k(SpanKind::kDmu)]), "ms"},
          {"dmu.self_ms", per(t.self_ms[k(SpanKind::kDmu)]), "ms"},
          {"pool.regions", per(static_cast<double>(t.regions)), "count"},
          {"pool.region_us_p50", t.region_us_p50, "us"},
          {"pool.wall_ms", per(t.region_ms), "ms"},
          {"pool.self_ms", per(t.self_ms[k(SpanKind::kRegion)]), "ms"},
          {"stream.dispatches", count("stream.dispatches"), "count"},
          {"stream.reruns", count("stream.reruns"), "count"},
          {"stream.rerun_share", count("stream.rerun_share"), "ratio"},
          {"stream.self_ms", wl == "stream_cascade" ? call_self : 0, "ms"},
          {"cascade.self_ms", wl == "batch_cascade" ? call_self : 0, "ms"},
          {"serve.requests", count("serve.requests"), "count"},
          {"serve.batches", count("serve.batches"), "count"},
          {"serve.mean_batch_fill", count("serve.mean_batch_fill"), "count"},
          {"serve.host_routed", count("serve.host_routed"), "count"},
          {"serve.self_ms", wl == "serve_fleet" ? call_self : 0, "ms"},
          {"fleet.redispatched_batches", count("fleet.redispatched_batches"),
           "count"},
          {"fleet.host_worker_images", count("fleet.host_worker_images"),
           "count"},
          {"supervisor.watchdog_timeouts",
           count("supervisor.watchdog_timeouts"), "count"},
          {"supervisor.retries", count("supervisor.retries"), "count"},
          {"supervisor.degraded_batches", count("supervisor.degraded_batches"),
           "count"},
          {"supervisor.scrub_cycles", count("supervisor.scrub_cycles"),
           "count"},
          {"integrity.sdc_detected", count("integrity.sdc_detected"), "count"},
          {"integrity.overhead_ms", integrity_ms, "ms"},
          {"scene.tiles", tiles, "count"},
          {"scene.hit_rate", count("scene.hit_rate"), "ratio"},
          {"scene.escalated", count("scene.escalated"), "count"},
          {"scene.self_ms", wl == "scene_motion" ? call_self : 0, "ms"},
          {"scene.us_per_tile", tiles > 0 ? 1e3 * round_ms / tiles : 0, "us"},
          {"harness.unattributed_ms", unattributed, "ms"},
          {"trace.round_ms", round_ms, "ms"},
          {"trace.overhead_pct",
           100.0 * (median(traced.round_ms) - plain_round_ms) / plain_round_ms,
           "%"},
          {"trace.spans", per(static_cast<double>(t.spans)), "count"},
          {"setup.data_ms", setup.data_ms, "ms"},
          {"setup.load_ms", setup.load_ms, "ms"},
          {"setup.dmu_ms", setup.dmu_ms, "ms"},
          {"setup.design_ms", setup.design_ms, "ms"},
      };
    }

    const double steal = steal_pct(ticks0, cpu_ticks());
    w.check(check);
    print_context(args, w, steal);
    for (const std::string& e : check.errors) {
      std::fprintf(stderr, "check: %s\n", e.c_str());
    }
    const std::int64_t attempted = rounds * w.round_requests();
    print_result(check.ok(), attempted, 0, metrics);
    return check.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
