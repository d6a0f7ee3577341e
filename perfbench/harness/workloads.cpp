#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/analytic.hpp"
#include "core/fleet.hpp"
#include "core/multi_precision.hpp"
#include "core/scene_stream.hpp"
#include "core/serve.hpp"
#include "core/stream.hpp"
#include "core/threadpool.hpp"
#include "data/scene_trace.hpp"
#include "tensor/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using mpcnn::Dim;
using mpcnn::Rng;
using mpcnn::Tensor;
namespace core = mpcnn::core;
namespace data = mpcnn::data;

double pinned_host_seconds(char model) {
  switch (model) {
    case 'A': return 1.0 / 29.68;
    case 'B': return 1.0 / 3.63;
    case 'C': return 1.0 / 3.09;
  }
  throw std::invalid_argument("host model must be A, B or C");
}

namespace {

std::int64_t g_next_call = 0;

// Times one top-level call into the system under test; while tracing it
// is also the kCall span every layer span of the call descends from.
template <class F>
double timed_call(F&& fn) {
  set_call(g_next_call++);
  ScopedSpan span(SpanKind::kCall);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// The trained components every workload shares (owned by the Workbench).
struct Components {
  const mpcnn::bnn::CompiledBnn* bnn = nullptr;
  const mpcnn::finn::FinnDesign* design = nullptr;
  const core::Dmu* dmu = nullptr;
  mpcnn::nn::Net* host = nullptr;
  const data::Dataset* test = nullptr;
  char model = 'A';

  void bind(core::Workbench& wb, char which) {
    bnn = &wb.compiled_bnn();
    design = &wb.operating_design();
    dmu = &wb.dmu();
    host = &wb.model(which);
    test = &wb.test_set();
    model = which;
  }
  double host_seconds() const { return pinned_host_seconds(model); }
};

std::vector<Dim> seeded_permutation(Dim n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Dim> out;
  for (const std::size_t i : rng.permutation(static_cast<std::size_t>(n))) {
    out.push_back(static_cast<Dim>(i));
  }
  return out;
}

// Reference answers for `inputs`: the scalar BNN oracle and DMU verdict
// for all of them (fanned out over the pool), the float net's batch-1
// label for those the DMU distrusts or `all_host` asks for.
Oracle make_oracle(const Components& c, const std::vector<Tensor>& inputs,
                   std::vector<int> truth, float threshold, bool all_host) {
  Oracle o;
  const std::size_t n = inputs.size();
  o.threshold = threshold;
  o.bnn_label.assign(n, -1);
  o.confidence.assign(n, 0.0f);
  o.host_label.assign(n, -1);
  o.truth = std::move(truth);
  o.truth.resize(n, -1);
  core::parallel_for(0, static_cast<std::int64_t>(n), 1,
                     [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const std::vector<std::int32_t> raw = mpcnn::bnn::run_reference(
          *c.bnn, inputs[k], mpcnn::bnn::BnnExec::kScalar);
      o.bnn_label[k] = static_cast<int>(
          std::max_element(raw.begin(), raw.end()) - raw.begin());
      o.confidence[k] =
          c.dmu->confidence(std::vector<float>(raw.begin(), raw.end()));
    }
  });
  c.host->set_training(false);
  for (std::size_t k = 0; k < n; ++k) {
    if (all_host || !o.trusted(static_cast<std::int64_t>(k))) {
      o.host_label[k] = c.host->predict(inputs[k]).front();
    }
  }
  return o;
}

Path path_of(core::ServedBy by) {
  switch (by) {
    case core::ServedBy::kFabric: return Path::kFabric;
    case core::ServedBy::kHost: return Path::kRerun;
    default: return Path::kHost;
  }
}

// --------------------------------------------------------------------
// stream_cascade: the live cascade of Fig. 1.  Each round the 1000 test
// images go one by one into a fresh StreamSession (batch 32, host Model
// A, DMU at the Table II operating threshold), with seeded Poisson
// arrival stamps.  The timed call is each submit that fills a batch and
// so dispatches it: fabric emulation of 32 images, the DMU, and the
// batch-1 host reruns of the distrusted ones.  Every round submits the
// images in a fresh order drawn from the seed's generator: with one
// fixed order, the few batches that happen to hold the most reruns set
// the p95, which then differed by a third between seeds.
class StreamCascade final : public Workload {
 public:
  void prepare(core::Workbench& wb, std::uint64_t seed) override {
    c_.bind(wb, kStreamModel);
    config_.batch_size = 32;
    config_.dmu_threshold = wb.operating_threshold();
    order_rng_ = Rng(seed);
    images_.clear();
    for (Dim i = 0; i < c_.test->size(); ++i) {
      images_.push_back(c_.test->images.slice_batch(i));
    }
    core::TraceConfig trace;
    trace.pattern = core::TracePattern::kPoisson;
    trace.rate_hz = 1000.0;
    trace.duration_s = 2.0 * static_cast<double>(images_.size()) / 1000.0;
    arrivals_ = core::generate_arrivals(trace, seed ^ 0x57AEULL);
    if (arrivals_.size() < images_.size()) {
      throw std::runtime_error("stream trace too short");
    }
  }

  void round(std::vector<double>& call_ms) override {
    order_ = order_rng_.permutation(images_.size());
    core::StreamSession session(*c_.bnn, *c_.design, *c_.host,
                                c_.host_seconds(), *c_.dmu, config_);
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const double ms = timed_call(
          [&] { session.submit(images_[order_[k]], arrivals_[k]); });
      if ((k + 1) % static_cast<std::size_t>(config_.batch_size) == 0) {
        call_ms.push_back(ms);
      }
    }
    timed_call([&] { session.flush(); });
    timed_call([&] { results_ = session.drain(); });
    stats_ = session.stats();
  }

  void compare_round(CheckResult& result) override {
    // Labels by test image, whatever order this round submitted them in.
    std::vector<int> labels(images_.size(), -1);
    for (const core::StreamResult& r : results_) {
      labels[order_[static_cast<std::size_t>(r.image_id)]] = r.label;
    }
    if (first_labels_.empty()) {
      first_labels_ = labels;
      first_results_ = results_;
      first_order_ = order_;
    } else if (labels != first_labels_) {
      result.fail("stream: a later round served different labels");
    }
  }

  std::int64_t round_requests() const override {
    return static_cast<std::int64_t>(images_.size());
  }

  std::map<std::string, double> counts() const override {
    double reruns = 0;
    for (const core::StreamResult& r : results_) reruns += r.rerun;
    return {{"images", static_cast<double>(results_.size())},
            {"stream.dispatches", static_cast<double>(stats_.dispatches)},
            {"stream.reruns", reruns},
            {"stream.rerun_share",
             reruns / static_cast<double>(images_.size())}};
  }

  std::map<std::string, double> modelled() const override {
    // The first round's timeline: later rounds submit in other orders.
    double reruns = 0, last_ready = 0;
    for (const core::StreamResult& r : first_results_) {
      reruns += r.rerun;
      last_ready = std::max(last_ready, r.ready_at);
    }
    const double n = static_cast<double>(first_results_.size());
    return {{"eq1_img_per_s",
             core::analytic_fps(c_.host_seconds(),
                                c_.design->seconds_per_batch(
                                    config_.batch_size) /
                                    static_cast<double>(config_.batch_size),
                                reruns / n)},
            {"simulated_img_per_s", n / (last_ready - arrivals_.front())}};
  }

  void check(CheckResult& result) override {
    const Oracle oracle = make_oracle(c_, images_, c_.test->labels,
                                      config_.dmu_threshold, false);
    std::vector<Served> served;
    for (const core::StreamResult& r : first_results_) {
      const auto input = static_cast<std::int64_t>(
          first_order_[static_cast<std::size_t>(r.image_id)]);
      served.push_back({r.image_id, input, r.label, path_of(r.served_by)});
    }
    check_served(oracle, round_requests(), served, result);
  }

 private:
  Components c_;
  core::StreamSession::Config config_;
  Rng order_rng_;
  std::vector<std::size_t> order_, first_order_;
  std::vector<Tensor> images_;  ///< the test set, by test index
  std::vector<double> arrivals_;
  std::vector<core::StreamResult> results_, first_results_;
  std::vector<int> first_labels_;
  core::SupervisorStats stats_;
};

// --------------------------------------------------------------------
// batch_cascade: the offline cascade of Table V.  The test set, in a
// seeded order, is cut into 8 fixed chunks of 125 images; each timed
// call is one MultiPrecisionSystem::run over a chunk (host Model C,
// FPGA batch 100, same threshold), which reruns the distrusted images
// on the float net 32 at a time.
class BatchCascade final : public Workload {
 public:
  static constexpr Dim kChunk = 125;

  void prepare(core::Workbench& wb, std::uint64_t seed) override {
    c_.bind(wb, kBatchModel);
    core::MultiPrecisionConfig config;
    config.dmu_threshold = wb.operating_threshold();
    config.batch_size = 100;
    system_ = std::make_unique<core::MultiPrecisionSystem>(
        *c_.bnn, *c_.design, *c_.host, c_.host_seconds(), *c_.dmu, config);
    order_ = seeded_permutation(c_.test->size(), seed);
    chunks_.clear();
    inputs_.clear();
    for (Dim start = 0; start + kChunk <= c_.test->size(); start += kChunk) {
      std::vector<Dim> idx(order_.begin() + start,
                           order_.begin() + start + kChunk);
      chunks_.push_back(c_.test->subset(idx));
      inputs_.emplace_back(idx.begin(), idx.end());
    }
    reports_.resize(chunks_.size());
  }

  void round(std::vector<double>& call_ms) override {
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      call_ms.push_back(
          timed_call([&] { reports_[k] = system_->run(chunks_[k]); }));
    }
  }

  void compare_round(CheckResult& result) override {
    std::vector<ChunkTotals> totals;
    for (const core::MultiPrecisionReport& r : reports_) {
      totals.push_back(totals_of(r));
    }
    if (first_.empty()) first_ = totals;
    else if (totals != first_) {
      result.fail("batch: a later round reported different totals");
    }
  }

  std::int64_t round_requests() const override {
    return kChunk * static_cast<std::int64_t>(chunks_.size());
  }

  std::map<std::string, double> counts() const override {
    double reruns = 0, host_batches = 0, fpga_batches = 0;
    for (const core::MultiPrecisionReport& r : reports_) {
      const ChunkTotals t = totals_of(r);
      reruns += static_cast<double>(t.reruns);
      host_batches += std::ceil(static_cast<double>(t.reruns) / 32.0);
      fpga_batches += std::ceil(static_cast<double>(t.images) /
                                static_cast<double>(
                                    system_->config().batch_size));
    }
    return {{"images", static_cast<double>(round_requests())},
            {"stream.dispatches", fpga_batches},
            {"stream.reruns", reruns},
            {"stream.rerun_share",
             reruns / static_cast<double>(round_requests())},
            {"host_batches", host_batches}};
  }

  std::map<std::string, double> modelled() const override {
    double eq1 = 0, simulated = 0;
    for (const core::MultiPrecisionReport& r : reports_) {
      eq1 += r.analytic_fps / static_cast<double>(reports_.size());
      simulated += r.images_per_second / static_cast<double>(reports_.size());
    }
    return {{"eq1_img_per_s", eq1}, {"simulated_img_per_s", simulated}};
  }

  void check(CheckResult& result) override {
    std::vector<Tensor> images;
    for (Dim i = 0; i < c_.test->size(); ++i) {
      images.push_back(c_.test->images.slice_batch(i));
    }
    const Oracle oracle = make_oracle(c_, images, c_.test->labels,
                                      system_->config().dmu_threshold, false);
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      check_totals(expected_totals(oracle, inputs_[k]), first_[k],
                   "batch chunk " + std::to_string(k), result);
    }
    ChunkTotals all;
    for (const ChunkTotals& t : first_) {
      all.bnn_correct += t.bnn_correct;
      all.final_correct += t.final_correct;
    }
    if (all.final_correct <= all.bnn_correct) {
      result.fail("batch: cascade accuracy does not exceed the BNN's");
    }
  }

 private:
  static ChunkTotals totals_of(const core::MultiPrecisionReport& r) {
    const double n = static_cast<double>(r.images);
    return {r.images, std::llround(r.bnn_accuracy * n),
            std::llround(r.rerun_ratio * n),
            std::llround(r.system_accuracy * n)};
  }

  Components c_;
  std::unique_ptr<core::MultiPrecisionSystem> system_;
  std::vector<Dim> order_;
  std::vector<data::Dataset> chunks_;
  std::vector<std::vector<std::int64_t>> inputs_;
  std::vector<core::MultiPrecisionReport> reports_;
  std::vector<ChunkTotals> first_;
};

// --------------------------------------------------------------------
// serve_fleet: a ServeFrontEnd over a FleetScheduler (3 replicas, 1
// host worker), rebuilt every round.  Four tenants with seeded Poisson
// arrivals are submitted serially; batch 16 with a one-batch window,
// SLO host-routing, DMU at the ~5% rerun point, sampled ABFT.  Replica
// 0 is killed a third of the way in, replica 1 has transient DMA
// errors, replica 2 a host-latency spike; CRC scrub is on.  Nothing is
// shed and no fault touches a label.  The timed call is finish(), which
// runs the whole serial event loop.
class ServeFleet final : public Workload {
 public:
  static constexpr Dim kTenants = 4;
  static constexpr Dim kPerTenant = 64;
  static constexpr Dim kReplicas = 3;
  static constexpr Dim kBatch = 16;

  void prepare(core::Workbench& wb, std::uint64_t seed) override {
    c_.bind(wb, kStreamModel);
    const double steady = c_.design->steady_seconds_per_image();

    session_.dmu_threshold = wb.operating_threshold(0.05);
    session_.auto_dispatch = false;
    session_.queue_capacity = 0;
    session_.batch_size = kBatch;
    session_.host_fallback = false;
    session_.scrub_interval = 2;
    session_.integrity = mpcnn::core::integrity::IntegrityMode::kSample;

    fleet_.batch_size = kBatch;
    fleet_.host_workers = 1;
    session_.give_up_factor = fleet_.hedge_factor;

    serve_.batch_size = kBatch;
    serve_.max_wait_s = static_cast<double>(kBatch) * steady;
    serve_.queue_capacity = 0;
    serve_.slo_policy = core::SloPolicy::kHostRoute;
    serve_.session = session_;

    tenants_.clear();
    for (Dim t = 0; t < kTenants; ++t) {
      core::TenantConfig tenant;
      tenant.name = "tenant" + std::to_string(t);
      // Two latency-bound tenants: their requests are host-routed once
      // the fabric backlog after the kill would miss the SLO.
      tenant.slo_s = t < 2 ? 20.0 * static_cast<double>(kBatch) * steady
                           : 0.0;
      tenants_.push_back(tenant);
    }

    // Offered load: 80% of the three healthy replicas.
    const double total_rate = 0.8 * static_cast<double>(kReplicas) / steady;
    // The seed drives the arrivals; the images are the same every seed
    // (request s of tenant t carries test image t·64 + s), so the DMU
    // rerun work does not swing with the seed.
    requests_.clear();
    for (Dim t = 0; t < kTenants; ++t) {
      core::TraceConfig trace;
      trace.pattern = core::TracePattern::kPoisson;
      trace.rate_hz = total_rate / static_cast<double>(kTenants);
      trace.duration_s = 3.0 * static_cast<double>(kPerTenant) /
                         trace.rate_hz;
      const std::vector<double> arrivals = core::generate_arrivals(
          trace, seed * 4 + static_cast<std::uint64_t>(t) + 1);
      if (static_cast<Dim>(arrivals.size()) < kPerTenant) {
        throw std::runtime_error("serve trace too short");
      }
      for (Dim s = 0; s < kPerTenant; ++s) {
        const Dim input = (t * kPerTenant + s) % c_.test->size();
        requests_.push_back({t, s, arrivals[static_cast<std::size_t>(s)],
                             input, c_.test->images.slice_batch(input)});
      }
    }
    std::stable_sort(requests_.begin(), requests_.end(),
                     [](const Request& a, const Request& b) {
                       return a.arrival < b.arrival;
                     });

    // Dispatches per replica per round, to place the faults in it.
    const Dim per_replica =
        kTenants * kPerTenant / kBatch / kReplicas;  // about 5
    core::FaultPlan kill, dma, spike;
    kill.add({core::FaultKind::kFabricStall, per_replica / 3,
              Dim{1} << 40, 1.0, 1});
    dma.add({core::FaultKind::kDmaError, 1, per_replica, 1.0, 1});
    spike.add({core::FaultKind::kHostLatencySpike, 0, per_replica / 2, 4.0,
               1});
    injectors_.clear();
    injectors_.emplace_back(core::replica_seed(seed, 0), kill);
    injectors_.emplace_back(core::replica_seed(seed, 1), dma);
    injectors_.emplace_back(core::replica_seed(seed, 2), spike);
  }

  void round(std::vector<double>& call_ms) override {
    std::vector<core::StreamSession> sessions;
    for (Dim r = 0; r < kReplicas; ++r) {
      sessions.emplace_back(*c_.bnn, *c_.design, *c_.host, c_.host_seconds(),
                            *c_.dmu, session_,
                            &injectors_[static_cast<std::size_t>(r)]);
    }
    core::ServeFrontEnd front(
        serve_, tenants_,
        core::FleetScheduler(fleet_, std::move(sessions), c_.host,
                             c_.host_seconds()));
    for (const Request& q : requests_) {
      timed_call([&] { front.submit(q.tenant, q.image, q.arrival); });
    }
    call_ms.push_back(timed_call([&] { report_ = front.finish(); }));
    results_ = front.results();
  }

  void compare_round(CheckResult& result) override {
    std::vector<int> labels;
    for (const core::ServeResult& r : results_) labels.push_back(r.label);
    if (first_labels_.empty()) {
      first_labels_ = labels;
      first_results_ = results_;
      first_report_ = report_;
    } else if (labels != first_labels_) {
      result.fail("serve: a later round served different labels");
    }
  }

  std::int64_t round_requests() const override {
    return static_cast<std::int64_t>(requests_.size());
  }

  std::map<std::string, double> counts() const override {
    const core::ServeReport& r = report_;
    double reruns = 0;
    for (const core::ServeResult& s : results_) reruns += s.rerun;
    const auto d = [](Dim v) { return static_cast<double>(v); };
    return {{"images", d(r.total.served)},
            {"stream.dispatches", d(r.supervisor.dispatches)},
            {"stream.reruns", reruns},
            {"stream.rerun_share", reruns / d(round_requests())},
            {"serve.requests", d(r.total.offered)},
            {"serve.batches", d(r.batches)},
            {"serve.mean_batch_fill", r.mean_batch_fill},
            {"serve.host_routed", d(r.total.host_routed)},
            {"fleet.redispatched_batches", d(r.fleet.redispatched_batches)},
            {"fleet.host_worker_images",
             d(r.fleet.host_fallback_images + r.fleet.host_routed)},
            {"supervisor.watchdog_timeouts",
             d(r.supervisor.watchdog_timeouts)},
            {"supervisor.retries", d(r.supervisor.retries)},
            {"supervisor.degraded_batches", d(r.supervisor.degraded_batches)},
            {"supervisor.scrub_cycles", d(r.supervisor.scrub_cycles)},
            {"integrity.sdc_detected", d(r.supervisor.sdc_detected)}};
  }

  std::map<std::string, double> modelled() const override {
    return {{"simulated_img_per_s", report_.throughput_fps}};
  }

  void check(CheckResult& result) override {
    std::vector<Tensor> images;
    std::vector<int> truth;
    for (const Request& q : requests_) {
      images.push_back(q.image);
      truth.push_back(c_.test->labels[static_cast<std::size_t>(q.input)]);
    }
    const Oracle oracle =
        make_oracle(c_, images, truth, session_.dmu_threshold, true);
    // ServeResult names a request by (tenant, tenant_seq); map it back
    // to its position in the submission order.
    std::map<std::pair<Dim, Dim>, std::int64_t> position;
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      position[{requests_[k].tenant, requests_[k].seq}] =
          static_cast<std::int64_t>(k);
    }
    std::vector<Served> served;
    for (const core::ServeResult& r : first_results_) {
      const auto it = position.find({r.tenant, r.tenant_seq});
      if (it == position.end()) {
        result.fail("serve: result for an unknown request");
        continue;
      }
      if (r.status != core::ServeStatus::kOk &&
          r.status != core::ServeStatus::kDegraded) {
        result.fail("serve: request " + std::to_string(it->second) +
                    " was shed");
        continue;
      }
      served.push_back({it->second, it->second, r.label,
                        path_of(r.served_by)});
    }
    check_served(oracle, round_requests(), served, result);
    if (first_report_.supervisor.sdc_detected != 0) {
      result.fail("serve: the integrity checks flagged a fault-free run");
    }
  }

  bool has_integrity() const override { return true; }
  void set_integrity(bool on) override {
    session_.integrity = on ? mpcnn::core::integrity::IntegrityMode::kSample
                            : mpcnn::core::integrity::IntegrityMode::kOff;
    serve_.session = session_;
  }

 private:
  struct Request {
    Dim tenant = 0;
    Dim seq = 0;
    double arrival = 0.0;
    Dim input = 0;  ///< test-set index
    Tensor image;
  };

  Components c_;
  core::StreamSession::Config session_;
  core::FleetConfig fleet_;
  core::ServeConfig serve_;
  std::vector<core::TenantConfig> tenants_;
  std::vector<Request> requests_;
  std::vector<core::FaultInjector> injectors_;
  core::ServeReport report_, first_report_;
  std::vector<core::ServeResult> results_, first_results_;
  std::vector<int> first_labels_;
};

// --------------------------------------------------------------------
// scene_motion: a SceneStreamSession (Model A, tile cache on) over a
// seeded 12-frame local-motion 360p trace, tile 64 and halo 8: 60 tiles
// per frame, about 88% cache hits.  A fresh session per round, so every
// round starts cold and does the same work.  The timed call is one
// process_frame.  The DMU threshold is 0, so no tile escalates: whether
// the seed's objects are ones the DMU distrusts decided up to 11 batch-1
// host reruns on the cold first frame (even at the 1% rerun point),
// which swung the p95 by about 40% between seeds.  Host reruns are
// measured by stream_cascade; this workload measures the tile path.
class SceneMotion final : public Workload {
 public:
  void prepare(core::Workbench& wb, std::uint64_t seed) override {
    c_.bind(wb, kStreamModel);
    config_.tile = 64;
    config_.halo = 8;
    config_.batch_size = 16;
    config_.dmu_threshold = 0.0f;
    data::SceneTraceConfig trace;
    trace.pattern = data::ScenePattern::kLocalMotion;
    trace.frames = 12;
    trace.seed = seed;
    trace.scene.height = 360;
    trace.scene.width = 640;
    trace_ = data::generate_scene_trace(wb.objects(), trace);
  }

  void round(std::vector<double>& call_ms) override {
    core::SceneStreamSession session = make_session(true);
    for (const Tensor& frame : trace_.frames) {
      call_ms.push_back(timed_call([&] { session.process_frame(frame); }));
    }
    verdicts_ = session.verdicts();
    stats_ = session.stats();
    dispatches_ = session.supervisor().dispatches;
    simulated_fps_ = session.report().effective_fps;
  }

  void compare_round(CheckResult& result) override {
    if (first_.empty()) first_ = verdicts_;
    else check_scene(verdicts_, first_, result);
  }

  std::int64_t round_requests() const override {
    return static_cast<std::int64_t>(verdicts_.size());
  }

  std::map<std::string, double> counts() const override {
    const auto d = [](Dim v) { return static_cast<double>(v); };
    return {{"images", d(stats_.tiles)},
            {"stream.dispatches", d(dispatches_)},
            {"stream.reruns", d(stats_.escalated)},
            {"stream.rerun_share",
             d(stats_.escalated) / d(std::max<Dim>(stats_.cache_misses, 1))},
            {"scene.tiles", d(stats_.tiles)},
            {"scene.cache_hits", d(stats_.cache_hits)},
            {"scene.hit_rate", d(stats_.cache_hits) / d(stats_.tiles)},
            {"scene.escalated", d(stats_.escalated)}};
  }

  std::map<std::string, double> modelled() const override {
    return {{"simulated_frames_per_s", simulated_fps_}};
  }

  void check(CheckResult& result) override {
    core::SceneStreamSession uncached = make_session(false);
    (void)uncached.run(trace_);
    check_scene(first_, uncached.verdicts(), result);

    const core::SceneTileFeed feed(trace_, config_.tile, config_.halo);
    std::vector<Tensor> tiles;
    for (Dim i = 0; i < feed.size(); ++i) tiles.push_back(feed.at(i));
    const Oracle oracle =
        make_oracle(c_, tiles, {}, config_.dmu_threshold, false);
    std::vector<Served> served;
    for (std::size_t t = 0; t < first_.size(); ++t) {
      const core::TileVerdict& v = first_[t];
      const auto i = static_cast<std::int64_t>(t);
      served.push_back({i, i, v.label,
                        v.escalated != 0 ? Path::kRerun : Path::kFabric});
      if (v.bnn_label != oracle.bnn_label[t]) {
        result.fail("scene tile " + std::to_string(t) +
                    ": BNN label differs from the scalar oracle");
      }
    }
    check_served(oracle, static_cast<std::int64_t>(tiles.size()), served,
                 result);
  }

 private:
  core::SceneStreamSession make_session(bool cached) const {
    core::SceneStreamSession::Config config = config_;
    config.cache_enabled = cached;
    return core::SceneStreamSession(*c_.bnn, *c_.design, *c_.host,
                                    c_.host_seconds(), *c_.dmu, config);
  }

  Components c_;
  core::SceneStreamSession::Config config_;
  data::SceneTrace trace_;
  std::vector<core::TileVerdict> verdicts_, first_;
  core::SceneStats stats_;
  Dim dispatches_ = 0;
  double simulated_fps_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stream_cascade", "batch_cascade", "serve_fleet", "scene_motion"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream_cascade") return std::make_unique<StreamCascade>();
  if (name == "batch_cascade") return std::make_unique<BatchCascade>();
  if (name == "serve_fleet") return std::make_unique<ServeFleet>();
  if (name == "scene_motion") return std::make_unique<SceneMotion>();
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
