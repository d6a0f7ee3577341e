// In-memory span recorder for the traced benchmark run.
//
// Spans come from two places: the harness opens one around each
// top-level call it makes into a workload's system (kCall), and, in the
// perfbench_traced binary only, the link-time wrappers of wraps.cpp open
// one around each call into a layer's public entry point.  Recording is
// off until set_tracing(true); the untraced perfbench binary has no
// wrappers at all, so its end-to-end figures carry no tracing cost.
//
// Each thread appends to its own buffer (no locking on the hot path);
// collect_spans() is called once the pool is idle.  A span's parent is
// the innermost open span on its thread or, for the first span a pool
// worker opens inside a region, the region span on the submitting
// thread — so every span links back to the harness call that caused it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint16_t {
  kCall,       ///< harness: one top-level call into the system under test
  kBnnImage,   ///< bnn::run_reference (work = 1 image)
  kBnnBatch,   ///< bnn::run_reference_batch (work = images)
  kBitIm2col,  ///< bnn::bit_im2col
  kXnorGemm,   ///< bnn::xnor_gemm (work = 2·rows·rows·cols bit operations)
  kPredict,    ///< nn::Net::predict (work = images)
  kGemm,       ///< gemm / gemm_bt (work = 2·M·N·K flops)
  kIm2col,     ///< im2col
  kDmu,        ///< core::Dmu::confidence
  kRegion,     ///< core::parallel_for (flags = 1 when it fans out)
  kChunk,      ///< one chunk of a fanned-out region, on whichever thread
  kCount,
};

const char* span_kind_name(SpanKind kind);

struct Span {
  std::int64_t t0 = 0;    ///< ns, steady clock
  std::int64_t t1 = 0;
  std::int64_t work = 0;  ///< see SpanKind
  std::int64_t call = -1; ///< harness call id current when it opened
  std::int32_t parent = -1;  ///< index into parent_thread's buffer
  std::uint16_t parent_thread = 0;
  std::uint16_t thread = 0;
  SpanKind kind = SpanKind::kCall;
  std::uint8_t flags = 0;
};

std::int64_t now_ns();

/// Must be called first on the thread that submits all top-level work:
/// it becomes thread 0, the thread whose timeline the attribution
/// covers.
void register_main_thread();
bool is_main_thread();

bool tracing();
void set_tracing(bool on);
/// Tags every span opened from now on (on any thread) with `id`.
void set_call(std::int64_t id);

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::int64_t work = 0,
                      std::uint8_t flags = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  struct Buffer* buffer_ = nullptr;
  std::int32_t index_ = -1;
  std::uint64_t saved_region_ = 0;
  bool region_ = false;
};

/// Moves every recorded span out of the per-thread buffers (indexed by
/// thread id).  Call only while no span is open.
std::vector<std::vector<Span>> collect_spans();

/// Writes spans as tab-separated text, one per line:
/// thread, index, kind, start_ns, end_ns, parent_thread, parent, call, work.
void write_spans(const std::vector<std::vector<Span>>& spans,
                 const std::string& path);

/// Per-layer totals over one traced phase.
struct LayerTimes {
  double wall_ms = 0.0;          ///< timed wall time of the traced phase
  double self_ms[static_cast<int>(SpanKind::kCount)] = {};  ///< thread 0
  double thread_ms[static_cast<int>(SpanKind::kCount)] = {};
  double union_ms[static_cast<int>(SpanKind::kCount)] = {};
  std::int64_t count[static_cast<int>(SpanKind::kCount)] = {};
  std::int64_t work[static_cast<int>(SpanKind::kCount)] = {};
  std::int64_t regions = 0;          ///< fanned-out regions on thread 0
  double region_us_p50 = 0.0;
  double region_ms = 0.0;
  std::int64_t spans = 0;
};

/// Attributes thread 0's timeline: each span's self time is its length
/// minus its children on the same thread, summed per owning kind.  A
/// region that runs inline and the chunks of a fanned-out region belong
/// to the layer that opened the region, so the pool keeps only the time
/// the submitting thread spends dispatching and waiting.  Spans not
/// nested in one of their own family give the thread sums and interval
/// unions over all threads.
LayerTimes analyse_spans(const std::vector<std::vector<Span>>& spans,
                         double wall_ms);

}  // namespace perfbench
