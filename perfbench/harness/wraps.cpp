// Link-time span wrappers (perfbench_traced only).
//
// CMakeLists.txt links with --wrap=<symbol> for each entry point below,
// so every call into it from another object file lands in the matching
// __wrap_ function, which opens a span and forwards to __real_<symbol>.
// The asm labels bind the C++ declarations to those mangled names; a
// member function is declared as a free function taking `this` first,
// which is how the Itanium C++ ABI passes it.
#include <cstdint>
#include <functional>
#include <vector>

#include "bnn/compile.hpp"
#include "core/dmu.hpp"
#include "core/threadpool.hpp"
#include "nn/net.hpp"
#include "tensor/im2col.hpp"
#include "trace.hpp"

using mpcnn::Dim;
using mpcnn::Tensor;
using mpcnn::bnn::BitMatrix;
using mpcnn::bnn::BnnExec;
using mpcnn::bnn::CompiledBnn;
using perfbench::ScopedSpan;
using perfbench::SpanKind;

#define MANGLED(name) __asm__(name)
#define WRAP(sym) MANGLED("__wrap_" sym)
#define REAL(sym) MANGLED("__real_" sym)

#define SYM_RUN_REF \
  "_ZN5mpcnn3bnn13run_referenceERKNS0_11CompiledBnnERKNS_6TensorENS0_7BnnExecE"
#define SYM_RUN_BATCH                                                       \
  "_ZN5mpcnn3bnn19run_reference_batchERKNS0_11CompiledBnnERKNS_6TensorENS0_" \
  "7BnnExecE"
#define SYM_BIT_IM2COL "_ZN5mpcnn3bnn10bit_im2colEPKmlllll"
#define SYM_XNOR_GEMM "_ZN5mpcnn3bnn9xnor_gemmERKNS0_9BitMatrixES3_Pi"
#define SYM_PREDICT "_ZN5mpcnn2nn3Net7predictERKNS_6TensorE"
#define SYM_GEMM "_ZN5mpcnn4gemmElllfPKfS1_fPf"
#define SYM_GEMM_BT "_ZN5mpcnn7gemm_btElllfPKfS1_fPf"
#define SYM_IM2COL "_ZN5mpcnn6im2colERKNS_12ConvGeometryEPKfPf"
#define SYM_DMU "_ZNK5mpcnn4core3Dmu10confidenceERKSt6vectorIfSaIfEE"
#define SYM_PARALLEL_FOR "_ZN5mpcnn4core12parallel_forElllRKSt8functionIFvllEE"

using Scores = std::vector<std::int32_t>;
using Body = std::function<void(std::int64_t, std::int64_t)>;

Scores real_run_reference(const CompiledBnn&, const Tensor&, BnnExec)
    REAL(SYM_RUN_REF);
Scores wrap_run_reference(const CompiledBnn&, const Tensor&, BnnExec)
    WRAP(SYM_RUN_REF);
Scores wrap_run_reference(const CompiledBnn& net, const Tensor& image,
                          BnnExec exec) {
  ScopedSpan span(SpanKind::kBnnImage, 1);
  return real_run_reference(net, image, exec);
}

std::vector<Scores> real_run_reference_batch(const CompiledBnn&,
                                             const Tensor&, BnnExec)
    REAL(SYM_RUN_BATCH);
std::vector<Scores> wrap_run_reference_batch(const CompiledBnn&,
                                             const Tensor&, BnnExec)
    WRAP(SYM_RUN_BATCH);
std::vector<Scores> wrap_run_reference_batch(const CompiledBnn& net,
                                             const Tensor& images,
                                             BnnExec exec) {
  ScopedSpan span(SpanKind::kBnnBatch, images.shape()[0]);
  return real_run_reference_batch(net, images, exec);
}

BitMatrix real_bit_im2col(const std::uint64_t*, Dim, Dim, Dim, Dim, Dim)
    REAL(SYM_BIT_IM2COL);
BitMatrix wrap_bit_im2col(const std::uint64_t*, Dim, Dim, Dim, Dim, Dim)
    WRAP(SYM_BIT_IM2COL);
BitMatrix wrap_bit_im2col(const std::uint64_t* planes, Dim plane_words,
                          Dim ch, Dim h, Dim w, Dim kernel) {
  ScopedSpan span(SpanKind::kBitIm2col);
  return real_bit_im2col(planes, plane_words, ch, h, w, kernel);
}

void real_xnor_gemm(const BitMatrix&, const BitMatrix&, std::int32_t*)
    REAL(SYM_XNOR_GEMM);
void wrap_xnor_gemm(const BitMatrix&, const BitMatrix&, std::int32_t*)
    WRAP(SYM_XNOR_GEMM);
void wrap_xnor_gemm(const BitMatrix& a, const BitMatrix& b,
                    std::int32_t* c) {
  // One XNOR and one popcount-add per bit of every row pair.
  ScopedSpan span(SpanKind::kXnorGemm, 2 * a.rows() * b.rows() * a.cols());
  real_xnor_gemm(a, b, c);
}

std::vector<int> real_predict(mpcnn::nn::Net*, const Tensor&)
    REAL(SYM_PREDICT);
std::vector<int> wrap_predict(mpcnn::nn::Net*, const Tensor&)
    WRAP(SYM_PREDICT);
std::vector<int> wrap_predict(mpcnn::nn::Net* net, const Tensor& batch) {
  ScopedSpan span(SpanKind::kPredict, batch.shape()[0]);
  return real_predict(net, batch);
}

#define GEMM_WRAPPER(real_name, wrap_name, sym)                             \
  void real_name(std::int64_t, std::int64_t, std::int64_t, float,          \
                 const float*, const float*, float, float*) REAL(sym);     \
  void wrap_name(std::int64_t, std::int64_t, std::int64_t, float,          \
                 const float*, const float*, float, float*) WRAP(sym);     \
  void wrap_name(std::int64_t M, std::int64_t N, std::int64_t K,           \
                 float alpha, const float* A, const float* B, float beta,  \
                 float* C) {                                               \
    ScopedSpan span(SpanKind::kGemm, 2 * M * N * K);                       \
    real_name(M, N, K, alpha, A, B, beta, C);                              \
  }
GEMM_WRAPPER(real_gemm, wrap_gemm, SYM_GEMM)
GEMM_WRAPPER(real_gemm_bt, wrap_gemm_bt, SYM_GEMM_BT)

void real_im2col(const mpcnn::ConvGeometry&, const float*, float*)
    REAL(SYM_IM2COL);
void wrap_im2col(const mpcnn::ConvGeometry&, const float*, float*)
    WRAP(SYM_IM2COL);
void wrap_im2col(const mpcnn::ConvGeometry& g, const float* im,
                 float* col) {
  ScopedSpan span(SpanKind::kIm2col);
  real_im2col(g, im, col);
}

float real_dmu_confidence(const mpcnn::core::Dmu*, const std::vector<float>&)
    REAL(SYM_DMU);
float wrap_dmu_confidence(const mpcnn::core::Dmu*, const std::vector<float>&)
    WRAP(SYM_DMU);
float wrap_dmu_confidence(const mpcnn::core::Dmu* dmu,
                          const std::vector<float>& scores) {
  ScopedSpan span(SpanKind::kDmu, 1);
  return real_dmu_confidence(dmu, scores);
}

namespace {
// Depth of fanned-out regions open on this thread: a parallel_for
// called inside one runs inline (see core/threadpool.cpp).
thread_local int t_region_depth = 0;

struct RegionDepth {
  explicit RegionDepth(bool on) : on_(on) { t_region_depth += on_; }
  ~RegionDepth() { t_region_depth -= on_; }
  RegionDepth(const RegionDepth&) = delete;
  RegionDepth& operator=(const RegionDepth&) = delete;
  int on_;
};
}  // namespace

void real_parallel_for(std::int64_t, std::int64_t, std::int64_t, const Body&)
    REAL(SYM_PARALLEL_FOR);
void wrap_parallel_for(std::int64_t, std::int64_t, std::int64_t, const Body&)
    WRAP(SYM_PARALLEL_FOR);
void wrap_parallel_for(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, const Body& fn) {
  const std::int64_t chunks =
      end > begin && grain >= 1 ? (end - begin + grain - 1) / grain : 0;
  // Regions opened under a SerialGuard also run inline; that guard is
  // not observable from here, so such regions count as fanned out.
  const bool fans_out = chunks > 1 && t_region_depth == 0 &&
                        perfbench::is_main_thread() &&
                        mpcnn::core::thread_count() > 1;
  ScopedSpan span(SpanKind::kRegion, chunks, fans_out ? 1 : 0);
  RegionDepth depth(fans_out);
  if (!fans_out || !perfbench::tracing()) {
    real_parallel_for(begin, end, grain, fn);
    return;
  }
  // Chunk spans separate the body's work (the caller's layer) from the
  // time the submitting thread spends waking and waiting for workers.
  const Body chunked = [&fn](std::int64_t lo, std::int64_t hi) {
    ScopedSpan chunk(SpanKind::kChunk, hi - lo);
    fn(lo, hi);
  };
  real_parallel_for(begin, end, grain, chunked);
}
