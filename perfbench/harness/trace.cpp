#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

struct Buffer {
  std::uint16_t id = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

namespace {

constexpr int kKinds = static_cast<int>(SpanKind::kCount);

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mu
};

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_call{-1};
// (thread + 1) << 32 | index of the open fanned-out region on thread 0;
// 0 when none.  Read by pool workers to link their first span.
std::atomic<std::uint64_t> g_region{0};
std::thread::id g_main_id;

Registry& registry() {
  static Registry r;
  return r;
}

thread_local Buffer* t_buffer = nullptr;

Buffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto buffer = std::make_unique<Buffer>();
    buffer->id = static_cast<std::uint16_t>(r.buffers.size());
    buffer->spans.reserve(1 << 16);
    t_buffer = buffer.get();
    r.buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCall: return "call";
    case SpanKind::kBnnImage: return "bnn.run_reference";
    case SpanKind::kBnnBatch: return "bnn.run_reference_batch";
    case SpanKind::kBitIm2col: return "bnn.bit_im2col";
    case SpanKind::kXnorGemm: return "bnn.xnor_gemm";
    case SpanKind::kPredict: return "nn.predict";
    case SpanKind::kGemm: return "tensor.gemm";
    case SpanKind::kIm2col: return "tensor.im2col";
    case SpanKind::kDmu: return "dmu.confidence";
    case SpanKind::kRegion: return "pool.parallel_for";
    case SpanKind::kChunk: return "pool.chunk";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void register_main_thread() {
  g_main_id = std::this_thread::get_id();
  if (this_thread_buffer().id != 0) {
    throw std::logic_error("register_main_thread must run first");
  }
}

bool is_main_thread() { return std::this_thread::get_id() == g_main_id; }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_release); }
void set_call(std::int64_t id) {
  g_call.store(id, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanKind kind, std::int64_t work, std::uint8_t flags) {
  if (!tracing()) return;
  Buffer& b = this_thread_buffer();
  Span s;
  s.kind = kind;
  s.work = work;
  s.flags = flags;
  s.thread = b.id;
  s.call = g_call.load(std::memory_order_relaxed);
  if (!b.open.empty()) {
    s.parent = b.open.back();
    s.parent_thread = b.id;
  } else if (const std::uint64_t r = g_region.load(std::memory_order_acquire);
             r != 0 && b.id != 0) {
    s.parent_thread = static_cast<std::uint16_t>((r >> 32) - 1);
    s.parent = static_cast<std::int32_t>(r & 0xFFFFFFFFu);
  }
  buffer_ = &b;
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.open.push_back(index_);
  if (kind == SpanKind::kRegion && flags != 0 && b.id == 0) {
    region_ = true;
    saved_region_ = g_region.exchange(
        (std::uint64_t{1} << 32) | static_cast<std::uint32_t>(index_),
        std::memory_order_acq_rel);
  }
  s.t0 = now_ns();
  b.spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<std::size_t>(index_)].t1 = now_ns();
  buffer_->open.pop_back();
  if (region_) g_region.store(saved_region_, std::memory_order_release);
}

std::vector<std::vector<Span>> collect_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::vector<Span>> out;
  for (auto& buffer : r.buffers) {
    out.push_back(std::move(buffer->spans));
    buffer->spans.clear();
  }
  return out;
}

void write_spans(const std::vector<std::vector<Span>>& spans,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "thread\tindex\tkind\tstart_ns\tend_ns\tparent_thread\t"
               "parent\tcall\twork\n");
  for (const auto& thread : spans) {
    for (std::size_t i = 0; i < thread.size(); ++i) {
      const Span& s = thread[i];
      std::fprintf(f, "%u\t%zu\t%s\t%lld\t%lld\t%u\t%d\t%lld\t%lld\n",
                   static_cast<unsigned>(s.thread), i,
                   span_kind_name(s.kind), static_cast<long long>(s.t0),
                   static_cast<long long>(s.t1),
                   static_cast<unsigned>(s.parent_thread), s.parent,
                   static_cast<long long>(s.call),
                   static_cast<long long>(s.work));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

namespace {

// Span families whose nested members must not be counted twice in a
// thread sum or an interval union.
int family(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBnnImage:
    case SpanKind::kBnnBatch: return 1;
    default: return 100 + static_cast<int>(kind);
  }
}

bool nested_in_family(const std::vector<std::vector<Span>>& spans,
                      const Span& s) {
  const int fam = family(s.kind);
  std::uint16_t t = s.parent_thread;
  std::int32_t p = s.parent;
  while (p >= 0) {
    const Span& parent = spans[t][static_cast<std::size_t>(p)];
    if (family(parent.kind) == fam) return true;
    t = parent.parent_thread;
    p = parent.parent;
  }
  return false;
}

const Span* parent_of(const std::vector<std::vector<Span>>& spans,
                      const Span& s) {
  return s.parent < 0
             ? nullptr
             : &spans[s.parent_thread][static_cast<std::size_t>(s.parent)];
}

// The kind whose layer a span's self time belongs to (see analyse_spans).
SpanKind owner(const std::vector<std::vector<Span>>& spans, const Span& s) {
  const Span* p = &s;
  for (;;) {
    if (p->kind == SpanKind::kChunk) {
      p = parent_of(spans, *p);  // the region; its opener owns the chunk
      if (p != nullptr) p = parent_of(spans, *p);
    } else if (p->kind == SpanKind::kRegion && p->flags == 0) {
      p = parent_of(spans, *p);
    } else {
      return p->kind;
    }
    if (p == nullptr) return SpanKind::kCall;
  }
}

double union_ms(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += static_cast<double>(hi - lo);
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += static_cast<double>(hi - lo);
  return total * 1e-6;
}

}  // namespace

LayerTimes analyse_spans(const std::vector<std::vector<Span>>& spans,
                         double wall_ms) {
  LayerTimes out;
  out.wall_ms = wall_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals[kKinds];
  std::vector<double> region_us;
  for (const auto& thread : spans) {
    std::vector<std::int64_t> child_ns(thread.size(), 0);
    for (const Span& s : thread) {
      if (s.parent >= 0 && s.parent_thread == s.thread) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    for (std::size_t i = 0; i < thread.size(); ++i) {
      const Span& s = thread[i];
      const int k = static_cast<int>(s.kind);
      const std::int64_t dur = s.t1 - s.t0;
      ++out.spans;
      ++out.count[k];
      out.work[k] += s.work;
      if (s.thread == 0) {
        out.self_ms[static_cast<int>(owner(spans, s))] +=
            static_cast<double>(dur - child_ns[i]) * 1e-6;
        if (s.kind == SpanKind::kRegion && s.flags != 0) {
          ++out.regions;
          region_us.push_back(static_cast<double>(dur) * 1e-3);
          out.region_ms += static_cast<double>(dur) * 1e-6;
        }
      }
      if (!nested_in_family(spans, s)) {
        out.thread_ms[k] += static_cast<double>(dur) * 1e-6;
        intervals[k].emplace_back(s.t0, s.t1);
      }
    }
  }
  // The two bnn entry points form one layer: union them together.
  auto& bnn = intervals[static_cast<int>(SpanKind::kBnnImage)];
  auto& batch = intervals[static_cast<int>(SpanKind::kBnnBatch)];
  bnn.insert(bnn.end(), batch.begin(), batch.end());
  batch.clear();
  for (int k = 0; k < kKinds; ++k) out.union_ms[k] = union_ms(intervals[k]);
  if (!region_us.empty()) {
    std::sort(region_us.begin(), region_us.end());
    out.region_us_p50 = region_us[(region_us.size() - 1) / 2];
  }
  return out;
}

}  // namespace perfbench
