#ifndef SPECQP_PERFBENCH_TRACE_H_
#define SPECQP_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace specqp::perfbench {

// The library layers a span is charged to, plus the harness's own time.
enum class Layer { kRdf, kQuery, kCore, kTopk, kHarness };
inline constexpr size_t kNumLayers = 5;
std::string_view LayerName(Layer layer);

// In-memory span recorder of the traced run. Spans are recorded by the
// harness around its calls into the library (no spans inside src/), plus
// the durations the engine reports per request (admission, plan, exec),
// which become child spans laid end to end from the start of their Submit
// span. Spans of one request share its id. Only the thread driving the
// load records spans, so the recorder takes no lock.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr size_t kNoParent = std::numeric_limits<size_t>::max();
  static constexpr uint64_t kNoRequest = 0;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // Records a finished span; returns its handle for use as a parent.
  size_t Record(const char* name, Layer layer, uint64_t request,
                size_t parent, Clock::time_point start, Clock::time_point end);
  // Records a span known only by its duration, starting `offset_ms` after
  // the start of `parent`.
  size_t RecordReported(const char* name, Layer layer, uint64_t request,
                        size_t parent, double offset_ms, double duration_ms);

  // Per layer: the sum of its spans' self times (a span's duration minus
  // the part of it its direct children cover), in milliseconds.
  std::array<double, kNumLayers> SelfTimeMs() const;

  size_t size() const { return spans_.size(); }

  // Writes every span as a Chrome trace-event JSON file.
  [[nodiscard]] Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    uint64_t request;
    size_t parent;
    double start_us;
    double end_us;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_TRACE_H_
