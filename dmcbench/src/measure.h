// Measurement primitives of the benchmark: order statistics, an in-memory
// span recorder with self-time accounting, an outcome digest, and process
// clocks. Nothing here touches the library; the workloads wrap library calls
// in spans from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dmcbench {

// Median of `values` (mean of the two middle values for even counts).
// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

// First and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default 'exclusive' method)
// computes them. Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

// One timed call into a layer: name, start, end, the enclosing span (-1 for
// a root) and the repetition it belongs to. Times are seconds since the
// recorder was created.
struct Span {
  std::string_view name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint32_t run = 0;

  double duration_s() const { return end_s - start_s; }
};

// Spans are kept in memory (capacity reserved up front) and written out once
// when the benchmark ends. Spans nest strictly: the recorder tracks the open
// span, so begin/end pairs must be properly nested on one thread. Names must
// outlive the recorder (string literals).
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 4096);

  int begin(std::string_view name, std::uint32_t run);
  void end(int id);

  // RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, std::uint32_t run)
        : recorder_(recorder), id_(recorder.begin(name, run)) {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the durations of its direct
  // children (which, nesting strictly, lie inside it and do not overlap).
  std::vector<double> self_times() const;
  // Sum of self times of the spans called `name` in repetition `run`.
  double self_total(std::string_view name, std::uint32_t run) const;
  // Sum of durations of the spans called `name` in repetition `run`.
  double total(std::string_view name, std::uint32_t run) const;

  // {"spans":[{"name":..,"start_s":..,"end_s":..,"self_s":..,"parent":..,
  //  "run":..},...]}
  void write_json(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// FNV-1a over the bytes of the values fed to it. Doubles hash by bit
// pattern, so two digests agree only when the simulations agree exactly.
class Digest {
 public:
  Digest& add(std::uint64_t value);
  Digest& add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return add(bits);
  }
  Digest& add(std::string_view text);
  std::uint64_t value() const { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// Wall and process CPU (user + sys, all threads) clocks.
double wall_now_s();
double cpu_now_s();
double peak_rss_mb();

// Fixed-work calibration: seconds for a pure integer spin loop. Reported with
// each run so host drift can be told apart from a code change.
double calibration_s();
// The CPU's brand string (cpuid), or "unknown".
std::string cpu_model();

}  // namespace dmcbench
