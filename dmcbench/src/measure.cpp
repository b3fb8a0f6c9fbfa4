#include "measure.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace dmcbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method='exclusive'): m = len + 1, cut points at
  // i * m / 4 with linear interpolation, clamped to the data's index range.
  const auto ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  constexpr long long n = 4;
  double cut[3] = {};
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    const auto lo = values[static_cast<std::size_t>(j - 1)];
    const auto hi = values[static_cast<std::size_t>(j)];
    cut[i - 1] = (lo * static_cast<double>(n - delta) +
                  hi * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(capacity);
}

int SpanRecorder::begin(std::string_view name, std::uint32_t run) {
  const std::chrono::duration<double> t =
      std::chrono::steady_clock::now() - origin_;
  spans_.push_back(Span{name, t.count(), t.count(), open_, run});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanRecorder::end(int id) {
  if (id != open_) throw std::logic_error("spans closed out of order");
  const std::chrono::duration<double> t =
      std::chrono::steady_clock::now() - origin_;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = t.count();
  open_ = span.parent;
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_s();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].duration_s();
    }
  }
  return self;
}

double SpanRecorder::self_total(std::string_view name,
                                std::uint32_t run) const {
  const std::vector<double> self = self_times();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].run == run) sum += self[i];
  }
  return sum;
}

double SpanRecorder::total(std::string_view name, std::uint32_t run) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name && span.run == run) sum += span.duration_s();
  }
  return sum;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<double> self = self_times();
  char buf[256];
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%.*s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"self_s\":%.9f,\"parent\":%d,\"run\":%u}",
                  i == 0 ? "" : ",\n", static_cast<int>(s.name.size()),
                  s.name.data(), s.start_s, s.end_s, self[i], s.parent,
                  s.run);
    out << buf;
  }
  out << "]}\n";
}

Digest& Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xFFU;
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(text.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

double wall_now_s() {
  const std::chrono::duration<double> t =
      std::chrono::steady_clock::now().time_since_epoch();
  return t.count();
}

double cpu_now_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibration_s() {
  const double start = wall_now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 40'000'000U; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // An empty asm that "reads and writes" x keeps the chain from being
    // folded or vectorized away.
    asm volatile("" : "+r"(x));
  }
  return wall_now_s() - start;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace dmcbench
