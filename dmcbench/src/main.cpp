// dmcbench: runs one workload for a fixed time and prints its metrics.
//
//   dmcbench --workload <paper_fig2|admission_overload|sharded_forensics>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics: repetitions of the workload run
// back to back until --seconds have passed, and each timing is the median
// over repetitions. --trace 1 measures the per-layer metrics: each round runs
// the workload once untraced and once (or, for the server variants, several
// times) with spans around the calls into the library, and the spans are
// written to --spans-out when the run ends. The last line of stdout is one
// JSON object {"correct","attempted","failed","metrics"}.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "measure.h"
#include "obs/export.h"
#include "workloads.h"

namespace dmcbench {
namespace {

struct Args {
  Workload workload = Workload::paper_fig2;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
  Sizes sizes;
  // min(4, cores): copies per timed repetition, and the worker threads of
  // the traced run's parallel sharded variant.
  std::size_t cores = 1;
};

std::uint64_t parse_count(std::string_view flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    throw std::invalid_argument(std::string(flag) + ": not a count: " + text);
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        throw std::invalid_argument(std::string("unknown workload: ") + value);
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_count(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_count(flag, value);
      if (s < 1 || s > 120) {
        throw std::invalid_argument("--seconds must be in [1, 120]");
      }
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_count(flag, value);
      if (t > 1) throw std::invalid_argument("--trace must be 0 or 1");
      args.trace = t == 1;
      have_trace = true;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument(std::string("unknown flag: ") + argv[i - 1]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  }
  const unsigned cores = std::thread::hardware_concurrency();
  args.cores = std::clamp<std::size_t>(cores, 1, 4);
  return args;
}

// Result of the whole run: the last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // run-level check failures
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;

  void add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }

  // Counts one repetition; its failed checks (if any) make it a failed one.
  void count(const std::string& what, const Outcome& outcome) {
    ++attempted;
    if (!outcome.failures.empty()) ++failed;
    for (const std::string& f : outcome.failures) {
      problems.push_back(what + ": " + f);
    }
  }

  void print() const {
    const bool correct = failed == 0 && problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

void print_outcome(const char* label, const Outcome& o) {
  std::printf("outcome[%s]: digest=%s obs_digest=%s sessions=%llu "
              "admitted=%llu messages=%llu miss_rate=%.6f goodput_mbps=%.4f\n",
              label, o.digest.c_str(),
              o.obs_digest.empty() ? "-" : o.obs_digest.c_str(),
              static_cast<unsigned long long>(o.sessions),
              static_cast<unsigned long long>(o.admitted),
              static_cast<unsigned long long>(o.messages), o.miss_rate,
              o.goodput_bps / 1e6);
}

void print_spread(const char* name, const std::vector<double>& values) {
  if (values.size() < 2) return;
  const Quartiles q = quartiles(values);
  std::printf("spread[%s]: n=%zu q1=%.6g median=%.6g q3=%.6g values=", name,
              values.size(), q.q1, q.q2, q.q3);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.4g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("\n");
}

// Runs fn(i) for every i < n on n threads started together; rethrows the
// first exception a thread raised.
template <typename F>
void on_threads(std::size_t n, F fn) {
  std::vector<std::exception_ptr> errors(n);
  std::latch go(static_cast<std::ptrdiff_t>(n));
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        go.arrive_and_wait();
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
  }  // the jthreads join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// Setup time: input generation, configs and engine objects, up to the first
// simulated event. One setup takes well under a millisecond, so each copy
// times a batch of setups lasting at least kSetupBatchS and divides; a
// sample is the median over copies (one per core, as in the timed
// repetitions), and the metric the median of kSetupSamples samples.
constexpr int kSetupSamples = 9;
constexpr double kSetupBatchS = 0.03;

double measure_setup(const Args& args) {
  std::vector<double> samples;
  std::vector<double> per_copy(args.cores);
  for (int s = 0; s < kSetupSamples; ++s) {
    on_threads(args.cores, [&](std::size_t i) {
      const double start = wall_now_s();
      int n = 0;
      double elapsed = 0.0;
      do {
        const Inputs inputs = set_up(args.workload, args.seed, args.sizes);
        ++n;
        elapsed = wall_now_s() - start;
      } while (elapsed < kSetupBatchS);
      per_copy[i] = elapsed / n;
    });
    samples.push_back(median(per_copy));
  }
  print_spread("setup_s", samples);
  return median(samples);
}

// Repetitions continue until `seconds` have passed, with at least this many.
constexpr int kMinReps = 3;

// Runs one repetition on every copy at once, one thread per copy, started
// together; returns each copy's outcome and wall time.
std::vector<std::pair<Outcome, double>> run_replicas(
    std::vector<Inputs>& copies) {
  std::vector<std::pair<Outcome, double>> out(copies.size());
  on_threads(copies.size(), [&](std::size_t i) {
    const double w0 = wall_now_s();
    out[i].first = run_once(copies[i], nullptr, 0);
    out[i].second = wall_now_s() - w0;
  });
  return out;
}

// The host this runs on shares its cores with other tenants, and a
// single-threaded workload's speed swings by up to 2x with their load (a
// one-copy run measured 1.5-2.7 s per paper_fig2 repetition across runs).
// So each timed repetition runs one copy of the (single-threaded) workload
// per core, up to 4, started together, holding the host in one state; a
// repetition's time is the median over copies.
void run_untraced(const Args& args, Result& result) {
  const double setup_s = measure_setup(args);
  Inputs inputs = set_up(args.workload, args.seed, args.sizes);

  // One copy first, alone: it fixes the reference digest, lets lazy set-up
  // and caches settle, and gives the workload's own peak memory.
  const Outcome first = run_once(inputs, nullptr, 0);
  result.count("warm-up", first);
  print_outcome("untraced", first);
  const double rss_mb = peak_rss_mb();

  std::vector<Inputs> copies(args.cores, inputs);
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> arrivals_rate;
  std::vector<double> message_rate;
  const double start = wall_now_s();
  while (walls.size() < kMinReps || wall_now_s() - start < args.seconds) {
    const double c0 = cpu_now_s();
    const auto reps = run_replicas(copies);
    const double cpu = (cpu_now_s() - c0) / static_cast<double>(reps.size());
    std::vector<double> copy_walls;
    for (const auto& [o, wall] : reps) {
      result.count("rep " + std::to_string(walls.size()), o);
      if (o.digest != first.digest || o.obs_digest != first.obs_digest) {
        result.problems.push_back("rep " + std::to_string(walls.size()) +
                                  ": outcome digest differs from the first");
      }
      copy_walls.push_back(wall);
    }
    const double wall = median(copy_walls);
    walls.push_back(wall);
    cpus.push_back(cpu);
    arrivals_rate.push_back(static_cast<double>(first.sessions) / wall);
    message_rate.push_back(static_cast<double>(first.messages) / wall);
  }
  print_spread("wall_s", walls);
  print_spread("cpu_s", cpus);

  result.add("wall_s", median(walls), "s");
  result.add("arrivals_per_s", median(arrivals_rate), "1/s");
  result.add("messages_per_s", median(message_rate), "1/s");
  result.add("cpu_s", median(cpus), "s");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", rss_mb, "MB");
}

// Discards what is written to it, counting the bytes.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

// The traced run's variants. Each round runs every variant once; run ids
// are round * kVariants + variant, so a span's variant is run % kVariants.
enum Variant : std::uint32_t {
  kUntraced = 0,  // the workload as measured end to end (no spans)
  kTraced = 1,    // spans on; server workloads also read the LP timer
  kObsOff = 2,    // server workloads: metrics and trace off
  kParallel = 3,  // sharded_forensics: the same run on min(4, cores) workers
  kVariants = 4,
};

// Median over rounds of f(round).
template <typename F>
double median_over(std::uint32_t rounds, F f) {
  std::vector<double> values;
  for (std::uint32_t r = 0; r < rounds; ++r) values.push_back(f(r));
  return median(values);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void run_traced(const Args& args, Result& result) {
  const Workload w = args.workload;
  const bool server = w != Workload::paper_fig2;
  const bool sharded = w == Workload::sharded_forensics;

  Inputs base = set_up(w, args.seed, args.sizes);
  // admission_overload runs obs-off; its traced variant turns metrics on so
  // the existing dmc_lp_solve_wall_seconds timer can be read.
  Inputs traced = w == Workload::admission_overload
                      ? with_obs(base, /*metrics=*/true, /*trace=*/false)
                      : base;
  std::optional<Inputs> obs_off;
  if (server) obs_off = with_obs(base, false, false);
  std::optional<Inputs> parallel;
  if (sharded) parallel = with_workers(base, args.cores);

  SpanRecorder spans;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<Outcome> traced_outcomes;
  std::shared_ptr<const dmc::obs::TraceData> last_trace;
  const std::string digest_names[kVariants] = {"untraced", "traced", "obs-off",
                                               "parallel"};
  std::string digest;
  std::string obs_digest;
  const auto check_digest = [&](Variant v, const Outcome& o) {
    if (digest.empty()) {
      digest = o.digest;
      obs_digest = o.obs_digest;
      return;
    }
    if (o.digest != digest) {
      result.problems.push_back(digest_names[v] +
                                " outcome digest differs from untraced");
    }
    // The obs-off and metrics-only variants export no forensics report.
    if (!o.obs_digest.empty() && o.obs_digest != obs_digest) {
      result.problems.push_back(digest_names[v] +
                                " obs digest differs from untraced");
    }
  };

  std::uint32_t rounds = 0;
  const double start = wall_now_s();
  while (rounds < 2 || wall_now_s() - start < args.seconds) {
    const std::uint32_t run0 = rounds * kVariants;
    {
      const double w0 = wall_now_s();
      const Outcome o = run_once(base, nullptr, run0 + kUntraced);
      untraced_walls.push_back(wall_now_s() - w0);
      result.count("untraced", o);
      check_digest(kUntraced, o);
      if (rounds == 0) print_outcome("untraced", o);
    }
    {
      const double w0 = wall_now_s();
      Outcome o = run_once(traced, &spans, run0 + kTraced);
      traced_walls.push_back(wall_now_s() - w0);
      result.count("traced", o);
      check_digest(kTraced, o);
      if (rounds == 0) print_outcome("traced", o);
      last_trace = std::move(o.trace);  // only the last one is exported
      traced_outcomes.push_back(std::move(o));
    }
    if (obs_off) {
      const Outcome o = run_once(*obs_off, &spans, run0 + kObsOff);
      result.count("obs-off", o);
      check_digest(kObsOff, o);
    }
    if (parallel) {
      const Outcome o = run_once(*parallel, &spans, run0 + kParallel);
      result.count("parallel", o);
      check_digest(kParallel, o);
      if (rounds == 0) print_outcome("parallel", o);
    }
    ++rounds;
  }

  // One Chrome export of the last traced round's trace: timed, not part of
  // the end-to-end wall time (it alone takes longer than a repetition).
  double chrome_s = 0.0;
  if (sharded && last_trace == nullptr) {
    result.problems.push_back("no trace to export");
  } else if (sharded) {
    CountingBuf sink;
    std::ostream out(&sink);
    const std::uint32_t run = rounds * kVariants;
    {
      const SpanRecorder::Scope scope(spans, kSpanChrome, run);
      dmc::obs::write_chrome_trace(out, *last_trace);
    }
    chrome_s = spans.total(kSpanChrome, run);
    std::printf("chrome_export: bytes=%llu\n",
                static_cast<unsigned long long>(sink.bytes));
  }

  const std::string_view run_span = sharded ? kSpanSharded : kSpanServer;
  const auto run_s = [&](std::uint32_t r, Variant v) {
    return server ? spans.total(run_span, r * kVariants + v) : 0.0;
  };
  // The call that runs the event loop: simulate_plan for paper_fig2, the
  // server's run otherwise.
  const auto loop_s = [&](std::uint32_t r) {
    return server ? run_s(r, kTraced)
                  : spans.total(kSpanSimulate, r * kVariants + kTraced);
  };
  const auto span_s = [&](std::string_view name) {
    return median_over(rounds, [&](std::uint32_t r) {
      return spans.total(name, r * kVariants + kTraced);
    });
  };
  const Counters& c = traced_outcomes.back().counters;
  const Outcome& last = traced_outcomes.back();
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  result.add("core.plan_s", span_s(kSpanPlan), "s");
  result.add("lp.iterations", count(c.lp_iterations), "count");
  result.add("lp.warm_solves", count(c.lp_warm_solves), "count");
  result.add("lp.cold_solves", count(c.lp_cold_solves), "count");
  result.add("lp.warm_pivots", count(c.lp_warm_pivots), "count");
  result.add("lp.fallbacks", count(c.lp_fallbacks), "count");
  result.add("lp.warm_hit_ratio",
             ratio(count(c.lp_warm_solves),
                   count(c.lp_warm_solves + c.lp_fallbacks)),
             "ratio");
  result.add("lp.solve_wall_s",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return traced_outcomes[r].counters.lp_solve_wall_s;
                         }),
             "s");
  result.add("lp.solve_share",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return ratio(
                               traced_outcomes[r].counters.lp_solve_wall_s,
                               run_s(r, kTraced));
                         }),
             "ratio");
  result.add("server.run_s",
             median_over(rounds,
                         [&](std::uint32_t r) { return run_s(r, kTraced); }),
             "s");
  result.add("server.replans", count(c.replans), "count");
  result.add("server.admitted", server ? count(last.admitted) : 0.0, "count");
  // The single-loop server is the one-worker case of itself.
  // Every workload's own run is single-threaded; sharded_forensics also
  // runs on min(4, cores) workers, and the speedup's base is the one-worker
  // run. The single-loop server has no parallel form (speedup 1).
  const auto parallel_s = [&](std::uint32_t r) {
    return sharded ? run_s(r, kParallel) : run_s(r, kTraced);
  };
  result.add("server.run_1w_s",
             median_over(rounds,
                         [&](std::uint32_t r) { return run_s(r, kTraced); }),
             "s");
  result.add("server.run_4w_s", median_over(rounds, parallel_s), "s");
  result.add("server.shard_speedup",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return ratio(run_s(r, kTraced), parallel_s(r));
                         }),
             "ratio");
  result.add("sim.events", count(c.events), "count");
  result.add("sim.ns_per_event",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return ratio(loop_s(r) * 1e9, count(c.events));
                         }),
             "ns");
  result.add("protocol.simulate_s", span_s(kSpanSimulate), "s");
  result.add("protocol.transmissions", count(c.transmissions), "count");
  result.add("protocol.retransmissions", count(c.retransmissions), "count");
  result.add("protocol.acks_received", count(c.acks_received), "count");
  result.add("protocol.ns_per_message",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return ratio(loop_s(r) * 1e9,
                                        count(last.messages));
                         }),
             "ns");
  result.add("link.loss_drops", count(c.loss_drops), "count");
  result.add("link.queue_drops", count(c.queue_drops), "count");
  result.add("obs.recording_s",
             server ? median_over(rounds,
                                  [&](std::uint32_t r) {
                                    return run_s(r, kTraced) -
                                           run_s(r, kObsOff);
                                  })
                    : 0.0,
             "s");
  result.add("obs.analyze_s", span_s(kSpanAnalyze), "s");
  result.add("obs.report_json_s", span_s(kSpanReportJson), "s");
  result.add("obs.trace_events", count(c.trace_events), "count");
  result.add("obs.trace_dropped", count(c.trace_dropped), "count");
  result.add("obs.chrome_export_s", chrome_s, "s");
  result.add("trace.overhead_s",
             median(traced_walls) - median(untraced_walls), "s");
  result.add("trace.harness_self_s",
             median_over(rounds,
                         [&](std::uint32_t r) {
                           return spans.self_total(kSpanRep,
                                                   r * kVariants + kTraced);
                         }),
             "s");
  std::printf("traced: rounds=%u spans=%zu\n", rounds, spans.spans().size());

  if (!args.spans_out.empty()) {
    std::ofstream file(args.spans_out);
    spans.write_json(file);
    if (!file) {
      result.problems.push_back("could not write spans to " + args.spans_out);
    }
  }
}

}  // namespace
}  // namespace dmcbench

int main(int argc, char** argv) {
  using namespace dmcbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmcbench: %s\n", e.what());
    return 2;
  }
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d copies=%zu "
              "hardware_threads=%u cpu_model=\"%s\" calibration_s=%.6f\n",
              to_string(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.cores,
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              calibration_s());
  Result result;
  try {
    if (args.trace) {
      run_traced(args, result);
    } else {
      run_untraced(args, result);
    }
  } catch (const std::exception& e) {
    // A throwing repetition is a failed operation; the run still reports.
    ++result.attempted;
    ++result.failed;
    result.problems.push_back(std::string("exception: ") + e.what());
  }
  for (const std::string& p : result.problems) {
    std::printf("check failed: %s\n", p.c_str());
  }
  result.print();
  return 0;
}
