// Tests of the benchmark's own code: order statistics against Python's
// statistics module, span self-time arithmetic, digest stability, and a
// tiny-size smoke of every workload (untraced, traced, and the traced run's
// variants agreeing on the outcome). Exits 1 on the first failed check.
//
//   python3 dmcbench/run.py --self-test
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace {

using namespace dmcbench;

int checks = 0;

void expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    std::exit(1);
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void test_order_statistics() {
  expect_near(median({5, 1, 3}), 3, "median odd");
  expect_near(median({4, 1, 3, 2}), 2.5, "median even");
  // Expected values from statistics.quantiles(values, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(a.q1, 2.75, "q1 of 1..10");
  expect_near(a.q2, 5.5, "q2 of 1..10");
  expect_near(a.q3, 8.25, "q3 of 1..10");
  const Quartiles b = quartiles({3.5, 1.25, 9.0});
  expect_near(b.q1, 1.25, "q1 of three");
  expect_near(b.q3, 9.0, "q3 of three");
  const Quartiles c = quartiles({2, 4});  // extrapolates, as Python does
  expect_near(c.q1, 1.5, "q1 of two");
  expect_near(c.q3, 4.5, "q3 of two");
  const Quartiles d = quartiles(
      {0.41, 0.39, 0.44, 0.40, 0.43, 0.38, 0.45, 0.42, 0.40, 0.41, 0.47});
  expect_near(d.q1, 0.40, "q1 of eleven");
  expect_near(d.q2, 0.41, "q2 of eleven");
  expect_near(d.q3, 0.44, "q3 of eleven");
}

void test_self_time() {
  SpanRecorder spans;
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  {
    const SpanRecorder::Scope root(spans, "root", 7);
    nap();
    {
      const SpanRecorder::Scope a(spans, "a", 7);
      nap();
      {
        const SpanRecorder::Scope leaf(spans, "leaf", 7);
        nap();
      }
    }
    {
      const SpanRecorder::Scope b(spans, "b", 7);
      nap();
    }
  }
  { const SpanRecorder::Scope other(spans, "a", 8); }

  const auto& s = spans.spans();
  expect(s.size() == 5, "five spans recorded");
  expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 1 &&
             s[3].parent == 0 && s[4].parent == -1,
         "parents follow nesting");
  const std::vector<double> self = spans.self_times();
  expect_near(self[0], s[0].duration_s() - s[1].duration_s() -
                           s[3].duration_s(),
              "root self = duration minus direct children");
  expect_near(self[1], s[1].duration_s() - s[2].duration_s(),
              "a self = duration minus leaf");
  expect_near(self[2], s[2].duration_s(), "leaf self = duration");
  expect_near(self[0] + self[1] + self[2] + self[3], s[0].duration_s(),
              "self times of a tree sum to the root's duration");
  expect(self[0] > 0.0 && self[1] > 0.0, "self times positive");
  expect_near(spans.self_total("a", 7), self[1], "self_total filters by run");
  expect_near(spans.total("a", 7), s[1].duration_s(), "total filters by run");
}

Sizes tiny() {
  Sizes sizes;
  sizes.fig2_messages = 400;
  sizes.arrivals = 60;
  return sizes;
}

void test_workload(Workload w) {
  const std::string name = to_string(w);
  Inputs first = set_up(w, 11, tiny());
  Inputs second = set_up(w, 11, tiny());
  const Outcome a = run_once(first, nullptr, 0);
  const Outcome b = run_once(second, nullptr, 0);
  for (const std::string& f : a.failures) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), f.c_str());
  }
  expect(a.failures.empty(), name + ": checks pass");
  expect(a.sessions > 0 && a.messages > 0 && a.admitted > 0,
         name + ": did work");
  expect(a.digest == b.digest && a.obs_digest == b.obs_digest,
         name + ": same seed, same digest");

  Inputs other = set_up(w, 12, tiny());
  expect(run_once(other, nullptr, 0).digest != a.digest,
         name + ": another seed, another digest");

  SpanRecorder spans;
  const Outcome traced = run_once(first, &spans, 3);
  expect(traced.digest == a.digest && traced.obs_digest == a.obs_digest,
         name + ": traced run simulates the same thing");
  expect(!spans.spans().empty() && spans.spans().front().name == kSpanRep,
         name + ": spans recorded under the workload root");

  if (w != Workload::paper_fig2) {
    Inputs off = with_obs(first, false, false);
    const Outcome o = run_once(off, &spans, 4);
    expect(o.digest == a.digest, name + ": obs off, same outcome");
    expect(o.obs_digest.empty(), name + ": obs off exports no report");
  }
  if (w == Workload::sharded_forensics) {
    Inputs two = with_workers(first, 2);
    const Outcome o = run_once(two, &spans, 5);
    expect(o.digest == a.digest && o.obs_digest == a.obs_digest,
           name + ": 2 workers, same outcome");
    expect(!a.obs_digest.empty() && a.trace != nullptr,
           name + ": forensics and trace exported");
    expect(a.counters.trace_events > 0 && a.counters.trace_dropped == 0,
           name + ": trace complete");
  }
  if (w == Workload::admission_overload) {
    Inputs metrics = with_obs(first, true, false);
    const Outcome o = run_once(metrics, nullptr, 0);
    expect(o.counters.lp_solve_wall_s > 0.0,
           name + ": LP timer read with metrics on");
    expect(o.counters.lp_warm_solves > 0, name + ": warm solves counted");
  }
}

}  // namespace

int main() {
  test_order_statistics();
  test_self_time();
  test_workload(Workload::paper_fig2);
  test_workload(Workload::admission_overload);
  test_workload(Workload::sharded_forensics);
  std::printf("dmcbench_test: %d checks passed\n", checks);
  return 0;
}
