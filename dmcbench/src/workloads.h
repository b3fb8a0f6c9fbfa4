// The benchmark's three workloads. Each one puts a different layer on the
// critical path (see dmcbench/README.md for why each was chosen):
//
//   paper_fig2          Figure 2 rate sweep: plan + simulate per point; the
//                       event loop and the one-session packet/ack path.
//   admission_overload  single-loop SessionServer at ~3x overload with LP
//                       admission and warm re-plans; the LP layer.
//   sharded_forensics   ShardedSessionServer (16 slices, one worker) with
//                       metrics, trace and forensics on; shard epochs,
//                       reconcile, merge and obs.
//
// Inputs are a pure function of (workload, seed, sizes). The library only
// sees the generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/path.h"
#include "experiments/runner.h"
#include "server/server.h"
#include "server/sharded_server.h"

namespace dmcbench {

class SpanRecorder;

enum class Workload { paper_fig2, admission_overload, sharded_forensics };

std::optional<Workload> parse_workload(std::string_view name);
const char* to_string(Workload workload);

// Input sizes. The defaults are the benchmark's; tests shrink them.
struct Sizes {
  std::uint64_t fig2_messages = 100000;  // per rate point (the paper's)
  int arrivals = 1500;                   // server workloads
};

// Everything built before the first simulated event: generated inputs,
// configs and the engine objects.
struct Inputs {
  Workload workload = Workload::paper_fig2;
  // paper_fig2
  dmc::core::PathSet planning;
  dmc::core::PathSet truth;
  std::vector<dmc::core::TrafficSpec> traffic;
  std::vector<dmc::exp::RunOptions> options;
  // server workloads
  std::vector<dmc::server::SessionRequest> requests;
  std::optional<dmc::server::SessionServer> classic;
  std::optional<dmc::server::ShardedSessionServer> sharded;
};

Inputs set_up(Workload workload, std::uint64_t seed, const Sizes& sizes);

// Variants the traced run compares against the workload's own inputs.
// Same requests and seeds; only the named knob differs.
Inputs with_workers(const Inputs& inputs, std::size_t workers);
Inputs with_obs(const Inputs& inputs, bool metrics, bool trace);

// Counters the library already returns, summed over one repetition.
struct Counters {
  std::uint64_t lp_iterations = 0;  // cold plans (paper_fig2 only)
  std::uint64_t lp_warm_solves = 0;
  std::uint64_t lp_cold_solves = 0;
  std::uint64_t lp_warm_pivots = 0;
  std::uint64_t lp_fallbacks = 0;
  // Sum of the dmc_lp_solve_wall_seconds histogram; only a single-loop run
  // with metrics on exports it (the sharded merge keeps no wall-clock
  // metrics).
  double lp_solve_wall_s = 0.0;
  std::uint64_t replans = 0;
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t loss_drops = 0;   // forward links
  std::uint64_t queue_drops = 0;  // forward links
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

// What one repetition produced.
struct Outcome {
  std::uint64_t sessions = 0;  // session requests completed (arrivals)
  std::uint64_t messages = 0;  // simulated messages generated
  std::uint64_t admitted = 0;
  double miss_rate = 0.0;
  double goodput_bps = 0.0;
  std::string digest;      // simulation outcome
  std::string obs_digest;  // forensics report + obs snapshot JSON, if any
  Counters counters;
  std::vector<std::string> failures;  // correctness checks that failed
  // The merged trace of a sharded_forensics repetition (for the Chrome
  // export the traced run times once); null otherwise.
  std::shared_ptr<const dmc::obs::TraceData> trace;
};

// Runs one repetition of the workload. With `spans` set, each call into a
// library layer is wrapped in a span tagged with `run`.
Outcome run_once(Inputs& inputs, SpanRecorder* spans, std::uint32_t run);

// Span names the workloads record (one per wrapped public call).
inline constexpr std::string_view kSpanRep = "workload";
inline constexpr std::string_view kSpanPlan = "core.plan_max_quality";
inline constexpr std::string_view kSpanSimulate = "exp.simulate_plan";
inline constexpr std::string_view kSpanServer = "server.SessionServer::run";
inline constexpr std::string_view kSpanSharded =
    "server.ShardedSessionServer::run";
inline constexpr std::string_view kSpanAnalyze = "obs.analyze";
inline constexpr std::string_view kSpanReportJson =
    "obs.AnalysisReport::to_json";
inline constexpr std::string_view kSpanChrome = "obs.write_chrome_trace";

}  // namespace dmcbench
