#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "core/units.h"
#include "experiments/scenarios.h"
#include "measure.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "stats/rng.h"

namespace dmcbench {
namespace {

using dmc::server::RequestFate;
using dmc::server::ServerOutcome;

// Trace ring for sharded_forensics, split evenly over the 16 slices: 196k
// events per slice, about twice what a slice records at the default 1500
// arrivals (~1.5M events in all). Every run checks trace_dropped == 0.
constexpr std::size_t kTraceCapacity = std::size_t{3} << 20;
constexpr std::size_t kSlices = 16;

// Seed lanes, so the workload's draws and the simulators' never share a
// stream.
constexpr std::uint64_t kLaneArrivals = 1;
constexpr std::uint64_t kLaneServer = 2;
constexpr std::uint64_t kLaneFig2 = 3;

// Returns f(), called inside a span named `name` when `spans` is set.
template <typename F>
auto in_span(SpanRecorder* spans, std::string_view name, std::uint32_t run,
             F f) {
  std::optional<SpanRecorder::Scope> scope;
  if (spans != nullptr) scope.emplace(*spans, name, run);
  return f();
}

void add_links(Digest& digest,
               const std::vector<dmc::sim::LinkStats>& links) {
  for (const auto& link : links) {
    digest.add(link.offered)
        .add(link.queue_drops)
        .add(link.loss_drops)
        .add(link.delivered)
        .add(link.bytes_sent)
        .add(link.busy_time_s)
        .add(static_cast<std::uint64_t>(link.max_queue_depth))
        .add(link.in_flight);
  }
}

void add_trace(Digest& digest, const dmc::proto::Trace& t) {
  digest.add(t.generated)
      .add(t.assigned_blackhole)
      .add(t.transmissions)
      .add(t.retransmissions)
      .add(t.fast_retransmissions)
      .add(t.delivered_unique)
      .add(t.on_time)
      .add(t.late)
      .add(t.duplicates)
      .add(t.acks_sent)
      .add(t.acks_received)
      .add(t.gave_up);
}

void count_trace(Counters& c, const dmc::proto::Trace& t) {
  c.transmissions += t.transmissions;
  c.retransmissions += t.retransmissions;
  c.acks_received += t.acks_received;
}

void count_links(Counters& c, const std::vector<dmc::sim::LinkStats>& links) {
  for (const auto& link : links) {
    c.loss_drops += link.loss_drops;
    c.queue_drops += link.queue_drops;
  }
}

bool links_drained(const std::vector<dmc::sim::LinkStats>& links) {
  for (const auto& link : links) {
    if (!link.conserved() || link.in_flight != 0) return false;
  }
  return true;
}

Outcome run_fig2(const Inputs& in, SpanRecorder* spans, std::uint32_t run) {
  Outcome out;
  Digest digest;
  std::uint64_t on_time = 0;
  double on_time_bits = 0.0;
  double elapsed_s = 0.0;
  for (std::size_t i = 0; i < in.traffic.size(); ++i) {
    const auto plan = in_span(spans, kSpanPlan, run, [&] {
      return dmc::core::plan_max_quality(in.planning, in.traffic[i]);
    });
    const auto result = in_span(spans, kSpanSimulate, run, [&] {
      return dmc::exp::simulate_plan(plan, in.truth, in.options[i]);
    });

    const std::string point = "point " + std::to_string(i) + ": ";
    if (!plan.feasible()) out.failures.push_back(point + "plan infeasible");
    if (result.trace.generated != in.options[i].num_messages) {
      out.failures.push_back(point + "generated " +
                             std::to_string(result.trace.generated) + " of " +
                             std::to_string(in.options[i].num_messages) +
                             " messages");
    }
    if (!result.trace.conserved()) {
      out.failures.push_back(point + "messages not conserved");
    }
    if (!links_drained(result.forward_links) ||
        !links_drained(result.reverse_links)) {
      out.failures.push_back(point + "packets not conserved at teardown");
    }

    for (const double x : plan.x()) digest.add(x);
    add_trace(digest, result.trace);
    digest.add(result.events).add(result.elapsed_s);
    add_links(digest, result.forward_links);
    add_links(digest, result.reverse_links);

    Counters& c = out.counters;
    c.lp_iterations += static_cast<std::uint64_t>(plan.lp_iterations());
    c.lp_cold_solves += 1;  // plan_max_quality always solves cold
    c.events += result.events;
    count_trace(c, result.trace);
    count_links(c, result.forward_links);
    out.sessions += 1;
    out.messages += result.trace.generated;
    out.admitted += 1;
    on_time += result.trace.on_time;
    on_time_bits += static_cast<double>(result.trace.on_time) *
                    static_cast<double>(in.options[i].session.message_bytes) *
                    dmc::kBitsPerByte;
    elapsed_s += result.elapsed_s;
  }
  out.miss_rate = out.messages > 0
                      ? 1.0 - static_cast<double>(on_time) /
                                  static_cast<double>(out.messages)
                      : 0.0;
  out.goodput_bps = elapsed_s > 0.0 ? on_time_bits / elapsed_s : 0.0;
  out.digest = digest.hex();
  return out;
}

void check_server(const Inputs& in, const ServerOutcome& o, Outcome& out) {
  if (!o.conserved) out.failures.push_back("packets not conserved");
  if (o.arrivals != in.requests.size() ||
      o.sessions.size() != in.requests.size()) {
    out.failures.push_back("outcome does not cover every arrival");
  }
  if (o.admitted + o.rejected + o.expired != o.arrivals) {
    out.failures.push_back("fates do not sum to the arrivals");
  }
  std::uint64_t admitted = 0;
  std::uint64_t requested = 0;
  std::uint64_t generated = 0;
  for (std::size_t i = 0; i < o.sessions.size(); ++i) {
    const auto& s = o.sessions[i];
    if (s.fate != RequestFate::admitted &&
        s.fate != RequestFate::queued_admitted) {
      continue;
    }
    ++admitted;
    if (i < in.requests.size()) requested += in.requests[i].num_messages;
    generated += s.trace.generated;
    if (!s.trace.conserved()) {
      out.failures.push_back("session " + std::to_string(s.request_id) +
                             ": messages not conserved");
    }
  }
  if (admitted != o.admitted) {
    out.failures.push_back("admitted count disagrees with session fates");
  }
  if (generated != requested) {
    out.failures.push_back("admitted sessions generated " +
                           std::to_string(generated) + " of " +
                           std::to_string(requested) + " messages");
  }
}

std::string server_digest(const ServerOutcome& o) {
  Digest d;
  d.add(o.arrivals)
      .add(o.admitted)
      .add(o.rejected)
      .add(o.expired)
      .add(o.replans)
      .add(o.events)
      .add(o.elapsed_s)
      .add(o.deadline_miss_rate)
      .add(o.goodput_bps)
      .add(o.lp.cold_solves)
      .add(o.lp.warm_solves)
      .add(o.lp.warm_pivots)
      .add(o.lp.fallbacks)
      .add(o.orphans.data_packets)
      .add(o.orphans.ack_packets);
  for (const auto& s : o.sessions) {
    d.add(s.request_id)
        .add(static_cast<std::uint64_t>(s.fate))
        .add(s.predicted_quality)
        .add(s.queue_wait_s)
        .add(s.admitted_at_s)
        .add(s.completed_at_s)
        .add(static_cast<std::uint64_t>(s.replans))
        .add(s.measured_quality);
    add_trace(d, s.trace);
  }
  add_links(d, o.forward_links);
  add_links(d, o.reverse_links);
  return d.hex();
}

double lp_wall_seconds(const ServerOutcome& o) {
  if (o.metrics == nullptr) return 0.0;
  for (const auto& entry : o.metrics->entries()) {
    if (entry.name == "dmc_lp_solve_wall_seconds") {
      return entry.histogram.sum();
    }
  }
  return 0.0;
}

Outcome run_server(Inputs& in, SpanRecorder* spans, std::uint32_t run) {
  const bool sharded = in.sharded.has_value();
  const ServerOutcome o =
      in_span(spans, sharded ? kSpanSharded : kSpanServer, run, [&] {
        return sharded ? in.sharded->run(in.requests)
                       : in.classic->run(in.requests);
      });

  Outcome out;
  check_server(in, o, out);
  out.digest = server_digest(o);
  out.sessions = o.arrivals;
  out.admitted = o.admitted;
  out.miss_rate = o.deadline_miss_rate;
  out.goodput_bps = o.goodput_bps;
  Counters& c = out.counters;
  c.lp_warm_solves = o.lp.warm_solves;
  c.lp_cold_solves = o.lp.cold_solves;
  c.lp_warm_pivots = o.lp.warm_pivots;
  c.lp_fallbacks = o.lp.fallbacks;
  c.lp_solve_wall_s = lp_wall_seconds(o);
  c.replans = o.replans;
  c.events = o.events;
  for (const auto& s : o.sessions) {
    out.messages += s.trace.generated;
    count_trace(c, s.trace);
  }
  count_links(c, o.forward_links);

  const auto& config = sharded ? in.sharded->config() : in.classic->config();
  if (o.trace_data != nullptr) {
    c.trace_events = o.trace_data->events.size();
    c.trace_dropped = o.trace_data->dropped;
    if (c.trace_dropped != 0) {
      out.failures.push_back("trace ring dropped " +
                             std::to_string(c.trace_dropped) + " events");
    }
    // The run ends by computing the forensics report and serializing it
    // together with the obs snapshot.
    const dmc::obs::AnalysisReport report =
        in_span(spans, kSpanAnalyze, run, [&] {
          return dmc::obs::analyze(*o.trace_data, config.forensics);
        });
    const std::string json = in_span(spans, kSpanReportJson, run, [&] {
      return report.to_json() + o.obs.to_json();
    });
    if (report.truncated) out.failures.push_back("forensics report truncated");
    out.obs_digest = Digest{}.add(json).hex();
    out.trace = o.trace_data;
  } else if (sharded && config.collect_trace) {
    out.failures.push_back("tracing was on but no trace came back");
  }
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::paper_fig2, Workload::admission_overload,
        Workload::sharded_forensics}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::paper_fig2:
      return "paper_fig2";
    case Workload::admission_overload:
      return "admission_overload";
    case Workload::sharded_forensics:
      return "sharded_forensics";
  }
  return "unknown";
}

Inputs set_up(Workload workload, std::uint64_t seed, const Sizes& sizes) {
  Inputs in;
  in.workload = workload;
  in.planning = dmc::exp::table3_model_paths();
  in.truth = dmc::exp::table3_paths();

  if (workload == Workload::paper_fig2) {
    // Figure 2 (top): 15 rates, 10..150 Mbps, delta = 800 ms.
    const std::uint64_t base = dmc::stats::mix_seed(seed, kLaneFig2);
    for (int rate = 10; rate <= 150; rate += 10) {
      in.traffic.push_back(dmc::exp::table4_traffic_rate(dmc::mbps(rate)));
      dmc::exp::RunOptions options;
      options.num_messages = sizes.fig2_messages;
      options.seed =
          dmc::stats::mix_seed(base, static_cast<std::uint64_t>(rate));
      in.options.push_back(options);
    }
    return in;
  }

  // Poisson arrivals at 120/s, mean 120 messages per session: about 3x what
  // the Table III paths carry, so LP admission rejects most requests.
  dmc::server::WorkloadOptions arrivals;
  arrivals.count = sizes.arrivals;
  arrivals.arrivals_per_s = 120.0;
  arrivals.mean_rate_bps = dmc::mbps(20);
  arrivals.mean_messages = 120;
  arrivals.seed = dmc::stats::mix_seed(seed, kLaneArrivals);
  in.requests = dmc::server::poisson_arrivals(arrivals);

  dmc::server::ServerConfig config;
  config.planning_paths = in.planning;
  config.true_paths = in.truth;
  config.policy = "feasibility-lp";
  config.warm_start = true;
  config.seed = dmc::stats::mix_seed(seed, kLaneServer);
  if (workload == Workload::admission_overload) {
    in.classic.emplace(std::move(config));
    return in;
  }
  // One worker: on a shared host, a run whose epochs wait at a barrier for
  // every worker thread is as slow as the most-delayed core (its wall-time
  // spread over ten seeds was 0.40 at 4 workers, against 0.07 for its CPU
  // time). The traced run measures the parallel run as its own variant.
  config.shards = 1;
  config.shard_slices = kSlices;
  config.collect_metrics = true;
  config.collect_trace = true;
  config.trace_capacity = kTraceCapacity;
  in.sharded.emplace(std::move(config));
  return in;
}

namespace {

// Copy of `inputs` whose server config went through `edit`.
template <typename Edit>
Inputs with_config(const Inputs& inputs, Edit edit) {
  Inputs out = inputs;
  if (inputs.sharded) {
    dmc::server::ServerConfig config = inputs.sharded->config();
    edit(config);
    out.sharded.emplace(std::move(config));
  } else if (inputs.classic) {
    dmc::server::ServerConfig config = inputs.classic->config();
    edit(config);
    out.classic.emplace(std::move(config));
  } else {
    throw std::logic_error("not a server workload");
  }
  return out;
}

}  // namespace

Inputs with_workers(const Inputs& inputs, std::size_t workers) {
  return with_config(inputs, [&](dmc::server::ServerConfig& config) {
    config.shards = workers;
  });
}

Inputs with_obs(const Inputs& inputs, bool metrics, bool trace) {
  return with_config(inputs, [&](dmc::server::ServerConfig& config) {
    config.collect_metrics = metrics;
    config.collect_trace = trace;
  });
}

Outcome run_once(Inputs& inputs, SpanRecorder* spans, std::uint32_t run) {
  std::optional<SpanRecorder::Scope> root;
  if (spans != nullptr) root.emplace(*spans, kSpanRep, run);
  return inputs.workload == Workload::paper_fig2
             ? run_fig2(inputs, spans, run)
             : run_server(inputs, spans, run);
}

}  // namespace dmcbench
