// Host-throughput benchmark of the SilkRoad simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Each run generates its inputs from the seed, builds the balancer (set-up)
// and replays the inputs on this thread (run); runs repeat until --seconds
// have passed, after one discarded warm-up run. Without --trace the output
// is the end-to-end metrics, timed on the fastest run; set-up is timed apart,
// in one block of repeated set-ups after each run, and the median block
// gives setup_s. With --trace the runs
// alternate untraced, traced (TracedBalancer spans), telemetry-off and, on
// the fleet workload, observer-off; isolation replays then split the traced
// run between layers. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 1 when a correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "replays.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// CPU time of one set-up block; see time_setup().
constexpr double kSetupBlockCpuS = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Process high-water resident set, MiB (VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value);
      out += buf;
      out += "\"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void print_table() const {
    for (const auto& e : entries_) {
      std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness checks; every failure is described on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// Per-run checks, and exact repetition of the work counts across runs of
  /// one mode.
  void runs(const std::vector<RunResult>& runs, const char* mode) {
    if (runs.empty()) return;
    for (const auto& run : runs) {
      const WorkCounts& w = run.work;
      expect(w.pcc_violations == 0,
             std::string(mode) + ": " + std::to_string(w.pcc_violations) +
                 " PCC violations");
      expect(run.drained, std::string(mode) +
                              ": a switch holds connections or pending "
                              "inserts after the drain");
      expect(w.flows_completed + w.unmapped == w.flows_offered,
             std::string(mode) + ": flows completed + unmapped != offered");
      expect(w == runs.front().work,
             std::string(mode) + ": work counts differ between runs of one "
                                 "seed (inserts, hits, events, retries or "
                                 "allocations)");
    }
  }
  bool ok() const noexcept { return ok_; }

 private:
  bool ok_ = true;
};

void write_spans(const std::string& path, const SpanRecorder& recorder) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "index\tname\tstart_ns\tend_ns\tparent\n");
  const auto& spans = recorder.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(file, "%zu\t%s\t%lld\t%lld\t%d\n", i, to_string(spans[i].name),
                 static_cast<long long>(spans[i].start_ns - origin),
                 static_cast<long long>(spans[i].end_ns - origin),
                 spans[i].parent);
  }
  std::fclose(file);
}

/// The run with the least run-phase CPU time. Runs of one mode repeat the
/// same work (checked), and interference from other processes on a shared
/// host only ever adds CPU time, so the fastest run is the least disturbed.
const RunResult& fastest(const std::vector<RunResult>& runs) {
  return *std::min_element(runs.begin(), runs.end(),
                           [](const RunResult& a, const RunResult& b) {
                             return a.run_cpu_s < b.run_cpu_s;
                           });
}

/// The run time comes from the fastest run (see fastest()). Set-up time is
/// the median set-up block: set-up is mostly allocation and first touch of
/// fresh memory, and its block times gather around one level with rare,
/// much faster outliers, which the fastest block would pick up.
void end_to_end_metrics(const std::vector<RunResult>& plain,
                        const std::vector<double>& setup_blocks, double rss_mib,
                        Metrics& m) {
  const double run_s = fastest(plain).run_cpu_s;
  const WorkCounts& work = plain.front().work;
  m.add("flows_per_s", static_cast<double>(work.flows_completed) / run_s, "1/s");
  m.add("packets_per_s", static_cast<double>(work.packets) / run_s, "1/s");
  m.add("setup_s", median(setup_blocks), "s");
  m.add("peak_rss_mib", rss_mib, "MiB");
}

/// A replayed layer's estimated time in the traced run: the replay's cost
/// per call times the number of such calls the run made.
struct Estimate {
  const char* name;
  double ns_per_op;
  double ops;
  const char* basis;  ///< the run count that supplies `ops`
  double seconds() const { return 1e-9 * ns_per_op * ops; }
};

void per_layer_metrics(const WorkloadSpec& spec, std::uint64_t seed,
                       const std::vector<RunResult>& plain,
                       const std::vector<RunResult>& traced,
                       const std::vector<RunResult>& telemetry_off,
                       const std::vector<RunResult>& observer_off,
                       const std::string& spans_out, Metrics& m) {
  const RunResult& run = fastest(traced);
  const TraceReport& t = run.trace;
  const SpanRecorder& rec = *t.recorder;
  const WorkCounts& w = run.work;
  const auto secs = [](std::int64_t ns) { return 1e-9 * static_cast<double>(ns); };
  const auto flows = static_cast<double>(std::max<std::uint64_t>(1, w.flows_offered));
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  const auto& run_span = rec.totals(SpanName::kRun);
  const auto& pp = rec.totals(SpanName::kProcessPacket);
  const auto& ru = rec.totals(SpanName::kRequestUpdate);
  const auto& sc = rec.totals(SpanName::kSelfCheck);
  const auto& mr = rec.totals(SpanName::kMappingRisk);
  const double total_s = secs(run_span.busy_ns);

  // Isolation replays on this run's tuples, occupancy and queue depth.
  const Inputs inputs = make_inputs(spec, seed);
  ReplayInputs replay_in;
  for (const auto& flow : inputs.flows) replay_in.tuples.push_back(flow.tuple);
  replay_in.conn_table = conn_table_config(spec, inputs);
  replay_in.peak_entries = t.peak_entries;
  replay_in.vip = inputs.vip_loads.front().vip;
  replay_in.pool = inputs.dip_pools.front();
  replay_in.queue_depth = t.peak_queue_depth;
  const ReplayResult r = run_replays(replay_in);

  // Scenario audits: SYN = flow_started; FIN = assigned_dip + observe +
  // flow_finished; probe = assigned_dip + observe. The packet-level runner
  // keeps its own map instead of a PccTracker.
  const double pcc_ops =
      spec.packet_level ? 0.0
                        : static_cast<double>(t.syns + 3 * t.fins +
                                              2 * t.other_packets);
  const auto packets = static_cast<double>(w.packets);
  const Estimate lookup{"asic.cuckoo.lookup", r.lookup_ns, packets, "packets"};
  const Estimate insert{"asic.cuckoo.insert", r.insert_ns,
                        static_cast<double>(w.inserts), "inserts"};
  const Estimate erase{"asic.cuckoo.erase", r.erase_ns,
                       static_cast<double>(t.erases), "erases"};
  const Estimate select{"core.version_select", r.select_ns, packets, "packets"};
  const Estimate event{"sim.event", r.event_ns, static_cast<double>(w.events),
                       "events"};
  const Estimate pcc{"lb.pcc_tracker", r.pcc_ns, pcc_ops, "tracker calls"};
  const Estimate estimates[] = {lookup, insert, erase, select, event, pcc};
  // Spans outside the data plane and the driver are measured directly; the
  // rest of the run span is what the replays do not explain.
  double explained_s = secs(sc.busy_ns) + secs(ru.self_ns) + secs(mr.self_ns);
  for (const auto& e : estimates) explained_s += e.seconds();
  const double residual_s = total_s - explained_s;

  const double plain_cpu = fastest(plain).run_cpu_s;
  const double traced_cpu = run.run_cpu_s;
  const double tracing_overhead = ratio(traced_cpu - plain_cpu, plain_cpu);
  const double telemetry_share =
      1.0 - ratio(fastest(telemetry_off).run_cpu_s, plain_cpu);
  const double observer_share =
      observer_off.empty()
          ? 0.0
          : 1.0 - ratio(fastest(observer_off).run_cpu_s, plain_cpu);

  // Human-readable split.
  std::printf("\nlayer split of the fastest traced run (of %zu), "
              "run span %.4f s\n", traced.size(), total_s);
  std::printf("  %-16s %10s %12s %12s %8s\n", "span", "calls", "busy_s",
              "self_s", "share");
  for (const SpanName name :
       {SpanName::kRun, SpanName::kProcessPacket, SpanName::kRequestUpdate,
        SpanName::kSelfCheck, SpanName::kMappingRisk}) {
    const auto& tot = rec.totals(name);
    std::printf("  %-16s %10llu %12.4f %12.4f %7.2f%%\n", to_string(name),
                static_cast<unsigned long long>(tot.calls), secs(tot.busy_ns),
                secs(tot.self_ns), 100 * ratio(secs(tot.self_ns), total_s));
  }
  std::printf("  %-20s %9s %12s %-14s %9s %8s\n", "replay", "ns/op", "ops",
              "basis", "est_s", "share");
  for (const auto& e : estimates) {
    std::printf("  %-20s %9.1f %12.0f %-14s %9.4f %7.2f%%\n", e.name,
                e.ns_per_op, e.ops, e.basis, e.seconds(),
                100 * ratio(e.seconds(), total_s));
  }
  std::printf("  (no run count: net.hash %.1f ns, net.digest %.1f ns, "
              "asic.bloom.query %.1f ns)\n", r.hash_ns, r.digest_ns, r.bloom_ns);
  std::printf("  %-20s %9.4f s %7.2f%%  (run span minus self_check, "
              "request_update and mapping_risk self time, minus replays)\n",
              "residual", residual_s, 100 * ratio(residual_s, total_s));
  std::printf("  tracing overhead: traced %.4f s vs untraced %.4f s CPU "
              "(%+.2f%%)\n\n", traced_cpu, plain_cpu, 100 * tracing_overhead);

  // Self-check call durations, from the kept spans.
  std::vector<double> check_ms;
  for (const auto& span : rec.spans()) {
    if (span.name == SpanName::kSelfCheck) {
      check_ms.push_back(1e-6 * static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  if (!spans_out.empty()) write_spans(spans_out, rec);

  const double fail_flows = static_cast<double>(w.unmapped + t.misrouted_syns +
                                                w.pcc_violations);
  m.add("lb.process_packet.calls", static_cast<double>(pp.calls), "count");
  m.add("lb.process_packet.busy_s", secs(pp.busy_ns), "s");
  m.add("lb.process_packet.ns_p50", rec.packet_ns_quantile(0.5), "ns");
  m.add("lb.process_packet.ns_p999", rec.packet_ns_quantile(0.999), "ns");
  m.add("lb.process_packet.share", ratio(secs(pp.busy_ns), total_s), "ratio");
  m.add("lb.mapping_risk.self_s", secs(mr.self_ns), "s");
  m.add("lb.driver.self_s", secs(run_span.self_ns), "s");
  m.add("lb.driver.share", ratio(secs(run_span.self_ns), total_s), "ratio");
  m.add("lb.pcc_tracker.ns_per_op", r.pcc_ns, "ns");
  m.add("lb.pcc_tracker.share", ratio(pcc.seconds(), total_s), "ratio");
  m.add("lb.unmapped_syns", static_cast<double>(w.unmapped), "count");
  m.add("lb.misrouted_syns", static_cast<double>(t.misrouted_syns), "count");
  m.add("pcc_violations", static_cast<double>(w.pcc_violations), "count");
  m.add("flow_fail_fraction", fail_flows / flows, "ratio");
  m.add("check.self_check.calls", static_cast<double>(sc.calls), "count");
  m.add("check.self_check.busy_s", secs(sc.busy_ns), "s");
  m.add("check.self_check.ms_p50", median(check_ms), "ms");
  m.add("check.share", ratio(secs(sc.busy_ns), total_s), "ratio");
  m.add("core.conn_table_hit_ratio",
        ratio(static_cast<double>(w.hits), static_cast<double>(w.hits + w.misses)),
        "ratio");
  m.add("core.learns", static_cast<double>(t.learns), "count");
  m.add("core.inserts", static_cast<double>(w.inserts), "count");
  m.add("core.insert_failures", static_cast<double>(t.insert_failures), "count");
  m.add("core.software_fallback_conns", static_cast<double>(t.software_fallback),
        "count");
  m.add("core.syn_false_positives", static_cast<double>(t.syn_false_positives),
        "count");
  m.add("core.transit_false_positives",
        static_cast<double>(t.transit_false_positives), "count");
  m.add("core.versions_reused", static_cast<double>(t.versions_reused), "count");
  m.add("core.version_select.ns", r.select_ns, "ns");
  m.add("core.version_select.share", ratio(select.seconds(), total_s), "ratio");
  m.add("asic.cuckoo.lookup_ns", r.lookup_ns, "ns");
  m.add("asic.cuckoo.insert_ns", r.insert_ns, "ns");
  m.add("asic.cuckoo.erase_ns", r.erase_ns, "ns");
  m.add("asic.cuckoo.moves_per_insert",
        ratio(static_cast<double>(t.cuckoo_moves), static_cast<double>(w.inserts)),
        "count");
  m.add("asic.cuckoo.peak_occupancy", t.peak_occupancy, "ratio");
  m.add("asic.cuckoo.share",
        ratio(lookup.seconds() + insert.seconds() + erase.seconds(), total_s),
        "ratio");
  m.add("asic.cpu.tasks", static_cast<double>(t.cpu_tasks), "count");
  m.add("asic.learn.batch_mean", t.learn_batch_mean, "count");
  m.add("asic.bloom.query_ns", r.bloom_ns, "ns");
  m.add("net.hash.ns", r.hash_ns, "ns");
  m.add("net.digest.ns", r.digest_ns, "ns");
  m.add("sim.events", static_cast<double>(w.events), "count");
  m.add("sim.events_per_flow", static_cast<double>(w.events) / flows, "count");
  m.add("sim.event.ns", r.event_ns, "ns");
  m.add("sim.event.share", ratio(event.seconds(), total_s), "ratio");
  m.add("obs.telemetry_share", telemetry_share, "ratio");
  m.add("obs.fleet_observer_share", observer_share, "ratio");
  m.add("deploy.request_update.busy_s", secs(ru.busy_ns), "s");
  m.add("deploy.converged", t.converged ? 1.0 : 0.0, "bool");
  m.add("fault.ctrl_retries", static_cast<double>(w.ctrl_retries), "count");
  m.add("fault.ctrl_resyncs", static_cast<double>(t.ctrl_resyncs), "count");
  m.add("run.allocs_per_flow",
        static_cast<double>(plain.front().work.allocs) / flows, "count");
  m.add("run.alloc_bytes_per_flow",
        static_cast<double>(plain.front().work.alloc_bytes) / flows, "B");
  m.add("run.tracing_overhead", tracing_overhead, "ratio");
  m.add("run.residual_share", ratio(residual_s, total_s), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  // Warm-up: lazy initialization, allocator arenas and caches. Its work
  // counts still take part in the repetition check.
  const RunResult warmup = run_once(*spec, args.seed, Mode::kPlain);
  std::vector<RunResult> plain;
  std::vector<RunResult> traced;
  std::vector<RunResult> telemetry_off;
  std::vector<RunResult> observer_off;
  std::vector<double> setup_blocks;
  double rss_mib = 0;
  const std::size_t min_runs = args.trace ? 1 : 3;
  while (plain.size() < min_runs || elapsed() < args.seconds) {
    plain.push_back(run_once(*spec, args.seed, Mode::kPlain));
    // The high-water mark after one measured run, so it does not depend on
    // how many runs fit in --seconds.
    if (plain.size() == 1) rss_mib = peak_rss_mib();
    if (!args.trace) {
      // One set-up block per run, so set-up is sampled over the same
      // stretch of time as the runs.
      setup_blocks.push_back(time_setup(*spec, args.seed, kSetupBlockCpuS));
      continue;
    }
    traced.push_back(run_once(*spec, args.seed, Mode::kTraced));
    telemetry_off.push_back(run_once(*spec, args.seed, Mode::kTelemetryOff));
    if (spec->replicas > 0) {
      observer_off.push_back(run_once(*spec, args.seed, Mode::kObserverOff));
    }
  }

  Checks checks;
  checks.expect(warmup.work == plain.front().work,
                "plain: warm-up work counts differ from later runs");
  checks.runs(plain, "plain");
  checks.runs(traced, "traced");
  checks.runs(telemetry_off, "telemetry-off");
  checks.runs(observer_off, "observer-off");

  std::uint64_t attempted = warmup.work.flows_offered;
  std::uint64_t failed = warmup.work.unmapped + warmup.work.pcc_violations;
  for (const auto* runs : {&plain, &traced, &telemetry_off, &observer_off}) {
    for (const auto& run : *runs) {
      attempted += run.work.flows_offered;
      failed += run.work.unmapped + run.work.pcc_violations;
    }
  }

  Metrics metrics;
  if (args.trace) {
    per_layer_metrics(*spec, args.seed, plain, traced, telemetry_off,
                      observer_off, args.spans_out, metrics);
  } else {
    end_to_end_metrics(plain, setup_blocks, rss_mib, metrics);
  }
  const std::size_t runs =
      1 + plain.size() + traced.size() + telemetry_off.size() + observer_off.size();
  std::printf("workload %s seed %llu: %zu runs (%zu measured untraced), "
              "%llu flows offered per run\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              runs, plain.size(),
              static_cast<unsigned long long>(warmup.work.flows_offered));
  std::printf("untraced runs, run CPU s:");
  for (const auto& run : plain) std::printf(" %.4f", run.run_cpu_s);
  std::printf("\n");
  if (!setup_blocks.empty()) {
    std::printf("set-up blocks, CPU s per set-up:");
    for (const double block : setup_blocks) std::printf(" %.5f", block);
    std::printf("\n");
  }
  metrics.print_table();
  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"build_type\": \"%s\", \"trace\": %d, \"runs\": %zu, "
              "\"cpu_s\": %.3f, \"wall_s\": %.3f}\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              PERFBENCH_BUILD_TYPE, args.trace ? 1 : 0, runs,
              cpu_seconds() - cpu_start, elapsed());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  return checks.ok() ? 0 : 1;
}
