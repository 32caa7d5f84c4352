// The switch management CPU (paper §4.1, §5.2).
//
// Cuckoo search and entry insertion are too complex for the ASIC data plane
// and run on an embedded x86 connected over PCI-E. We model it as a single
// FIFO worker with a configurable service rate; the paper measures ~200K
// ConnTable insertions/second. The queueing delay this introduces between a
// connection's first packet and its ConnTable entry is the source of the PCC
// hazard during DIP-pool updates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace silkroad::asic {

class SwitchCpu {
 public:
  struct Config {
    /// Task service rate per pipe (ConnTable insertions/deletions/sec).
    double tasks_per_second = 200'000.0;
    /// Worker cores, one per physical pipe (§5.2: "multiple cores to handle
    /// insertions into different physical pipes"). Tasks are sharded by an
    /// explicit key so all operations on one flow stay ordered.
    std::size_t pipes = 1;
  };

  using Task = std::function<void()>;

  /// Fault-injection hook: maps the nominal per-task service time to the
  /// effective one (a stall window returns time-until-window-end + base; a
  /// slowdown returns base x factor). Consulted once per task dispatch.
  using DelayHook = std::function<sim::Time(sim::Time base)>;

  SwitchCpu(sim::Simulator& simulator, const Config& config)
      : sim_(simulator),
        service_time_(config.tasks_per_second <= 0
                          ? sim::Time{1}
                          : static_cast<sim::Time>(
                                static_cast<double>(sim::kSecond) /
                                config.tasks_per_second)),
        pipes_(config.pipes == 0 ? 1 : config.pipes) {}

  SwitchCpu(const SwitchCpu&) = delete;
  SwitchCpu& operator=(const SwitchCpu&) = delete;

  /// Enqueues a task on the pipe selected by `shard`; tasks with the same
  /// shard execute in FIFO order, each consuming one service time. The task
  /// body runs at completion time.
  void enqueue(Task task, std::uint64_t shard = 0) {
    Pipe& pipe = pipes_[shard % pipes_.size()];
    pipe.queue.push_back(std::move(task));
    if (!pipe.busy) {
      pipe.busy = true;
      schedule_next(pipe);
    }
  }

  /// Registers this CPU's pull metrics in `registry` under `prefix`
  /// (`<prefix>_queue_depth`, `<prefix>_tasks_completed_total`). The
  /// registry reads existing state at snapshot time — no double counting.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& prefix) {
    registry.register_callback(
        prefix + "_queue_depth", obs::MetricKind::kGauge,
        [this] { return static_cast<double>(queue_depth()); },
        "tasks queued across all CPU pipes");
    registry.register_callback(
        prefix + "_tasks_completed_total", obs::MetricKind::kCounter,
        [this] { return static_cast<double>(completed_tasks()); },
        "control-plane tasks executed");
  }

  std::size_t queue_depth() const {
    std::size_t total = 0;
    for (const auto& pipe : pipes_) total += pipe.queue.size();
    return total;
  }
  bool idle() const {
    for (const auto& pipe : pipes_) {
      if (pipe.busy) return false;
    }
    return true;
  }
  std::uint64_t completed_tasks() const { return completed_; }
  std::size_t pipe_count() const noexcept { return pipes_.size(); }

  void set_delay_hook(DelayHook hook) { delay_hook_ = std::move(hook); }

 private:
  struct Pipe {
    std::deque<Task> queue;
    bool busy = false;
  };

  void schedule_next(Pipe& pipe) {
    const sim::Time delay =
        delay_hook_ ? delay_hook_(service_time_) : service_time_;
    // `pipe` outlives the lambda: pipes_ is sized in the constructor and
    // never reallocates. The task is moved out of the queue before it runs,
    // because it may re-enter enqueue() (relearn re-queues, protocol
    // continuations).
    sim_.schedule_after(delay, [this, &pipe] {
      Task task = std::move(pipe.queue.front());
      pipe.queue.pop_front();
      ++completed_;
      task();
      if (pipe.queue.empty()) {
        pipe.busy = false;
      } else {
        schedule_next(pipe);
      }
    });
  }

  sim::Simulator& sim_;
  sim::Time service_time_;
  std::vector<Pipe> pipes_;
  std::uint64_t completed_ = 0;
  DelayHook delay_hook_;
};

}  // namespace silkroad::asic
