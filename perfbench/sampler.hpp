// Wall-clock stack sampler for the traced benchmark runs.
//
// start() lists /proc/self/task and arms one POSIX timer per thread
// (CLOCK_MONOTONIC, SIGEV_THREAD_ID), so every thread alive at that point —
// pool workers and event-loop threads included — is interrupted every
// `period` of wall time, running or blocked. The SIGPROF handler captures
// the interrupted stack with backtrace() into a preallocated buffer; the
// raw program counters are written out after the run and symbolized by
// perfbench/layers.py with `nm`, so the handler does no symbol work.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Kernel thread id of the calling thread.
int currentTid();

/// Tags the calling thread with a role ("client", "proxy", ...) that the
/// sample file carries, so per-thread books can be joined to samples.
void registerThread(const std::string& role);

class StackSampler {
 public:
  static constexpr int kMaxDepth = 48;

  StackSampler(std::chrono::microseconds period, std::size_t capacity);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Arms a timer on every thread currently in /proc/self/task.
  void start();
  /// Disarms every timer; samples taken so far stay readable.
  void stop();

  std::size_t samples() const;
  /// Samples lost because the buffer was full.
  std::size_t dropped() const;
  std::chrono::microseconds period() const { return period_; }

  /// Writes `P <period_us>`, one `T <tid> <role>` line per registered
  /// thread, one `M <start> <end> <offset> <path>` line per executable
  /// mapping, and one `S <tid> <pc>...` line per sample (leaf first).
  void write(std::ostream& out) const;

 private:
  std::chrono::microseconds period_;
  std::map<int, void*> timers_;  ///< tid -> timer_t
  bool running_ = false;
};

}  // namespace perfbench
