// perfbench: the workload executable behind perfbench/run.py.
//
//   perfbench <metro_browse|metro_opt|onload_relay|onload_faulted|selftest>
//             --seed N --seconds S [--trace] [--workdir DIR]
//
// Prints one JSON object of raw results on stdout; run.py checks the
// correctness gates and derives the reported metrics from it. With --trace
// the stack samples go to DIR/samples.txt.
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "harness.hpp"
#include "sampler.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t openFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

double threadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace selftest {

// The sampler's known-answer target: a busy loop no other code shares.
__attribute__((noinline)) double spin(const std::atomic<bool>& stop) {
  double acc = 1.0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) acc = acc * 1.0000001 + 1e-9;
  }
  return acc;
}

}  // namespace selftest

std::string runSelftest(const Options& opt) {
  std::atomic<bool> stop{false};
  std::atomic<int> spin_tid{0};
  double sink = 0;
  std::thread spinner([&] {
    registerThread("spin");
    spin_tid = currentTid();
    sink = selftest::spin(stop);
  });
  std::thread sleeper([&] {
    registerThread("sleep");
    while (!stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (spin_tid.load() == 0) std::this_thread::yield();

  StackSampler sampler(std::chrono::microseconds(1000), 1 << 16);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  sampler.stop();
  stop = true;
  spinner.join();
  sleeper.join();
  std::ofstream out(opt.workdir + "/samples.txt");
  sampler.write(out);
  gol::telemetry::JsonWriter w;
  w.beginObject()
      .key("workload").value("selftest")
      .key("samples").value(sampler.samples())
      .key("dropped").value(sampler.dropped())
      .key("sink").value(sink)
      .endObject();
  return w.str();
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench <metro_browse|metro_opt|onload_relay|"
               "onload_faulted|selftest> --seed N --seconds S [--trace] "
               "[--workdir DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage();
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--seed") opt.seed = std::stoull(value());
    else if (flag == "--seconds") opt.seconds = std::stod(value());
    else if (flag == "--trace") opt.trace = true;
    else if (flag == "--workdir") opt.workdir = value();
    else usage();
  }
  try {
    std::string result;
    if (opt.workload.rfind("metro_", 0) == 0) result = runMetro(opt);
    else if (opt.workload.rfind("onload_", 0) == 0) result = runOnload(opt);
    else if (opt.workload == "selftest") result = runSelftest(opt);
    else usage();
    std::printf("%s\n", result.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
