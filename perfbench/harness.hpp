// Shared plumbing for the benchmark workloads: options and process books.
// Raw results go to perfbench/run.py as one JSON object, written with
// gol::telemetry::JsonWriter.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< WAL and sample files go here.
};

double peakRssMb();
std::size_t openFdCount();
/// CPU seconds consumed by the calling thread.
double threadCpuSeconds();
double monotonicSeconds();

std::string runMetro(const Options& opt);
std::string runOnload(const Options& opt);
std::string runSelftest(const Options& opt);

}  // namespace perfbench
