// The two city workloads: core::MetroSimulation on an exec::ThreadPool,
// rebuilt and re-run until the measurement window closes. Every repetition
// reports its constructor time, run() wall time, result counts, digest and
// per-shard busy time; run.py takes medians and checks each digest against
// the value pinned for the seed.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/metro.hpp"
#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "sampler.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

namespace {

using gol::telemetry::JsonWriter;

struct MetroSpec {
  int neighborhoods;
  int households_per_neighborhood;
  std::size_t shards;
  double horizon_s;
  const char* scheduler;
  unsigned workers;
};

MetroSpec specFor(const std::string& workload) {
  // metro_browse: 10k GRD households (~500 MB resident, past the 300 MiB
  // L3), one 4-neighborhood tower area per shard so cuts are area-aligned.
  if (workload == "metro_browse") return {400, 25, 100, 600.0, "greedy", 4};
  // metro_opt: a cache-resident district under the min-cost-flow scheduler.
  if (workload == "metro_opt") return {64, 15, 16, 120.0, "opt", 4};
  throw std::invalid_argument("unknown metro workload: " + workload);
}

constexpr int kSetupReps = 7;

gol::core::MetroConfig configFor(const MetroSpec& spec, std::uint64_t seed) {
  gol::core::MetroConfig cfg;
  cfg.neighborhoods = spec.neighborhoods;
  cfg.households_per_neighborhood = spec.households_per_neighborhood;
  cfg.shards = spec.shards;
  cfg.horizon_s = spec.horizon_s;
  cfg.scheduler = spec.scheduler;
  cfg.seed = seed;
  return cfg;
}

void writeRep(JsonWriter& w, double setup_s, const gol::core::MetroResult& r,
              std::size_t workers) {
  double busy_sum = 0, busy_max = 0;
  for (const auto& s : r.shards) {
    busy_sum += s.busy_s;
    busy_max = std::max(busy_max, s.busy_s);
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, r.digest);
  w.beginObject()
      .key("workers").value(workers)
      .key("setup_s").value(setup_s)
      .key("wall_s").value(r.wall_s)
      .key("transactions").value(r.transactions)
      .key("items_ok").value(r.items_ok)
      .key("items_failed").value(r.items_failed)
      .key("events").value(r.events)
      .key("shards").value(r.shard_count)
      .key("busy_sum_s").value(busy_sum)
      .key("busy_max_s").value(busy_max)
      .key("digest").value(digest)
      .endObject();
}

/// Builds one city (timed as set-up), runs it on `pool` and writes its
/// books to `w`; the sampler, when given, covers run() only.
void runOnce(JsonWriter& w, const MetroSpec& spec, std::uint64_t seed,
             gol::exec::ThreadPool& pool, StackSampler* sampler) {
  const double t0 = monotonicSeconds();
  gol::core::MetroSimulation metro(configFor(spec, seed));
  const double setup_s = monotonicSeconds() - t0;
  if (sampler) sampler->start();
  const gol::core::MetroResult res = metro.run(pool);
  if (sampler) sampler->stop();
  writeRep(w, setup_s, res, pool.threadCount());
}

}  // namespace

std::string runMetro(const Options& opt) {
  const MetroSpec spec = specFor(opt.workload);
  JsonWriter w;
  w.beginObject();
  if (!opt.trace) {
    // Untraced: repeat whole city runs until the window closes (at least
    // three, so every run reports a median; one when --seconds is 0).
    gol::exec::ThreadPool pool(spec.workers);
    // Set-up alone, repeated, so its median does not rest on the few
    // builds the timed repetitions make.
    w.key("setup_s").beginArray();
    for (int i = 0; i < kSetupReps; ++i) {
      const double t0 = monotonicSeconds();
      gol::core::MetroSimulation metro(configFor(spec, opt.seed));
      w.value(monotonicSeconds() - t0);
    }
    w.endArray();
    // The first run faults in the city's pages and grows the heap; later
    // runs reuse both. It is checked but not timed.
    w.key("warmup");
    runOnce(w, spec, opt.seed, pool, nullptr);
    w.key("reps").beginArray();
    const std::size_t min_reps = opt.seconds > 0 ? 3 : 1;
    const double until = monotonicSeconds() + opt.seconds;
    for (std::size_t reps = 0; reps < min_reps || monotonicSeconds() < until;
         ++reps)
      runOnce(w, spec, opt.seed, pool, nullptr);
    w.endArray();
  } else {
    // Traced: one sampled run at the workload's worker count, then
    // untraced runs at 2 and 1 workers for the scaling curve.
    {
      gol::exec::ThreadPool pool(spec.workers);
      w.key("warmup");
      runOnce(w, spec, opt.seed, pool, nullptr);
      StackSampler sampler(std::chrono::microseconds(1000), 1 << 16);
      w.key("traced");
      runOnce(w, spec, opt.seed, pool, &sampler);
      std::ofstream samples(opt.workdir + "/samples.txt");
      sampler.write(samples);
      w.key("samples_dropped").value(sampler.dropped());
    }
    w.key("scaling").beginArray();
    for (unsigned workers : {2u, 1u}) {
      gol::exec::ThreadPool pool(workers);
      runOnce(w, spec, opt.seed, pool, nullptr);
    }
    w.endArray();
  }
  w.key("peak_rss_mb").value(peakRssMb()).endObject();
  return w.str();
}

}  // namespace perfbench
