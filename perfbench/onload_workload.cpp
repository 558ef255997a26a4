// The two live-stack workloads: one household's proto::MultipathHttpClient
// fetching 16 x 4 KB transactions in a closed loop, over a direct/ADSL leg
// plus three governed proto::OnloadProxy phone legs to a proto::OriginServer.
// Client, proxies and origin each own an EpollLoop on their own thread.
//
//   onload_relay    unshaped links, latency 0: the per-request CPU path.
//   onload_faulted  links shaped like the Fig 6 testbed and a seeded
//                   schedule of relay kills, blackouts and quota
//                   exhaustion/refresh: bound by the emulated links.
//
// Set-up (journal open/replay of a seeded history, governor restore,
// listener binds) is built and torn down several times and timed; the last
// build serves the measured phase. The run reports raw books; run.py checks
// the gates (no corrupt payload, every transaction terminated, fds back to
// their start count, WAL replay == governor).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "access/adsl.hpp"
#include "harness.hpp"
#include "proto/multipath_client.hpp"
#include "proto/origin_server.hpp"
#include "proto/proxy.hpp"
#include "proto/quota_journal.hpp"
#include "proto/tenant_governor.hpp"
#include "sampler.hpp"
#include "stats/summary.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using namespace gol::proto;
using gol::telemetry::JsonWriter;
using Clock = std::chrono::steady_clock;

constexpr int kItemsPerTxn = 16;
constexpr std::size_t kItemBytes = 4096;
constexpr int kPhones = 3;
constexpr int kSetupReps = 25;
constexpr double kUnshapedBps = 1e12;
/// Transactions still in flight this long after the window closes are
/// reported as not terminated.
constexpr double kGraceSeconds = 30;
/// Charges captured, and replayed through the standalone governor, in
/// traced runs.
constexpr std::size_t kReplayCharges = 20000;
/// The recovered history: the tenant count of tools/proxy_load (and of its
/// committed seed) at the per-tenant allowance tools/proxy_host defaults to.
constexpr int kHistoryTenants = 32;
constexpr double kHistoryAllowance = 50e6;

struct Spec {
  bool faulted;
  int sessions;  ///< Concurrent fetch sessions of the one household.
};

Spec specFor(const std::string& workload) {
  if (workload == "onload_relay") return {false, 1};
  // Faulted: 24 concurrent sessions, so that a 15 s window holds ~750
  // transactions, each bound by the emulated link latency.
  if (workload == "onload_faulted") return {true, 24};
  throw std::invalid_argument("unknown onload workload: " + workload);
}

QuotaJournalConfig journalConfig(const std::string& path) {
  QuotaJournalConfig cfg;
  cfg.path = path;
  cfg.days_per_month = 1;
  cfg.fsync = true;
  return cfg;
}

TenantGovernorConfig governorConfig(const Spec& spec) {
  TenantGovernorConfig cfg;
  cfg.days_per_month = 1;  // the whole budget is live; nextDay() refreshes it
  // Faulted: the household exhausts its onload budget within a refresh
  // period, so quota denial and ADSL fallback happen every period.
  cfg.default_monthly_allowance_bytes = spec.faulted ? 5e6 : 1e15;
  return cfg;
}

/// A proxy's ledger history: the WAL a restarted phone proxy recovers at
/// start-up. Charges are appended until the file reaches compact_min_bytes,
/// the size past which the governor compacts it to a snapshot, so this is
/// the longest history a proxy replays.
void writeHistory(const std::string& path, std::uint64_t seed) {
  std::filesystem::remove(path);
  QuotaJournalConfig cfg = journalConfig(path);
  cfg.fsync = false;
  QuotaJournal journal(cfg);
  journal.open();
  std::mt19937_64 rng(seed);
  std::vector<std::string> tenants;
  for (int t = 0; t < kHistoryTenants; ++t) {
    tenants.push_back("127.2.0." + std::to_string(t + 1));
    journal.appendAllowance(tenants.back(), kHistoryAllowance);
  }
  std::uniform_int_distribution<std::size_t> pick(0, tenants.size() - 1);
  while (journal.fileBytes() + journal.pendingBytes() < cfg.compact_min_bytes)
    journal.appendCharge(tenants[pick(rng)], static_cast<double>(kItemBytes));
  journal.flush();
}

/// Everything set-up builds. Member order is teardown order reversed:
/// proxies unregister from their loop, so the loops go last.
struct Service {
  EpollLoop client_loop, proxy_loop, origin_loop;
  QuotaJournal journal;
  TenantGovernor governor;
  OriginServer origin;
  std::unique_ptr<OnloadProxy> adsl;  ///< faulted only: the shaped ADSL leg
  std::vector<std::unique_ptr<OnloadProxy>> phones;

  Service(const Spec& spec, const std::string& wal)
      : journal(journalConfig(wal)),
        governor(governorConfig(spec)),
        origin(origin_loop) {
    governor.restore(journal.open().state);
    governor.attachJournal(&journal);
    if (spec.faulted) {
      ProxyConfig cfg;
      cfg.upstream_port = origin.port();
      cfg.down_bps = 2e6;
      cfg.up_bps = 0.5e6;
      // One-way delay: half the round trip of the repo's ADSL model.
      cfg.latency = std::chrono::microseconds(
          static_cast<long>(gol::access::AdslConfig{}.rtt_s / 2 * 1e6));
      adsl = std::make_unique<OnloadProxy>(proxy_loop, cfg);
    }
    for (int p = 0; p < kPhones; ++p) {
      ProxyConfig cfg;
      cfg.upstream_port = origin.port();
      cfg.down_bps = spec.faulted ? 8e6 : kUnshapedBps;
      cfg.up_bps = spec.faulted ? 2e6 : kUnshapedBps;
      cfg.latency = std::chrono::microseconds(spec.faulted ? 50000 : 0);
      cfg.governor = &governor;
      phones.push_back(std::make_unique<OnloadProxy>(proxy_loop, cfg));
    }
  }

  std::vector<Endpoint> endpoints() const {
    std::vector<Endpoint> out{{"adsl", adsl ? adsl->port() : origin.port()}};
    for (int p = 0; p < kPhones; ++p)
      out.push_back({"phone" + std::to_string(p),
                     phones[static_cast<std::size_t>(p)]->port()});
    return out;
  }

  bool relaysIdle() const {
    if (adsl && adsl->activeConnections() + adsl->pendingConnections() != 0)
      return false;
    for (const auto& p : phones)
      if (p->activeConnections() + p->pendingConnections() != 0) return false;
    return true;
  }
};

/// Seeded fault schedule, run on the proxy thread: relay kills rotate over
/// the phones every 1.1 s, one phone at a time blacks out for 400 ms every
/// 1.7 s, and the tenant allowance refreshes (nextDay) every 2.3 s. The seed
/// picks the kill and blackout phases and first phones; the periods are
/// fixed so that every seed sees the same fault load and the latency it
/// causes does not swing with the seed.
struct FaultPlan {
  enum Kind { kKill, kBlackout, kResume, kRefresh };
  struct Event {
    double at_s;
    Kind kind;
    int phone;
  };
  std::vector<Event> events;
  std::size_t next = 0;

  FaultPlan(std::uint64_t seed, double seconds) {
    std::mt19937_64 rng(seed ^ 0xFA017ULL);
    std::uniform_real_distribution<double> phase(0.0, 1.0);
    const auto periodic = [&](double period, Kind kind) {
      int phone = static_cast<int>(rng() % kPhones);
      // Refreshes keep a fixed phase: the allowance runs out at the same
      // point of every run, so the ADSL-only share does not vary by seed.
      const double first = kind == kRefresh ? period : period * phase(rng);
      for (double t = first; t < seconds; t += period) {
        events.push_back({t, kind, phone});
        if (kind == kBlackout) events.push_back({t + 0.4, kResume, phone});
        phone = (phone + 1) % kPhones;
      }
    };
    periodic(1.1, kKill);
    periodic(1.7, kBlackout);
    periodic(2.3, kRefresh);
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at_s < b.at_s; });
  }

  void apply(Service& svc, double elapsed_s) {
    for (; next < events.size() && events[next].at_s <= elapsed_s; ++next) {
      const Event& e = events[next];
      OnloadProxy& phone = *svc.phones[static_cast<std::size_t>(e.phone)];
      switch (e.kind) {
        case kKill: phone.killActiveConnections(); break;
        case kBlackout: phone.pauseAccepting(); break;
        case kResume: phone.resumeAccepting(); break;
        case kRefresh: svc.governor.nextDay(); break;
      }
    }
  }
};

std::vector<FetchItem> makeItems() {
  return std::vector<FetchItem>(
      kItemsPerTxn, FetchItem{"/obj/" + std::to_string(kItemBytes), kItemBytes});
}

/// Client-side books summed over every harvested transaction.
struct ClientBooks {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< Completion times from the window's start.
  std::uint64_t items = 0, failed_items = 0, attempts = 0, duplicated = 0;
  std::uint64_t wasted_bytes = 0, retries = 0, resumed = 0;
  std::uint64_t quota_denials = 0, busy_sheds = 0, corrupt = 0, degraded = 0;

  void harvest(const MultipathResult& r, double now_s) {
    latency_ms.push_back(r.duration_s * 1e3);
    done_s.push_back(now_s);
    items += r.per_item_attempts.size();
    failed_items += r.failed_items;
    for (const int a : r.per_item_attempts) attempts += static_cast<std::uint64_t>(a);
    duplicated += r.duplicated_items;
    wasted_bytes += r.wasted_bytes;
    retries += r.retries;
    resumed += r.resumed_attempts;
    quota_denials += r.quota_denials;
    busy_sheds += r.busy_sheds;
    corrupt += r.corrupt_payloads;
    degraded += r.outcome == FetchOutcome::kCompletedDegraded;
  }
};

/// Times every chargeBytes call of the captured stream against a
/// standalone governor + journal on the same filesystem.
std::pair<double, double> replayCharges(
    const Spec& spec, const std::string& path,
    const std::vector<std::pair<std::string, double>>& charges) {
  std::filesystem::remove(path);
  QuotaJournal journal(journalConfig(path));
  journal.open();
  TenantGovernor governor(governorConfig(spec));
  governor.attachJournal(&journal);
  std::vector<double> us;
  us.reserve(charges.size());
  for (const auto& [tenant, bytes] : charges) {
    const auto t0 = Clock::now();
    governor.chargeBytes(tenant, bytes);
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count());
  }
  journal.flush();
  std::filesystem::remove(path);
  if (us.empty()) return {0, 0};
  const double ps[] = {0.50, 0.99};
  const std::vector<double> q = gol::stats::quantiles(std::move(us), ps);
  return {q[0], q[1]};
}

bool ledgersEqual(const LedgerState& a, const LedgerState& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, la] : a) {
    const auto it = b.find(name);
    if (it == b.end()) return false;
    const TenantLedger& lb = it->second;
    if (la.monthly_allowance != lb.monthly_allowance ||
        la.used_today != lb.used_today || la.used_month != lb.used_month ||
        la.day != lb.day)
      return false;
  }
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

std::string runOnload(const Options& opt) {
  const Spec spec = specFor(opt.workload);
  const std::string wal = opt.workdir + "/quota.wal";
  writeHistory(wal, opt.seed);
  const std::string history = slurp(wal);
  const std::size_t fds_start = openFdCount();

  // Set-up, repeated: each build replays the same history from disk.
  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    std::ofstream(wal, std::ios::binary | std::ios::trunc) << history;
    const double t0 = monotonicSeconds();
    svc = std::make_unique<Service>(spec, wal);
    setup_s.push_back(monotonicSeconds() - t0);
  }

  gol::telemetry::Registry client_reg, proxy_reg, origin_reg, phone_reg;
  svc->client_loop.instrument(&client_reg);
  svc->proxy_loop.instrument(&proxy_reg);
  svc->origin_loop.instrument(&origin_reg);
  for (auto& p : svc->phones) p->instrument(&phone_reg);
  // Traced runs keep the head of the charge stream for the replay; the
  // untraced pass runs without the hook.
  std::vector<std::pair<std::string, double>> charges;
  if (opt.trace) {
    charges.reserve(kReplayCharges);
    svc->governor.on_charge = [&charges](const std::string& tenant,
                                         double bytes) {
      if (charges.size() < kReplayCharges) charges.emplace_back(tenant, bytes);
    };
  }

  std::atomic<bool> stop_proxy{false}, stop_origin{false};
  double client_cpu = 0, proxy_cpu = 0, origin_cpu = 0;
  std::thread origin_thread([&] {
    registerThread("origin");
    const double cpu0 = threadCpuSeconds();
    while (!stop_origin.load()) svc->origin_loop.poll(std::chrono::milliseconds(5));
    origin_cpu = threadCpuSeconds() - cpu0;
  });
  FaultPlan faults(opt.seed, spec.faulted ? opt.seconds : 0.0);
  const double start_s = monotonicSeconds();
  std::thread proxy_thread([&] {
    registerThread("proxy");
    const double cpu0 = threadCpuSeconds();
    while (!stop_proxy.load()) {
      svc->proxy_loop.poll(std::chrono::milliseconds(2));
      faults.apply(*svc, monotonicSeconds() - start_s);
    }
    // Let relays whose clients walked away close before teardown.
    const double quiet_by = monotonicSeconds() + 5;
    while (!svc->relaysIdle() && monotonicSeconds() < quiet_by)
      svc->proxy_loop.poll(std::chrono::milliseconds(2));
    proxy_cpu = threadCpuSeconds() - cpu0;
  });

  std::unique_ptr<StackSampler> sampler;
  if (opt.trace) {
    sampler = std::make_unique<StackSampler>(std::chrono::microseconds(1000),
                                             1 << 17);
  }
  ClientBooks books;
  bool terminated = false;
  double elapsed_s = 0;
  std::atomic<bool> client_ready{false};
  std::thread client_thread([&] {
    registerThread("client");
    // bind_addr stays 0: the household is one tenant. Retry settings as in
    // tools/proxy_load: a deep attempt budget so faulted items ride the
    // backoff out to the ADSL leg instead of failing.
    ClientConfig ccfg;
    ccfg.max_attempts = 8;
    ccfg.base_backoff = std::chrono::milliseconds(50);
    ccfg.quarantine = std::chrono::milliseconds(300);
    const auto endpoints = svc->endpoints();
    std::vector<std::unique_ptr<MultipathHttpClient>> sessions;
    for (int s = 0; s < spec.sessions; ++s)
      sessions.push_back(std::make_unique<MultipathHttpClient>(
          svc->client_loop, endpoints, ccfg));
    while (!client_ready.load()) std::this_thread::yield();
    const double cpu0 = threadCpuSeconds();
    const double t0 = monotonicSeconds();
    const double deadline = t0 + opt.seconds;
    std::vector<bool> running(sessions.size(), true);
    for (auto& s : sessions) s->start(makeItems());
    for (;;) {
      svc->client_loop.poll(std::chrono::milliseconds(20));
      const double now = monotonicSeconds();
      bool any_running = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (running[s] && sessions[s]->done()) {
          books.harvest(sessions[s]->result(), now - t0);
          running[s] = false;
          if (now < deadline) {
            sessions[s]->start(makeItems());
            running[s] = true;
          }
        }
        any_running = any_running || running[s];
      }
      if (!any_running) {
        terminated = true;
        break;
      }
      if (now >= deadline + kGraceSeconds) break;
    }
    elapsed_s = monotonicSeconds() - t0;
    client_cpu = threadCpuSeconds() - cpu0;
  });

  registerThread("main");
  if (sampler) sampler->start();
  client_ready = true;
  client_thread.join();
  if (sampler) sampler->stop();
  stop_proxy = true;
  proxy_thread.join();
  stop_origin = true;
  origin_thread.join();

  // Durability gate: after a final flush the WAL replays to exactly the
  // governor's live ledger.
  svc->journal.flush();
  const ReplayResult replayed = QuotaJournal::replay(slurp(wal), 1);
  const bool journal_match =
      !replayed.torn && ledgersEqual(replayed.state, svc->governor.snapshot());

  JsonWriter w;
  const auto array = [&w](const char* key, const std::vector<double>& v) {
    w.key(key).beginArray();
    for (const double x : v) w.value(x);
    w.endArray();
  };
  const auto polled = [&](const char* name) {
    return client_reg.counter(name).value() + proxy_reg.counter(name).value() +
           origin_reg.counter(name).value();
  };
  w.beginObject();
  array("setup_s", setup_s);
  w.key("elapsed_s").value(elapsed_s)
      .key("terminated").value(terminated)
      .key("transactions").value(books.latency_ms.size());
  array("latency_ms", books.latency_ms);
  array("done_s", books.done_s);
  w.key("items").value(books.items)
      .key("failed_items").value(books.failed_items)
      .key("attempts").value(books.attempts)
      .key("duplicated_items").value(books.duplicated)
      .key("wasted_bytes").value(books.wasted_bytes)
      .key("retries").value(books.retries)
      .key("resumed_attempts").value(books.resumed)
      .key("quota_denials").value(books.quota_denials)
      .key("busy_sheds").value(books.busy_sheds)
      .key("corrupt_payloads").value(books.corrupt)
      .key("degraded").value(books.degraded)
      .key("client_cpu_s").value(client_cpu)
      .key("proxy_cpu_s").value(proxy_cpu)
      .key("origin_cpu_s").value(origin_cpu)
      .key("proxy_accepts")
      .value(phone_reg.counter("gol.proto.proxy_accepts").value())
      .key("poll_iterations").value(polled("gol.proto.poll_iterations"))
      .key("events_dispatched").value(polled("gol.proto.events_dispatched"))
      .key("journal_records").value(svc->journal.appendedRecords())
      .key("journal_flushes").value(svc->journal.flushes())
      .key("journal_match").value(journal_match);

  if (sampler) {
    std::ofstream samples(opt.workdir + "/samples.txt");
    sampler->write(samples);
    w.key("samples_dropped").value(sampler->dropped());
    const auto [p50, p99] =
        replayCharges(spec, opt.workdir + "/replay.wal", charges);
    w.key("charge_us_p50").value(p50).key("charge_us_p99").value(p99);
  }
  sampler.reset();
  svc.reset();
  std::filesystem::remove(wal);
  w.key("fds_start").value(fds_start)
      .key("fds_end").value(openFdCount())
      .key("peak_rss_mb").value(peakRssMb())
      .endObject();
  return w.str();
}

}  // namespace perfbench
