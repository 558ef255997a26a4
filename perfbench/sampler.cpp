#include "sampler.hpp"

#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

struct Sample {
  int tid;
  int depth;
  void* pcs[StackSampler::kMaxDepth];
};

// The handler can only reach globals. One sampler is active at a time.
Sample* g_buffer = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};
std::atomic<bool> g_active{false};

std::mutex g_roles_m;
std::map<int, std::string> g_roles;

void onSample(int, siginfo_t*, void* context) {
  if (!g_active.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < g_capacity) {
    Sample& s = g_buffer[slot];
    s.tid = static_cast<int>(::syscall(SYS_gettid));
    void* raw[StackSampler::kMaxDepth];
    const int n = ::backtrace(raw, StackSampler::kMaxDepth);
    // backtrace() starts inside this handler; the interrupted frame is the
    // one whose pc equals the signal context's instruction pointer.
    void* const pc = reinterpret_cast<void*>(
        static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
    int first = 0;
    while (first < n && raw[first] != pc) ++first;
    int depth = 0;
    if (first == n) {
      s.pcs[depth++] = pc;
      first = n < 2 ? n : 2;  // handler + trampoline
    }
    for (int i = first; i < n && depth < StackSampler::kMaxDepth; ++i)
      s.pcs[depth++] = raw[i];
    s.depth = depth;
  }
  errno = saved_errno;
}

std::vector<int> listThreads() {
  std::vector<int> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(std::stoi(e.path().filename().string()));
  return tids;
}

}  // namespace

int currentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

void registerThread(const std::string& role) {
  std::lock_guard<std::mutex> lock(g_roles_m);
  g_roles[currentTid()] = role;
}

StackSampler::StackSampler(std::chrono::microseconds period,
                           std::size_t capacity)
    : period_(period) {
  if (g_buffer != nullptr)
    throw std::logic_error("StackSampler: only one sampler at a time");
  g_buffer = new Sample[capacity];
  g_capacity = capacity;
  g_next.store(0);
  // The first backtrace() call loads the unwinder; do it outside a handler.
  void* warm[4];
  ::backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = onSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, nullptr) != 0)
    throw std::runtime_error("StackSampler: sigaction");
}

StackSampler::~StackSampler() {
  stop();
  // Leave the handler installed but inert: a signal already queued may
  // still arrive after the timers are gone.
  g_active.store(false);
  g_capacity = 0;
  delete[] g_buffer;
  g_buffer = nullptr;
}

void StackSampler::start() {
  if (running_) return;
  g_active.store(true);
  for (const int tid : listThreads()) {
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = tid;
    timer_t timer{};
    if (::timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) continue;
    itimerspec spec{};
    spec.it_interval.tv_sec = period_.count() / 1000000;
    spec.it_interval.tv_nsec = (period_.count() % 1000000) * 1000;
    spec.it_value = spec.it_interval;
    ::timer_settime(timer, 0, &spec, nullptr);
    timers_[tid] = timer;
  }
  running_ = true;
}

void StackSampler::stop() {
  if (!running_) return;
  for (const auto& [tid, timer] : timers_) ::timer_delete(timer);
  timers_.clear();
  g_active.store(false);
  running_ = false;
}

std::size_t StackSampler::samples() const {
  return std::min(g_next.load(), g_capacity);
}

std::size_t StackSampler::dropped() const {
  const std::size_t n = g_next.load();
  return n > g_capacity ? n - g_capacity : 0;
}

void StackSampler::write(std::ostream& out) const {
  out << "P " << period_.count() << "\n";
  {
    std::lock_guard<std::mutex> lock(g_roles_m);
    for (const auto& [tid, role] : g_roles) out << "T " << tid << " " << role << "\n";
  }
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // start-end perms offset dev inode path
    char range[64], perms[8], offset[32], dev[16];
    unsigned long inode = 0;
    char path[512] = {0};
    if (std::sscanf(line.c_str(), "%63s %7s %31s %15s %lu %511s", range, perms,
                    offset, dev, &inode, path) < 6)
      continue;
    if (perms[2] != 'x' || path[0] != '/') continue;
    std::string r(range);
    const auto dash = r.find('-');
    out << "M " << r.substr(0, dash) << " " << r.substr(dash + 1) << " "
        << offset << " " << path << "\n";
  }
  const std::size_t n = samples();
  char hex[24];
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_buffer[i];
    out << "S " << s.tid;
    for (int d = 0; d < s.depth; ++d) {
      std::snprintf(hex, sizeof hex, " %lx",
                    reinterpret_cast<unsigned long>(s.pcs[d]));
      out << hex;
    }
    out << "\n";
  }
}

}  // namespace perfbench
