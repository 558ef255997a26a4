"""Symbolizes the stack samples perfbench writes and folds them into layers.

A sample is a list of program counters, leaf first. Each counter resolves to
the function that contains it: through `nm` of the benchmark executable, or
through the dynamic symbol table of the shared library it falls in. The
sample is then charged to one layer:

* idle: the leaf is a blocking wait (epoll_wait, sleep, join) that no named
  layer owns, for example an event loop waiting for work;
* alloc: malloc/free/new/delete run before the first repository frame;
* otherwise the layer of the first repository (``gol::``) frame, walking
  from the leaf towards the root. Libc syscall wrappers and standard
  library frames below it take that frame's layer, so fdatasync is charged
  to QuotaJournal::flush and connect() to the caller of connectTcp.

Layer names follow the repository's modules; see RULES.
"""

import bisect
import collections
import os
import re
import subprocess

# (pattern on the qualified function name, layer); first match wins. None
# means "not a layer of its own: keep walking towards the root".
RULES = [
    # Simulator side.
    (r"gol::sim::ShardedSimulator::", "sync"),
    (r"gol::exec::", "sync"),
    (r"gol::core::MetroSimulation::exchange", "sync"),
    (r"gol::sim::", "sim"),
    (r"gol::net::", "net"),
    (r"gol::flow::", "flow"),
    (r"gol::core::(\w*Scheduler|SchedulerRegistry|makeScheduler)", "sched"),
    (r"gol::core::UsageTracker", "governor"),
    (r"gol::core::", "engine"),
    (r"gol::(cell|access)::", "model"),
    (r"gol::http::Sim", "model"),
    # Live stack.
    (r"gol::http::(\(anonymous namespace\)::)?(parse|contentLength|"
     r"rangeStart|trim)", "http.parse"),
    (r"gol::proto::\(anonymous namespace\)::parsePartialHead", "http.parse"),
    (r"gol::proto::QuotaJournal::(flush|checkpoint)$", "journal.fsync"),
    (r"gol::proto::QuotaJournal::", "journal.append"),
    (r"gol::proto::(\(anonymous namespace\)::)?crc32c", "journal.append"),
    (r"gol::proto::TenantGovernor::", "governor"),
    (r"gol::proto::OnloadProxy::(onAccept|shedOverFdLimit|admitOrPark|"
     r"startPipe|drainPending|replyAndClose|OnloadProxy::\{lambda\})$",
     "proxy.accept"),
    (r"gol::proto::(OnloadProxy|RateLimiter)", "proxy.relay"),
    (r"gol::proto::EpollLoop::", "loop"),
    (r"gol::proto::MultipathHttpClient::", "client"),
    (r"gol::proto::OriginServer::", "origin"),
    (r"gol::proto::connectTcp", "connect"),
    # Thin wrappers and shared utilities take their caller's layer.
    (r"gol::proto::", None),
    (r"gol::(telemetry|stats|http)::", None),
    (r"perfbench::selftest::", "selftest"),
]
_COMPILED = [(re.compile(p), layer) for p, layer in RULES]

# Allocator entry points (dynamic symbols of libc / libstdc++).
ALLOC = re.compile(r"^(malloc|free|calloc|realloc|cfree|posix_memalign|"
                   r"aligned_alloc|_int_malloc|_int_free|operator new|"
                   r"operator delete|__libc_malloc|__libc_free)")
# Blocking waits: a thread parked here is waiting for work, not doing it.
SYNC_IO = re.compile(r"^(fdatasync|fsync)\b")
WAIT = re.compile(r"^(epoll_wait|epoll_pwait|nanosleep|clock_nanosleep|"
                  r"usleep|sleep|pthread_join|__pthread_clockjoin|"
                  r"pthread_cond_wait|pthread_cond_timedwait|"
                  r"pthread_cond_clockwait|std::condition_variable::wait|"
                  r"sem_wait|poll|ppoll|select|pselect)")

ANON = "(anonymous namespace)"


def qualified_name(symbol):
    """A demangled symbol's function name without return type or arguments.

    A lambda keeps a ``::{lambda}`` suffix so that a callback defined in a
    function is not mistaken for the function itself.
    """
    depth = 0
    start = None
    end = len(symbol)
    i = 0
    while i < len(symbol):
        if symbol.startswith(ANON, i):
            i += len(ANON)
            continue
        ch = symbol[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            if start is None and symbol.startswith(("gol::", "perfbench::"), i):
                start = i
            if ch == "(":
                end = i
                break
        i += 1
    name = symbol[start or 0:end]
    if "::{lambda" in symbol[end:]:
        name += "::{lambda}"
    return name


class Symbolizer:
    """Resolves program counters against the mappings a sample file lists."""

    def __init__(self, mappings):
        self.mappings = sorted(mappings)  # (start, end, offset, path)
        self.starts = [m[0] for m in self.mappings]
        self.tables = {}
        self.cache = {}

    def _table(self, path, dynamic):
        key = (path, dynamic)
        if key not in self.tables:
            cmd = ["nm", "-C", "--defined-only", "-n"]
            if dynamic:
                cmd.append("-D")
            out = subprocess.run(cmd + [path], capture_output=True, text=True).stdout
            addrs, names = [], []
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiI" and parts[0]:
                    addrs.append(int(parts[0], 16))
                    names.append(parts[2])
            self.tables[key] = (addrs, names)
        return self.tables[key]

    def resolve(self, pc, exe):
        if pc in self.cache:
            return self.cache[pc]
        i = bisect.bisect_right(self.starts, pc) - 1
        name = "?"
        lib = "?"
        if i >= 0 and pc < self.mappings[i][1]:
            start, _, offset, path = self.mappings[i]
            lib = os.path.basename(path)
            if os.path.realpath(path) == os.path.realpath(exe):
                addrs, names = self._table(path, dynamic=False)
                addr = pc
            else:
                addrs, names = self._table(path, dynamic=True)
                base = self._load_bias(path)
                addr = pc - base
            j = bisect.bisect_right(addrs, addr) - 1
            if j >= 0:
                name = names[j]
        self.cache[pc] = (lib, name)
        return self.cache[pc]

    def _load_bias(self, path):
        # The load bias of a shared object is its lowest mapping's start
        # minus that mapping's file offset (first PT_LOAD has vaddr 0).
        best = None
        for start, _, offset, p in self.mappings:
            if p == path and (best is None or start - offset < best):
                best = start - offset
        return best or 0


def parse_samples(path):
    period_us, roles, mappings, samples = 1000, {}, [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "S":
                fields = rest.split()
                samples.append((int(fields[0]), [int(x, 16) for x in fields[1:]]))
            elif kind == "M":
                start, end, offset, p = rest.split(" ", 3)
                mappings.append((int(start, 16), int(end, 16), int(offset, 16), p))
            elif kind == "T":
                tid, role = rest.split(" ", 1)
                roles[int(tid)] = role
            elif kind == "P":
                period_us = int(rest)
    return period_us, roles, mappings, samples


def classify(frames):
    """Layer of one sample, given its (lib, name) frames leaf first."""
    leaf_waits = False
    saw_alloc = False
    saw_sync_io = False
    for depth, (_, name) in enumerate(frames):
        qual = qualified_name(name)
        if qual.startswith(("gol::", "perfbench::selftest::")):
            for rx, layer in _COMPILED:
                if rx.match(qual):
                    break
            else:
                layer = "other"
            if layer is None:
                continue
            if layer == "connect":
                # connectTcp is charged to whichever component dialled.
                for _, up in frames[depth + 1:]:
                    upq = qualified_name(up)
                    if upq.startswith("gol::proto::OnloadProxy"):
                        return "proxy.connect"
                    if upq.startswith("gol::proto::MultipathHttpClient"):
                        return "client"
                continue
            if saw_alloc:
                return "alloc"
            if leaf_waits and layer != "sync":
                return "idle"
            if saw_sync_io and layer.startswith("journal."):
                # QuotaJournal::flush is often inlined into its appenders.
                return "journal.fsync"
            return layer
        if SYNC_IO.match(qual):
            saw_sync_io = True
        if WAIT.match(qual):
            leaf_waits = True
        if ALLOC.match(qual):
            saw_alloc = True
    if leaf_waits:
        return "idle"
    return "alloc" if saw_alloc else "other"


def fold(sample_path, exe):
    """Returns (seconds per layer, samples per tid-role, total samples)."""
    period_us, roles, mappings, samples = parse_samples(sample_path)
    sym = Symbolizer(mappings)
    seconds = collections.Counter()
    per_role = collections.defaultdict(collections.Counter)
    for tid, pcs in samples:
        # Return addresses point past the call; step back into it.
        frames = [sym.resolve(pc if i == 0 else pc - 1, exe)
                  for i, pc in enumerate(pcs)]
        layer = classify(frames)
        seconds[layer] += period_us * 1e-6
        per_role[roles.get(tid, "worker")][layer] += 1
    return seconds, per_role, len(samples)


def coverage(seconds):
    """Share of sampled busy time (everything but idle) in named layers."""
    busy = sum(v for k, v in seconds.items() if k != "idle")
    if busy <= 0:
        return 0.0
    return 1.0 - seconds.get("other", 0.0) / busy
