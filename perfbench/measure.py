"""Timing, percentile, memory and run-record helpers shared by the workloads."""

import gc
import hashlib
import os
import platform
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def cyclic_slice(pool: bytes, start: int, end: int) -> bytes:
    """Bytes [start, end) of ``pool`` repeated end to end."""
    out = bytearray()
    while start < end:
        offset = start % len(pool)
        take = min(end - start, len(pool) - offset)
        out += pool[offset : offset + take]
        start += take
    return bytes(out)


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


class Pace:
    """How fast the host runs Python right now, read from a fixed kernel.

    On a shared host the same code runs up to twice as slow for seconds or
    minutes at a time. The workload calls ``tick()`` between its own pieces
    of work; whenever ``INTERVAL_S`` has gone since the last kernel run, it
    runs ``TICK_ITERATIONS`` of a pure-Python kernel, so kernel and
    workload share the same moments of the host. Like the programs, the
    kernel calls Python code, reads attributes and allocates: it replaces
    objects at random in a 64 Ki-slot ring (about 10 MiB) and updates a
    dict. A kernel of bare arithmetic and tuples tracked the host's speed
    less closely. The cyclic collector is off while it runs, so the
    workload's heap does not bill it. ``per_mref`` turns work done
    in some seconds into work per million kernel iterations' worth of host
    time: a figure that moves with the program's speed, not the host's.
    """

    RING = 1 << 16
    TICK_ITERATIONS = 200
    INTERVAL_S = 0.02

    def __init__(self):
        self.seconds = 0.0  # spent in the kernel
        self.iterations = 0
        self._ring = [_Item(i, 0.0, None) for i in range(self.RING)]
        self._state = 1
        self._counts = {}
        self._due = time.perf_counter() + self.INTERVAL_S

    def tick(self) -> None:
        """Run the kernel if ``INTERVAL_S`` has gone since it last ran."""
        if time.perf_counter() >= self._due:
            self._run()

    def _run(self) -> None:
        now = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        ring, counts, j, mask = self._ring, self._counts, self._state, self.RING - 1
        for i in range(self.TICK_ITERATIONS):
            j = (j * 1103515245 + 12345) & mask
            old = ring[j]
            ring[j] = _Item(old.a + 1, old.b * 0.5 + i, (j, i))
            key = j & 1023
            counts[key] = counts.get(key >> 3, 0) + 1
        self._state = j
        if collecting:
            gc.enable()
        end = time.perf_counter()
        self.seconds += end - now
        self.iterations += self.TICK_ITERATIONS
        self._due = end + self.INTERVAL_S

    def mark(self) -> tuple:
        """Where the kernel's totals stand, to pass to ``per_mref`` later."""
        return self.seconds, self.iterations

    def per_mref(self, work: float, seconds: float, since: tuple = (0.0, 0)) -> float:
        """``work`` done in ``seconds`` (kernel time left out), per million
        kernel iterations' worth of host time in the same moments: those
        since ``since``, a ``mark()``, or the whole run."""
        if self.iterations == since[1]:
            self._run()  # a window shorter than one interval
        kernel_s, iterations = self.seconds - since[0], self.iterations - since[1]
        return work / seconds * kernel_s / iterations * 1e6


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Metric:
    """One named figure as printed; ``samples`` adds p99 and n beside it."""

    value: float
    unit: str
    samples: list | None = None


@dataclass
class Outcome:
    """What a workload's timed phase produced, before the output checks."""

    attempted: int
    failed: int
    work: int  # work items completed in the timed phase (see each workload)
    elapsed_s: float
    rate: float  # work items per second: the workload's headline throughput
    paced: float = 0.0  # the same per million pace-kernel iterations (see Pace)
    metrics: dict = field(default_factory=dict)  # issue-named end-to-end metrics
    problems: list = field(default_factory=list)  # failed output checks


def timing_metrics(name: str, samples_s: list) -> dict:
    """``<name>_p50`` and ``<name>_p90`` in ms, each carrying the raw samples."""
    ms = [s * 1000.0 for s in samples_s]
    return {
        f"{name}_p50": Metric(percentile(ms, 50), "ms", ms),
        f"{name}_p90": Metric(percentile(ms, 90), "ms", ms),
    }


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed even on failure."""
    path = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it


def timed_setups(build, root: str, count: int, seconds: float = 0.0, keep_last: bool = True):
    """Call ``build(dir)`` at least ``count`` times and until ``seconds``
    have gone, each in a fresh directory under ``root``, and time each call.
    Every environment but the last (all of them unless ``keep_last``) is
    closed and its directory removed.
    Returns (the last environment or None, the durations)."""
    durations = []
    env = None
    began = time.perf_counter()
    while len(durations) < count or time.perf_counter() - began < seconds:
        if env is not None:
            env.close()
            env = None  # let it go before the next one is built
            gc.collect()
            shutil.rmtree(env_dir, ignore_errors=True)
        env_dir = tempfile.mkdtemp(dir=root)
        start = time.perf_counter()
        env = build(env_dir)
        durations.append(time.perf_counter() - start)
    if not keep_last and env is not None:
        env.close()
        shutil.rmtree(env_dir, ignore_errors=True)
        env = None
    return env, durations


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (tmpfs, ext4, ...)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def source_digest() -> str:
    """SHA-256 over the package sources, standing in for a commit id."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "octv")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def commit_id() -> str:
    """The checkout's git commit, if it is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> list[str]:
    import cryptography

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return [
        f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"nproc={nproc} python={platform.python_implementation()} {platform.python_version()} "
        f"cryptography={cryptography.__version__}",
        f"commit={commit_id()} src_sha256={source_digest()}",
        f"scratch_fs={filesystem_of(ROOT)} (wallet fsync and object files land here); "
        f"network=loopback 127.0.0.1 only, no real link",
    ]
