"""Span tracing around the octv layers, installed from outside the package.

Entry points are wrapped where callers look them up:

* ``crypto`` functions are called as module attributes (``crypto.x``), so
  they are replaced on the ``octv.crypto`` module;
* ``protocol`` codecs are bound by ``from ... import`` into ``camera``,
  ``client`` and ``sim``, so they are replaced in those namespaces;
* objects the benchmark passes in (store, fetcher, wallet, peer) are
  wrapped in a :class:`Proxy`;
* objects built inside ``run_scenario`` are wrapped on their classes.

Every call makes a span (name, start, end, parent). Spans of hot names
are folded into per-name counts, total and self time as they close;
others are also kept whole, up to a cap. Self time is a span's duration
minus the time its child spans cover.
"""

import threading
import time

from .measure import percentile

_KEEP_SPANS = 20000


class _Stat:
    __slots__ = ("count", "total", "self_time", "nbytes", "errors", "durations")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.nbytes = 0
        self.errors = 0
        self.durations = None  # list when per-call samples are kept


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up calls, say)."""
        with self._lock:
            for stat in self.stats.values():
                stat.count = stat.nbytes = stat.errors = 0
                stat.total = stat.self_time = 0.0
                if stat.durations is not None:
                    stat.durations = []
            self.spans = []

    def stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats.setdefault(name, _Stat())
        return stat

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, stat, frame, start, end, nbytes, failed, keep):
        stack = self._stack()
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        with self._lock:
            stat.count += 1
            stat.total += duration
            stat.self_time += duration - frame[1]
            stat.nbytes += nbytes
            stat.errors += failed
            if stat.durations is not None:
                stat.durations.append(duration)
            if keep and len(self.spans) < _KEEP_SPANS:
                self.spans.append((name, start, end, parent[0] if parent else None))

    def wrap(self, name: str, fn, *, size=None, samples=False, hot=True):
        """``fn`` recorded as span ``name``; ``size(args, result)`` counts bytes."""
        stat = self.stat(name)
        if samples and stat.durations is None:
            stat.durations = []
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack().append(frame)
            failed = 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                end = time.perf_counter()
                nbytes = size(args, result) if size is not None else 0
                tracer._close(name, stat, frame, start, end, nbytes, failed, not hot)

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`uninstall`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def count(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.count if stat else 0

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(s.self_time for n, s in self.stats.items() if n.startswith(prefix))

    def mib_per_s(self, *names: str) -> float:
        nbytes = sum(self.stats[n].nbytes for n in names if n in self.stats)
        seconds = sum(self.total(n) for n in names)
        return nbytes / 1048576.0 / seconds if seconds > 0 else 0.0

    def mean_us(self, *names: str) -> float:
        calls = sum(self.count(n) for n in names)
        seconds = sum(self.total(n) for n in names)
        return seconds * 1e6 / calls if calls else 0.0

    def durations(self, name: str) -> list:
        stat = self.stats.get(name)
        return list(stat.durations or []) if stat else []

    def errors(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.errors if stat else 0


class Proxy:
    """Forwards every attribute to ``target``; ``methods`` maps attr -> span name."""

    def __init__(self, tracer: Tracer, target, methods: dict, **options):
        self._target = target
        for attr, name in methods.items():
            setattr(self, attr, tracer.wrap(name, getattr(target, attr), **options))

    def __getattr__(self, attr):
        return getattr(self._target, attr)


PROTOCOL_CODECS = (
    "encode_advertisement",
    "decode_advertisement",
    "encode_key_packet",
    "decode_key_packet",
    "encode_characteristic",
    "decode_characteristic",
)

DECODERS = tuple(f"protocol.{n}" for n in PROTOCOL_CODECS if n.startswith("decode_"))
SEALS = ("crypto.seal.encrypt_segment", "crypto.seal.encrypt_segment_chunked")
OPENS = ("crypto.open.decrypt_segment", "crypto.open.decrypt_segment_chunked")


def first_arg_len(args, _result) -> int:
    return len(args[0])


def result_len(_args, result) -> int:
    return len(result) if result is not None else 0


def install_layers(tracer: Tracer) -> None:
    """Wrap the crypto and protocol entry points every workload reaches."""
    from octv import camera, client, crypto, sim

    for attr in ("encrypt_segment", "encrypt_segment_chunked"):
        tracer.patch(crypto, attr, f"crypto.seal.{attr}", size=first_arg_len)
    for attr in ("decrypt_segment", "decrypt_segment_chunked"):
        tracer.patch(crypto, attr, f"crypto.open.{attr}", size=first_arg_len)
    tracer.patch(crypto, "hash_prefix", "crypto.hash_prefix", size=first_arg_len)
    tracer.patch(crypto, "derive_chunk_key", "crypto.derive_chunk_key")
    for module in (camera, client, sim):
        for attr in PROTOCOL_CODECS:
            if hasattr(module, attr):
                tracer.patch(module, attr, f"protocol.{attr}")


def percentile_ms(tracer: Tracer, name: str, q: float = 50) -> float:
    """Percentile of a sampled span's durations in ms; 0 when it never ran."""
    samples = tracer.durations(name)
    return percentile(samples, q) * 1000.0 if samples else 0.0


def request_counts(request_log, expected=()) -> tuple[dict, int]:
    """``store.requests.<METHOD>.<status>`` counts from ``StoreServer.request_log``.

    Returns the counts and how many responses were non-2xx, leaving out
    the (method, status) pairs in ``expected``.
    """
    counts = {}
    non_2xx = 0
    for line in list(request_log):
        method, _path, status, _size = line.split(" ")
        name = f"store.requests.{method}.{status}"
        counts[name] = (counts.get(name, (0, "count"))[0] + 1, "count")
        if not status.startswith("2") and (method, status) not in expected:
            non_2xx += 1
    return counts, non_2xx


def camera_events_per_s(tracer: Tracer) -> float:
    """Camera events (adverts sent plus containers sealed) per camera self second."""
    events = tracer.count("transport.advertise") + sum(tracer.count(n) for n in SEALS)
    camera_s = tracer.self_time("camera.")
    return events / camera_s if camera_s else 0.0


def verdict_metrics(verdicts: dict) -> dict:
    """``client.chain_*`` and ``client.not_found`` counts of a run."""
    return {
        "client.chain_ok": (verdicts["ok"], "count"),
        "client.chain_mismatch": (verdicts["mismatch"], "count"),
        "client.chain_unknown": (verdicts["unknown"], "count"),
        "client.not_found": (verdicts["not_found"], "count"),
    }


def common_layer_metrics(tracer: Tracer) -> dict:
    """Protocol and crypto figures, named as in BENCHMARK.json."""
    return {
        "protocol.adverts_encoded": (tracer.count("protocol.encode_advertisement"), "count"),
        "protocol.adverts_decoded": (tracer.count("protocol.decode_advertisement"), "count"),
        "protocol.decode_us": (tracer.mean_us(*DECODERS), "us"),
        "crypto.seal_calls": (sum(tracer.count(n) for n in SEALS), "count"),
        "crypto.seal_mib_per_s": (tracer.mib_per_s(*SEALS), "MiB/s"),
        "crypto.hash_mib_per_s": (tracer.mib_per_s("crypto.hash_prefix"), "MiB/s"),
        "crypto.open_calls": (sum(tracer.count(n) for n in OPENS), "count"),
        "crypto.open_mib_per_s": (tracer.mib_per_s(*OPENS), "MiB/s"),
        "crypto.chunk_keys_derived": (tracer.count("crypto.derive_chunk_key"), "count"),
        # opens that raised: wrong key, tampered bytes or a malformed container
        "crypto.auth_failures": (sum(tracer.errors(n) for n in OPENS), "count"),
    }
