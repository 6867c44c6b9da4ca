"""wallet_catchup: a subject's day of held keys, replayed at the end.

Set-up plays 100 continuously running cameras (a third of them chunked,
6 chunks of a 32 KiB segment) past one subject. Each camera is visited
four times, 30 held segments in all; the subject arrives and leaves
mid-segment, so the last held segment of a visit has no successor
packet. Every tenth camera is revisited exactly one ``seq`` lap (256
segments) later, on top of the visits that fall on a later lap by
chance. Only the held segments are stored, in a ``MemoryObjectStore``
served by ``StoreServer`` over HTTP on loopback: creating some 3000
files made set-up time swing threefold with the host's disk load, and
``demo_pipeline`` already covers ``FsObjectStore``. The wallet file is
written with ``export_wallet``, records first, then tokens.

The timed phase opens the wallet with ``Wallet(path)``, runs
``group_sessions``, then fetches, decrypts and chain-checks every held
segment with ``fetch_and_decrypt`` over HTTP GET. A work item is one
held segment resolved; the host's pace is read (``Pace.tick``) between
segments, and the paced rate is the median over passes. ``attempted``
and ``failed`` count the first pass only, so they depend on the seed
and not on the machine's speed; every later pass must reach the same
verdict on every segment.

``Wallet.successor_of`` has no time bound, so a held segment whose true
successor was not held is paired with the packet of the same ``seq`` on
a later lap and reads ``MISMATCH``. Those verdicts count as failures.
"""

import os
import random
import statistics
import time
from dataclasses import dataclass

from octv import crypto
from octv.client import Wallet, WalletRecord, export_wallet, fetch_and_decrypt, group_sessions
from octv.crypto import ChainStatus, ChunkToken
from octv.errors import NotFoundError, OctvError
from octv.protocol import CameraDescriptor, Coordinates, KeyPacket, Mode
from octv.store import MemoryObjectStore, ObjectKey, StoreServer, fetch_url

from .measure import Metric, Outcome, Pace, cyclic_slice, timing_metrics
from .tracing import Proxy, Tracer, percentile_ms, request_counts, result_len, verdict_metrics

CAMERAS = 100
HELD_PER_CAMERA = 30
VISITS_PER_CAMERA = 4
CHUNKS = 6
SEGMENT_BYTES = 32 * 1024
DAY_S = 86400.0
INTERVALS_S = (10, 15, 20, 30)
_POOL_BYTES = 4 * 1024 * 1024 + 1021


@dataclass
class _Held:
    """What the subject should get back for one held segment."""

    camera: int
    index: int  # segment number since the camera started
    tokens: frozenset  # chunk indices whose token is held; empty when unchunked
    chunked: bool
    verdict: ChainStatus | None  # correct verdict: OK iff the next segment is held


def _segment_secrets(seed: int, camera: int, index: int):
    rng = random.Random(f"{seed}/{camera}/{index}")
    return rng.randbytes(32), rng.randbytes(8), [rng.randbytes(16) for _ in range(CHUNKS)]


def _plaintext(pool: bytes, camera: int, index: int) -> bytes:
    start = camera * 1_000_003 + index * SEGMENT_BYTES
    return cyclic_slice(pool, start, start + SEGMENT_BYTES)


def _visits(rng: random.Random, interval: int, origin: float, wrap_revisit: bool):
    """Held segment runs (first, last, arrive, leave) for one camera.

    Runs are at least one unheld segment apart. With ``wrap_revisit`` the
    second run comes one lap after the first and holds the segment with
    the same ``seq`` as the one after the first run's last.
    """
    cuts = sorted(rng.choices(range(HELD_PER_CAMERA - 2 * VISITS_PER_CAMERA + 1),
                              k=VISITS_PER_CAMERA - 1))
    bounds = [0] + cuts + [HELD_PER_CAMERA - 2 * VISITS_PER_CAMERA]
    lengths = [2 + b - a for a, b in zip(bounds, bounds[1:])]  # each >= 2
    lo = int(-origin // interval) + 1  # first segment starting inside the day
    hi = int((DAY_S - origin) // interval) - 1  # last segment ending inside it
    runs = []
    if wrap_revisit:
        first = rng.randrange(lo, hi - 256 - lengths[0] - lengths[1])
        last = first + lengths[0] - 1
        again = last + 256 - rng.randrange(0, lengths[1] - 1)
        runs += [(first, last), (again, again + lengths[1] - 1)]
        lengths = lengths[2:]
    for length in lengths:
        while True:
            first = rng.randrange(lo, hi - length)
            last = first + length - 1
            if all(last + 1 < a or first - 1 > b for a, b in runs):
                break
        runs.append((first, last))
    return [(first, last,
             origin + (first + rng.uniform(0.2, 0.8)) * interval,
             origin + (last + rng.uniform(0.2, 0.8)) * interval) for first, last in runs]


class CatchupEnv:
    """The day's objects on an HTTP store plus the wallet file; ``close`` frees all."""

    def __init__(self, seed: int, root: str, tracer: Tracer | None = None):
        self.tracer = tracer
        self.root = root
        self.server = None
        try:
            self._build(seed)
        except BaseException:
            self.close()
            raise

    def _build(self, seed: int):
        self.pool = random.Random(seed).randbytes(_POOL_BYTES)
        store = MemoryObjectStore()
        self.server = StoreServer(store)
        self.server.start()
        url_template = self.server.base_url() + "/{id}.mp4"
        rng = random.Random(seed)
        staging = Wallet()
        records = []
        self.held: dict[bytes, _Held] = {}
        for camera in range(CAMERAS):
            interval = rng.choice(INTERVALS_S)
            origin = -rng.uniform(0.0, 256 * interval)  # started before the day
            chunked = camera % 3 == 0
            descriptor = CameraDescriptor(
                name=f"camera {camera}", mode=Mode.AUTO,
                location=Coordinates(54.97 + rng.uniform(-0.01, 0.01),
                                     -1.61 + rng.uniform(-0.02, 0.02)),
                url_template=url_template,
            )
            address = rng.randbytes(6)
            visits = _visits(rng, interval, origin, wrap_revisit=camera % 10 == 0)
            held_indices = sorted({i for first, last, _, _ in visits
                                   for i in range(first, last + 1)})
            hashes = {}
            for index in sorted(set(held_indices) | {i - 1 for i in held_indices}):
                container, video_id = self._seal(seed, camera, index, chunked)
                hashes[index] = crypto.hash_prefix(container)
                if index in held_indices:
                    store.put(ObjectKey(video_id), container)
            for first, last, arrive, leave in visits:
                for index in range(first, last + 1):
                    key, video_id, token_bytes = _segment_secrets(seed, camera, index)
                    start = origin + index * interval
                    received_at = max(arrive, start) + rng.uniform(0.0, 0.5)
                    packet = KeyPacket(key=key, seq=index % 256, reconnect_interval_s=interval,
                                       video_id=video_id, prev_hash_prefix=hashes[index - 1])
                    records.append(WalletRecord(received_at, address, descriptor, packet))
                    held_tokens = set()
                    if chunked:
                        width = interval / CHUNKS
                        for j, token in enumerate(token_bytes):
                            lo, hi = start + j * width, start + (j + 1) * width
                            if hi > arrive and lo < leave:
                                held_tokens.add(j)
                                staging.add_token(ChunkToken(token, j, video_id),
                                                  max(lo, arrive) + rng.uniform(0.0, 0.5))
                    verdict = ChainStatus.OK if index + 1 in held_indices else None
                    self.held[video_id] = _Held(camera, index, frozenset(held_tokens), chunked,
                                                verdict)
        records.sort(key=lambda r: r.received_at)
        for record in records:
            staging.ingest(record)
        self.path = os.path.join(self.root, "wallet.txt")
        self.lines = export_wallet(staging, None, self.path)

    def _seal(self, seed, camera, index, chunked):
        key, video_id, token_bytes = _segment_secrets(seed, camera, index)
        plaintext = _plaintext(self.pool, camera, index)
        if chunked:
            tokens = [ChunkToken(t, j, video_id) for j, t in enumerate(token_bytes)]
            return crypto.encrypt_segment_chunked(plaintext, CHUNKS, key, tokens), video_id
        return crypto.encrypt_segment(plaintext, key), video_id

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def setup(seed: int, root: str, tracer: Tracer | None = None) -> CatchupEnv:
    return CatchupEnv(seed, root, tracer)


def _expected_chunks(env: CatchupEnv, held: _Held) -> list:
    plaintext = _plaintext(env.pool, held.camera, held.index)
    return [(j, plaintext[a:b] if j in held.tokens else None)
            for j, (a, b) in enumerate(crypto.chunk_slices(len(plaintext), CHUNKS))]


def _check(env: CatchupEnv, record, result, verdicts: dict, problems: list) -> int:
    """Tally the verdict and compare the plaintext; 1 when the verdict is wrong."""
    held = env.held[record.packet.video_id]
    status = result.chain_status
    verdicts["ok" if status is ChainStatus.OK
             else "mismatch" if status is ChainStatus.MISMATCH else "unknown"] += 1
    if held.chunked:
        if result.chunks != _expected_chunks(env, held):
            problems.append(f"camera {held.camera} segment {held.index}: "
                            f"chunks differ from the held tokens' plaintext")
    elif result.plaintext != _plaintext(env.pool, held.camera, held.index):
        problems.append(f"camera {held.camera} segment {held.index}: plaintext differs")
    return int(status is not held.verdict)


def run(env: CatchupEnv, seconds: float) -> Outcome:
    """Catch-up passes until ``seconds`` have gone; each pass opens the wallet,
    groups sessions and resolves every held segment."""
    tracer = env.tracer
    open_wallet, sessions_of, fetch, fetcher = Wallet, group_sessions, fetch_and_decrypt, fetch_url
    if tracer is not None:
        open_wallet = tracer.wrap("client.wallet_open", Wallet, hot=False)
        sessions_of = tracer.wrap("client.group_sessions", group_sessions, hot=False)
        fetch = tracer.wrap("client.fetch_and_decrypt", fetch_and_decrypt)
        fetcher = tracer.wrap("store.get", fetch_url, samples=True, size=result_len)
    ready, fetches, passes = [], [], []  # passes: seconds per pass, leaving out the checks
    paced = []  # each pass's rate per Mref
    pace = Pace()
    first = None  # video id -> (verdict or error, failed) of the first pass
    verdicts = {"ok": 0, "mismatch": 0, "unknown": 0, "not_found": 0}
    problems = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        mark = pace.mark()
        t0 = time.perf_counter()
        wallet = open_wallet(env.path)
        sessions = sessions_of(wallet)
        ready.append(time.perf_counter() - t0)
        spent = ready[-1]
        view = wallet
        if tracer is not None:
            view = Proxy(tracer, wallet, {"successor_of": "client.successor_of"})
        records = [record for session in sessions for record in session.records]
        if len(records) != len(env.held):
            problems.append(f"sessions hold {len(records)} segments, {len(env.held)} were held")
        seen = {}
        for record in records:
            pace.tick()
            began = time.perf_counter()
            try:
                result = fetch(view, record, fetcher)
            except OctvError as exc:  # not found, integrity, format or status errors
                result = exc
            took = time.perf_counter() - began
            spent += took
            if isinstance(result, Exception):
                verdicts["not_found"] += isinstance(result, NotFoundError)
                seen[record.packet.video_id] = (type(result).__name__, 1)
                continue
            fetches.append(took)
            wrong = _check(env, record, result, verdicts, problems)
            seen[record.packet.video_id] = (result.chain_status, wrong)
        passes.append(spent)
        paced.append(pace.per_mref(len(env.held), spent, mark))
        if first is None:
            first = seen
        elif seen != first:
            problems.append(f"pass {len(passes)}: verdicts differ from the first pass's")
        wallet.close()
        del wallet, view, sessions, records  # one pass's wallet in memory at a time
    rates = [len(env.held) / p for p in passes]
    work, busy = len(env.held) * len(passes), sum(passes)
    metrics = {"sessions_ready_s": Metric(statistics.median(ready), "s", ready),
               "catchup_segments_per_s": Metric(work / busy, "1/s", rates)}
    metrics.update(timing_metrics("fetch_verify_ms", fetches))
    failed = sum(wrong for _, wrong in first.values())
    outcome = Outcome(len(first), failed, work, busy, work / busy, statistics.median(paced),
                      metrics=metrics, problems=problems)
    outcome.verdicts = verdicts
    return outcome


def layer_metrics(env: CatchupEnv, tracer: Tracer, outcome: Outcome) -> dict:
    requests, non_2xx = request_counts(env.server.request_log)
    opens = max(1, tracer.count("client.wallet_open"))
    open_s = tracer.total("client.wallet_open") / opens
    fetches = max(1, tracer.count("client.fetch_and_decrypt"))
    out = {
        "client.wallet_open_s": (open_s, "s"),
        "client.wallet_lines_per_s": (env.lines / open_s if open_s else 0.0, "1/s"),
        "client.group_sessions_s": (tracer.total("client.group_sessions") / opens, "s"),
        "client.successor_of_calls": (tracer.count("client.successor_of"), "count"),
        "client.successor_of_us": (tracer.mean_us("client.successor_of"), "us"),
        "client.fetch_self_ms": (
            tracer.self_time("client.fetch_and_decrypt") * 1000.0 / fetches, "ms"),
        "store.get_ms_p50": (percentile_ms(tracer, "store.get"), "ms"),
        "store.get_mib_per_s": (tracer.mib_per_s("store.get"), "MiB/s"),
        "store.non_2xx": (non_2xx, "count"),
    }
    out.update(verdict_metrics(outcome.verdicts))
    out.update(requests)
    return out
