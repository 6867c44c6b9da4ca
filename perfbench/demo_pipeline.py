"""demo_pipeline: the three-terminal demo in one process, as a closed loop.

One auto-mode camera on the UDP bus seals 512 KiB segments every 10 s of
virtual time and uploads them through ``HttpStoreClient`` to a
``StoreServer`` over ``FsObjectStore`` on loopback. One ``Listener`` on
the bus, pumped by its own thread, writes key packets to a file-backed
wallet. The main thread drives the camera with ``advance_to`` as fast as
it can. After each boundary it waits for the new key packet to be
durable in the wallet, then fetches the finished segment over HTTP,
decrypts it and checks its chain verdict against the new packet.

A work item is one segment carried from seal to verdict. The host's pace
is read (``Pace.tick``) between boundaries, outside the timed cycles.
"""

import collections
import os
import queue
import random
import threading
import time
import traceback

from octv.camera import CameraConfig, CameraRuntime
from octv.client import Listener, Wallet, fetch_and_decrypt
from octv.clocks import SimClock
from octv.crypto import ChainStatus
from octv.errors import NotFoundError, OctvError
from octv.protocol import CameraDescriptor, Coordinates, Mode
from octv.store import FsObjectStore, HttpStoreClient, StoreServer, fetch_url
from octv.transport import UdpBusPeer

from .measure import Metric, Outcome, Pace, cyclic_slice, timing_metrics
from .tracing import (Proxy, Tracer, camera_events_per_s, percentile_ms, request_counts,
                      result_len, verdict_metrics)

SEGMENT_S = 10
SEGMENT_BYTES = 512 * 1024
ADVERT_MS = 500
RECEIPT_TIMEOUT_S = 3.0
_POOL_BYTES = 3 * 1024 * 1024 + 4099  # not a multiple of a segment: segments differ


class ReplaySource:
    """Replays a seeded byte pool at one segment per ``SEGMENT_S`` seconds."""

    def __init__(self, seed: int):
        self._pool = random.Random(seed).randbytes(_POOL_BYTES)
        self.rate = SEGMENT_BYTES / SEGMENT_S
        self.exhausted = False
        self._epoch = None
        self._position = 0

    def expected(self, start: int, end: int) -> bytes:
        """Bytes [start, end) of the replayed stream."""
        return cyclic_slice(self._pool, start, end)

    def read_until(self, t: float) -> bytes:
        if self._epoch is None:
            self._epoch = t
            return b""
        target = round(self.rate * (t - self._epoch))
        if target <= self._position:
            return b""
        data = self.expected(self._position, target)
        self._position = target
        return data


class _ReceiptWallet(Wallet):
    """File-backed wallet that reports when each new record is durable."""

    def __init__(self, path):
        super().__init__(path)
        self.arrivals = queue.Queue()

    def ingest(self, record):
        added = super().ingest(record)
        if added:
            self.arrivals.put((record, time.perf_counter()))
        return added


class _ListenerPump(threading.Thread):
    """Pumps the listener's bus peer; a bus read blocks up to 2 s."""

    def __init__(self, peer):
        super().__init__(name="listener-pump", daemon=True)
        self.peer = peer
        self.halt = threading.Event()
        self.escaped = 0  # OctvErrors escaping Listener._on_advertisement
        self.crash = None

    def run(self):
        while not self.halt.is_set():
            try:
                self.peer.pump(timeout=0.05)
            except OctvError:
                self.escaped += 1
            except Exception:  # keep the traceback for the report, stop pumping
                self.crash = traceback.format_exc()
                return


class DemoEnv:
    """Store server, camera, listener and wallet for one run; ``close`` frees all."""

    def __init__(self, seed: int, root: str, tracer: Tracer | None = None):
        self.tracer = tracer
        self.objects = os.path.join(root, "objects")
        self.server = None
        self.peers = []
        self.pump = None
        self.wallet = None
        try:
            self._build(seed, root)
        except BaseException:
            self.close()
            raise

    def _build(self, seed, root):
        tracer = self.tracer
        self.server = StoreServer(FsObjectStore(self.objects))
        self.server.start()
        base = self.server.base_url()
        store = HttpStoreClient(base)
        self.fetcher = fetch_url
        bus = os.path.join(root, "bus")
        self.clock = SimClock(0.0)
        self.camera_peer = UdpBusPeer(bus, "camera", clock=self.clock)
        self.peers.append(self.camera_peer)
        listener_peer = UdpBusPeer(bus, "listener", clock=self.clock)
        self.peers.append(listener_peer)
        self.wallet = _ReceiptWallet(os.path.join(root, "wallet.txt"))
        self.source = ReplaySource(seed)
        self.events = collections.Counter()
        camera_transport, listener_transport, wallet = self.camera_peer, listener_peer, self.wallet
        if tracer is not None:
            put = tracer.wrap("store.put", store.put, samples=True, size=_put_len)
            store = Proxy(tracer, store, {"contains": "store.head"}, samples=True)
            store.put = put
            self.fetcher = tracer.wrap("store.get", fetch_url, samples=True, size=result_len)
            camera_transport = Proxy(tracer, camera_transport, {"advertise": "transport.advertise"})
            listener_transport = _ListenerPeerProxy(tracer, listener_peer)
            wallet = Proxy(tracer, wallet, {"ingest": "client.ingest",
                                            "successor_of": "client.successor_of"}, samples=True)
        config = CameraConfig(
            descriptor=CameraDescriptor(
                name="bench camera", mode=Mode.AUTO,
                location=Coordinates(54.978, -1.617), url_template=base + "/{id}.mp4",
            ),
            camera_id=random.Random(seed).randbytes(8),
            segment_interval_s=SEGMENT_S,
            advert_interval_ms=ADVERT_MS,
        )
        self.camera = CameraRuntime(config, self.clock, self.source, camera_transport, store,
                                    event_sink=lambda record: self.events.update([record["event"]]))
        self.listener = Listener(wallet, listener_transport, self.clock)
        self.fetch_wallet = wallet
        self.pump = _ListenerPump(listener_peer)
        self.pump.start()
        self.camera.start()
        self.current, _ = self._await_receipt(0)
        if self.current is None:
            raise OctvError("listener never received the first key packet")
        self.boundary = float(SEGMENT_S)

    def _await_receipt(self, seq: int):
        """Answer the listener's reads until packet ``seq`` is durable."""
        deadline = time.perf_counter() + RECEIPT_TIMEOUT_S
        while time.perf_counter() < deadline:
            self.camera_peer.pump(timeout=0.0005)
            try:
                record, at = self.wallet.arrivals.get(timeout=0.0005)
            except queue.Empty:
                continue
            if record.packet.seq == seq:
                return record, at
        return None, None

    def close(self) -> None:
        if self.pump is not None:
            self.pump.halt.set()
            self.pump.join(timeout=5)
        for peer in self.peers:
            peer.close()
        if self.server is not None:
            self.server.stop()
        if self.wallet is not None:
            self.wallet.close()


def _put_len(args, _result) -> int:
    return len(args[1])


class _ListenerPeerProxy(Proxy):
    """Listener-side peer: traces reads and the advertisement callback."""

    def __init__(self, tracer, peer):
        super().__init__(tracer, peer, {"read_characteristic": "transport.read"}, samples=True)
        self._tracer = tracer

    def on_advertisement(self, callback):
        self._target.on_advertisement(self._tracer.wrap("client.on_advertisement", callback))


def setup(seed: int, root: str, tracer: Tracer | None = None) -> DemoEnv:
    return DemoEnv(seed, root, tracer)


def run(env: DemoEnv, seconds: float) -> Outcome:
    tracer = env.tracer
    advance = env.camera.advance_to
    fetch = fetch_and_decrypt
    if tracer is not None:
        advance = tracer.wrap("camera.advance_to", advance)
        fetch = tracer.wrap("client.fetch_and_decrypt", fetch_and_decrypt)
    rotations, receipts, fetches = [], [], []
    verdicts = {"ok": 0, "mismatch": 0, "unknown": 0, "not_found": 0}
    attempted = failed = verified_bytes = 0
    problems = []
    pace = Pace()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pace.tick()
        segment = attempted  # the segment this boundary finishes
        attempted += 1
        retries = env.events["upload-retry"]
        advance(env.boundary - 0.25)  # the beacons within the segment
        t0 = time.perf_counter()
        advance(env.boundary)  # seal, hash, PUT, HEAD for the new id, first beacon
        t1 = time.perf_counter()
        rotations.append(t1 - t0)
        env.boundary += SEGMENT_S
        finished = env.current
        env.current, durable_at = env._await_receipt((finished.packet.seq + 1) % 256)
        if env.current is None:
            failed += 1  # without the next packet the finished segment cannot be verified
            problems.append(f"segment {segment + 1}: key packet not durable within "
                            f"{RECEIPT_TIMEOUT_S} s")
            break
        receipts.append(durable_at - t1)
        t2 = time.perf_counter()
        try:
            result = fetch(env.fetch_wallet, finished, env.fetcher)
        except OctvError as exc:  # not found, integrity, format or status errors
            failed += 1
            verdicts["not_found"] += isinstance(exc, NotFoundError)
            problems.append(f"segment {segment}: {type(exc).__name__}: {exc}")
            continue
        fetches.append(time.perf_counter() - t2)
        status = result.chain_status
        verdicts["ok" if status is ChainStatus.OK
                 else "mismatch" if status is ChainStatus.MISMATCH else "unknown"] += 1
        if result.plaintext != env.source.expected(segment * SEGMENT_BYTES,
                                                   (segment + 1) * SEGMENT_BYTES):
            problems.append(f"segment {segment}: recovered plaintext differs from the source")
        if status is not ChainStatus.OK:
            problems.append(f"segment {segment}: chain verdict {status} on untampered footage")
        if status is not ChainStatus.OK or env.events["upload-retry"] != retries:
            failed += 1
        else:
            verified_bytes += len(result.plaintext)
        os.unlink(os.path.join(env.objects, f"{finished.packet.video_id.hex()}.mp4"))
    elapsed = time.perf_counter() - start - pace.seconds
    if env.pump.crash:
        problems.append("listener pump crashed:\n" + env.pump.crash)
    if not fetches:
        problems.append("no segment completed")
        return Outcome(attempted, failed, 0, elapsed, 0.0, problems=problems)
    metrics = {"pipeline_mib_per_s": Metric(verified_bytes / 1048576.0 / elapsed, "MiB/s")}
    metrics.update(timing_metrics("rotation_ms", rotations))
    metrics.update(timing_metrics("key_receipt_ms", receipts))
    metrics.update(timing_metrics("fetch_verify_ms", fetches))
    outcome = Outcome(attempted, failed, len(fetches), elapsed, len(fetches) / elapsed,
                      pace.per_mref(len(fetches), elapsed), metrics=metrics, problems=problems)
    outcome.verdicts = verdicts
    return outcome


def layer_metrics(env: DemoEnv, tracer: Tracer, outcome: Outcome) -> dict:
    """Per-layer figures of a traced run (beyond the common crypto/protocol ones)."""
    requests, non_2xx = request_counts(env.server.request_log, expected={("HEAD", "404")})
    out = {
        "camera.events_per_s": (camera_events_per_s(tracer), "1/s"),
        "camera.self_s": (tracer.self_time("camera."), "s"),
        "camera.head_calls": (tracer.count("store.head"), "count"),
        "camera.upload_retries": (env.events["upload-retry"], "count"),
        "transport.advertise_calls": (tracer.count("transport.advertise"), "count"),
        "transport.advertise_us": (tracer.mean_us("transport.advertise"), "us"),
        "transport.read_calls": (tracer.count("transport.read"), "count"),
        "transport.read_us": (tracer.mean_us("transport.read"), "us"),
        "transport.read_failures": (tracer.errors("transport.read") + env.pump.escaped, "count"),
        "store.put_ms_p50": (percentile_ms(tracer, "store.put"), "ms"),
        "store.put_mib_per_s": (tracer.mib_per_s("store.put"), "MiB/s"),
        "store.head_ms_p50": (percentile_ms(tracer, "store.head"), "ms"),
        "store.get_ms_p50": (percentile_ms(tracer, "store.get"), "ms"),
        "store.get_mib_per_s": (tracer.mib_per_s("store.get"), "MiB/s"),
        "store.non_2xx": (non_2xx, "count"),
        "client.ingest_ms_p50": (percentile_ms(tracer, "client.ingest"), "ms"),
        "client.successor_of_calls": (tracer.count("client.successor_of"), "count"),
        "client.successor_of_us": (tracer.mean_us("client.successor_of"), "us"),
        "client.fetch_self_ms": (
            tracer.self_time("client.fetch_and_decrypt") * 1000.0
            / max(1, tracer.count("client.fetch_and_decrypt")), "ms"),
    }
    out.update(verdict_metrics(outcome.verdicts))
    out.update(requests)
    return out
