"""Shared end-to-end plumbing: a full camera/store/client pipeline run."""

from dataclasses import dataclass, field
from urllib.parse import urlsplit

from octv.camera import CameraConfig, CameraRuntime, ChunkingConfig, SyntheticFrameSource
from octv.client import Listener, Wallet
from octv.clocks import SimClock
from octv.errors import OctvError
from octv.protocol import CameraDescriptor, Coordinates, Mode
from octv.store import MemoryObjectStore, ObjectKey
from octv.transport import SimTransport

DEFAULT_SEED = 42
DEFAULT_RATE = 1000


class LocalStoreFetcher:
    """Fetcher resolving URLs directly against an in-process store."""

    def __init__(self, store):
        self.store = store

    def __call__(self, url: str) -> bytes:
        tail = urlsplit(url).path.rsplit("/", 1)[-1]
        return self.store.get(ObjectKey.from_path(tail))


class RecordingStore:
    """Wraps a store, capturing every byte the camera persists through it."""

    def __init__(self, inner):
        self.inner = inner
        self.written: list[tuple[str, bytes]] = []

    def put(self, key, data):
        self.written.append((key.path, bytes(data)))
        self.inner.put(key, data)

    def get(self, key):
        return self.inner.get(key)

    def contains(self, key):
        return self.inner.contains(key)

    def keys(self):
        return self.inner.keys()


class FlakyStore:
    """Fails the first N puts, then behaves; for upload retry tests."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.failures = failures
        self.attempts = 0

    def put(self, key, data):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise OctvError("store unreachable (injected)")
        self.inner.put(key, data)

    def get(self, key):
        return self.inner.get(key)

    def contains(self, key):
        return self.inner.contains(key)

    def keys(self):
        return self.inner.keys()


def make_descriptor(
    name="lobby",
    mode=Mode.AUTO,
    location=Coordinates(54.97, -1.61),
    url_template="https://files.example/{id}.mp4",
) -> CameraDescriptor:
    return CameraDescriptor(name=name, mode=mode, location=location, url_template=url_template)


def make_config(
    *,
    mode=Mode.AUTO,
    segment_interval_s=2,
    advert_interval_ms=500,
    seed=DEFAULT_SEED,
    rate=DEFAULT_RATE,
    duration_s=None,
    delay_s=0,
    chunk_count=0,
    token_advert_interval_ms=200,
    tiering=False,
    url_template="https://files.example/{id}.mp4",
    camera_id=b"\x01" * 8,
    name="lobby",
) -> CameraConfig:
    chunking = None
    if chunk_count:
        chunking = ChunkingConfig(chunk_count, token_advert_interval_ms)
    return CameraConfig(
        descriptor=make_descriptor(name=name, mode=mode, url_template=url_template),
        camera_id=camera_id,
        segment_interval_s=segment_interval_s,
        advert_interval_ms=advert_interval_ms,
        delay_s=delay_s,
        chunking=chunking,
        tiering=tiering,
        source_kind="synthetic",
        source_seed=seed,
        source_rate=rate,
        source_duration_s=duration_s,
    )


@dataclass
class PipelineRun:
    clock: SimClock
    transport: SimTransport
    store: RecordingStore
    camera: CameraRuntime
    wallet: Wallet
    listener: Listener
    key_audit: list = field(default_factory=list)
    events: list = field(default_factory=list)
    config: CameraConfig = None

    def source_bytes(self, start: int, end: int) -> bytes:
        from octv.camera import synthetic_stream

        return synthetic_stream(self.config.source_seed, start, end)


def run_pipeline(
    *,
    segments=3,
    store=None,
    wallet=None,
    run=True,
    **config_kwargs,
) -> PipelineRun:
    """Camera + store + listening client over the loopback transport.

    The synthetic source is bounded to ``segments`` full intervals, so a
    completed run leaves ``segments`` stored objects (auto mode) and
    ``segments + 1`` captured packets.
    """
    config = make_config(**config_kwargs)
    if config.source_duration_s is None:
        config.source_duration_s = segments * config.segment_interval_s
    clock = SimClock(0.0)
    transport = SimTransport(clock=clock)
    recording = RecordingStore(store if store is not None else MemoryObjectStore())
    source = SyntheticFrameSource(config.source_seed, config.source_rate, config.source_duration_s)
    key_audit: list = []
    events: list = []
    camera = CameraRuntime(
        config, clock, source, transport.join("camera"), recording,
        key_audit=key_audit, event_sink=events.append,
    )
    the_wallet = wallet if wallet is not None else Wallet()
    listener = Listener(the_wallet, transport.join("listener"), clock)
    pipeline = PipelineRun(
        clock=clock, transport=transport, store=recording, camera=camera,
        wallet=the_wallet, listener=listener, key_audit=key_audit, events=events,
        config=config,
    )
    if run:
        camera.run()
    return pipeline
