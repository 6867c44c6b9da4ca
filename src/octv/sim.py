"""Deterministic 2D deployment simulator quantifying key bleed.

A scenario places cameras (view sector plus radio disc) and moving
subjects on a plane, steps time, and measures who ended up holding
keys and tokens for footage they were never in. The headline metrics:

* bleed — keys received for segments during which the subject was never
  inside the camera's view sector;
* over-share — accessible footage seconds (whole segments for the
  single-key scheme, unlocked chunks for the token scheme) minus the
  subject's in-view seconds during those units.

Identical (scenario, seed) inputs produce byte-identical reports.
"""

import csv
import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

from .camera import CameraConfig, CameraRuntime, ChunkingConfig, SyntheticFrameSource
from .client import Listener, Wallet
from .clocks import SimClock
from .errors import ConfigError
from .protocol import CHAR_KEY_PACKET, CHAR_TIER_KEY_PACKET, CameraDescriptor, Mode
from .store import MemoryObjectStore
from .transport import RangeModel, SimTransport


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path through (t, x, y) waypoints."""

    waypoints: tuple

    def __post_init__(self):
        if not self.waypoints:
            raise ConfigError("trajectory needs at least one waypoint")
        times = [w[0] for w in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("waypoint times must be strictly increasing")

    def position_at(self, t: float) -> tuple[float, float]:
        points = self.waypoints
        if t <= points[0][0]:
            return (points[0][1], points[0][2])
        if t >= points[-1][0]:
            return (points[-1][1], points[-1][2])
        for (t0, x0, y0), (t1, x1, y1) in zip(points, points[1:]):
            if t0 <= t <= t1:
                f = (t - t0) / (t1 - t0)
                return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
        return (points[-1][1], points[-1][2])


@dataclass(frozen=True)
class SimCamera:
    """A deployed camera: view sector, radio disc and recording config."""

    position: tuple[float, float]
    orientation_deg: float
    fov_deg: float
    view_depth_m: float
    radio: RangeModel
    config: CameraConfig

    def __post_init__(self):
        if not 0 < self.fov_deg <= 360:
            raise ConfigError(f"fov_deg must be in (0, 360], got {self.fov_deg}")
        if self.view_depth_m <= 0:
            raise ConfigError(f"view_depth_m must be > 0, got {self.view_depth_m}")


@dataclass(frozen=True)
class Subject:
    name: str
    trajectory: Trajectory
    trusted: bool = True


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    cameras: tuple
    subjects: tuple
    timestep_s: float = 1.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        if self.timestep_s <= 0:
            raise ConfigError("timestep_s must be > 0")


def in_view(camera: SimCamera, position: tuple[float, float]) -> bool:
    """Sector membership: within view depth and half-angle of orientation."""
    dx = position[0] - camera.position[0]
    dy = position[1] - camera.position[1]
    if math.hypot(dx, dy) > camera.view_depth_m:
        return False
    bearing = math.degrees(math.atan2(dy, dx))
    diff = (bearing - camera.orientation_deg + 180.0) % 360.0 - 180.0
    return abs(diff) <= camera.fov_deg / 2.0


# -- scenario file ----------------------------------------------------------

_DEFAULT_URL_TEMPLATE = "https://footage.example/{id}.mp4"


def scenario_from_dict(data: dict) -> Scenario:
    cameras = []
    for i, cam in enumerate(data.get("cameras", [])):
        name = cam.get("name", f"camera-{i}")
        chunk_count = int(cam.get("chunk_count", 0))
        chunking = None
        if chunk_count > 0:
            chunking = ChunkingConfig(
                chunk_count=chunk_count,
                token_advert_interval_ms=int(cam.get("token_advert_interval_ms", 1000)),
            )
        config = CameraConfig(
            descriptor=CameraDescriptor(
                name=name,
                mode=Mode.from_name(cam.get("mode", "auto")),
                location=f"sim ({cam['position'][0]}, {cam['position'][1]})",
                url_template=cam.get("url_template", _DEFAULT_URL_TEMPLATE),
            ),
            camera_id=hashlib.sha256(name.encode("utf-8")).digest()[:8],
            segment_interval_s=int(cam["segment_interval_s"]),
            advert_interval_ms=int(cam.get("advert_interval_ms", 1000)),
            mode=Mode.from_name(cam.get("mode", "auto")),
            delay_s=int(cam.get("delay_s", 0)),
            chunking=chunking,
            tiering=bool(cam.get("tiering", False)),
        )
        radio = cam.get("radio", {})
        cameras.append(
            SimCamera(
                position=tuple(cam["position"]),
                orientation_deg=float(cam.get("orientation_deg", 0.0)),
                fov_deg=float(cam.get("fov_deg", 90.0)),
                view_depth_m=float(cam.get("view_depth_m", 10.0)),
                radio=RangeModel(
                    radius_m=float(radio.get("radius_m", 10.0)),
                    loss_probability=float(radio.get("loss_probability", 0.0)),
                    rng_seed=int(radio.get("rng_seed", 0)),
                ),
                config=config,
            )
        )
    subjects = tuple(
        Subject(
            name=sub.get("name", f"subject-{i}"),
            trajectory=Trajectory(tuple(tuple(w) for w in sub["waypoints"])),
            trusted=bool(sub.get("trusted", True)),
        )
        for i, sub in enumerate(data.get("subjects", []))
    )
    return Scenario(
        duration_s=float(data["duration_s"]),
        timestep_s=float(data.get("timestep_s", 1.0)),
        cameras=tuple(cameras),
        subjects=subjects,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid scenario JSON: {exc}") from None
    return scenario_from_dict(data)


# -- execution --------------------------------------------------------------


class _UntrustedRadio:
    """An untrusted subject's radio: tiering cameras answer its key
    reads with the base-tier packet."""

    def __init__(self, peer, tiering: set[bytes]):
        self._peer = peer
        self._tiering = tiering

    def on_advertisement(self, callback) -> None:
        self._peer.on_advertisement(callback)

    def read_characteristic(self, address: bytes, suffix: int) -> bytes:
        if suffix == CHAR_KEY_PACKET and address in self._tiering:
            suffix = CHAR_TIER_KEY_PACKET
        return self._peer.read_characteristic(address, suffix)


@dataclass
class SubjectMetrics:
    name: str
    keys_received: int = 0
    bleed_keys: int = 0
    over_share_seconds: float = 0.0
    tokens_received: int = 0
    in_view_seconds: float = 0.0


@dataclass
class CameraMetrics:
    name: str
    keys_delivered: int = 0
    bleed_keys: int = 0
    over_share_seconds: float = 0.0
    tokens_delivered: int = 0


@dataclass
class BleedReport:
    subjects: list[SubjectMetrics]
    cameras: list[CameraMetrics]
    totals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "subjects": [dataclasses.asdict(s) for s in self.subjects],
            "cameras": [dataclasses.asdict(c) for c in self.cameras],
            "totals": self.totals,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["subject", "keys_received", "bleed_keys", "over_share_seconds",
                 "tokens_received", "in_view_seconds"]
            )
            for s in self.subjects:
                writer.writerow(
                    [s.name, s.keys_received, s.bleed_keys,
                     f"{s.over_share_seconds:.3f}", s.tokens_received,
                     f"{s.in_view_seconds:.3f}"]
                )


@dataclass
class _SegmentWindow:
    camera_index: int
    start_t: float
    end_t: float
    chunk_count: int  # 0 for the single-key scheme
    stream: str


def participant_addresses(scenario: Scenario) -> tuple[list[bytes], list[bytes]]:
    """Transport addresses assigned to cameras then subjects, in order.

    Join order is deterministic, so log analysis can tie addresses back
    to scenario participants without touching simulator internals.
    """
    n = len(scenario.cameras)
    cameras = [struct.pack(">HI", 0x0200, 1 + i) for i in range(n)]
    subjects = [struct.pack(">HI", 0x0200, 1 + n + j) for j in range(len(scenario.subjects))]
    return cameras, subjects


def run_scenario(scenario: Scenario, seed: int = 0) -> tuple[BleedReport, SimTransport]:
    """Step the deployment through time and measure key bleed.

    Each subject runs the shipping :class:`~octv.client.Listener` over an
    in-memory :class:`~octv.client.Wallet`; an untrusted subject reads
    the base-tier key packet from tiering cameras. Returns the report
    plus the transport, whose delivery log (adverts, descriptor and key
    reads) is the ground truth an independent oracle can recompute the
    report from.
    """
    clock = SimClock(0.0)
    transport = SimTransport(clock=clock, seed=seed)

    runtimes: list[CameraRuntime] = []
    tiering: set[bytes] = set()
    for i, cam in enumerate(scenario.cameras):
        handle = transport.join("camera", position=cam.position, range_model=cam.radio)
        source = SyntheticFrameSource(seed=seed * 65536 + i, rate_bytes_per_s=64)
        runtime = CameraRuntime(
            cam.config, clock, source, handle, MemoryObjectStore(), event_sink=lambda rec: None
        )
        runtimes.append(runtime)
        if cam.config.tiering:
            tiering.add(handle.address)

    peers = []
    wallets: list[Wallet] = []
    for subject in scenario.subjects:
        peer = transport.join("listener", position=subject.trajectory.position_at(0.0))
        radio = peer if subject.trusted else _UntrustedRadio(peer, tiering)
        wallets.append(Listener(Wallet(), radio, clock).wallet)
        peers.append(peer)

    dt = scenario.timestep_s
    steps = int(round(scenario.duration_s / dt))
    # in-view sample steps per (subject index, camera index)
    view_samples: dict[tuple[int, int], set[int]] = {
        (si, ci): set() for si in range(len(peers)) for ci in range(len(runtimes))
    }

    for k in range(steps):
        t = k * dt
        clock.advance_to(t)
        for si, (subject, peer) in enumerate(zip(scenario.subjects, peers)):
            position = subject.trajectory.position_at(t)
            peer.set_position(position)
            for ci, cam in enumerate(scenario.cameras):
                if in_view(cam, position):
                    view_samples[(si, ci)].add(k)
        for runtime in runtimes:
            runtime.advance_to(t)
    clock.advance_to(scenario.duration_s)

    windows = _collect_windows(scenario, runtimes)
    report = _build_report(scenario, wallets, windows, view_samples, dt, steps)
    return report, transport


def _collect_windows(scenario: Scenario, runtimes: list[CameraRuntime]) -> dict[bytes, _SegmentWindow]:
    windows: dict[bytes, _SegmentWindow] = {}
    for ci, runtime in enumerate(runtimes):
        chunking = scenario.cameras[ci].config.chunking
        chunk_count = chunking.chunk_count if chunking else 0
        for record in runtime.records:
            windows[record.video_id] = _SegmentWindow(
                camera_index=ci,
                start_t=record.start_t,
                end_t=min(record.end_t, scenario.duration_s),
                chunk_count=chunk_count if record.stream == "main" else 0,
                stream=record.stream,
            )
        live = runtime.current_segment_info()
        if live is not None:
            windows[live["video_id"]] = _SegmentWindow(
                camera_index=ci,
                start_t=live["start_t"],
                end_t=scenario.duration_s,
                chunk_count=chunk_count,
                stream="main",
            )
            if live.get("tier_video_id"):
                windows[live["tier_video_id"]] = _SegmentWindow(
                    camera_index=ci,
                    start_t=live["start_t"],
                    end_t=scenario.duration_s,
                    chunk_count=0,
                    stream="tier",
                )
    return windows


def _build_report(scenario, wallets, windows, view_samples, dt, steps) -> BleedReport:
    subject_metrics = []
    camera_metrics = [
        CameraMetrics(name=cam.config.descriptor.name) for cam in scenario.cameras
    ]

    def in_view_seconds(si: int, ci: int, start: float, end: float) -> float:
        samples = view_samples[(si, ci)]
        count = sum(1 for k in samples if start <= k * dt < end)
        return count * dt

    for si, (subject, wallet) in enumerate(zip(scenario.subjects, wallets)):
        metrics = SubjectMetrics(name=subject.name)
        tokens = wallet.token_receipts()
        metrics.tokens_received = len(tokens)
        for ci in range(len(scenario.cameras)):
            metrics.in_view_seconds += len(view_samples[(si, ci)]) * dt
        for record in wallet.records:
            video_id = record.packet.video_id
            window = windows.get(video_id)
            if window is None:
                continue
            metrics.keys_received += 1
            camera_metrics[window.camera_index].keys_delivered += 1
            viewed = in_view_seconds(si, window.camera_index, window.start_t, window.end_t)
            if viewed == 0.0:
                metrics.bleed_keys += 1
                camera_metrics[window.camera_index].bleed_keys += 1
            if window.chunk_count == 0:
                over = (window.end_t - window.start_t) - viewed
            else:
                interval = scenario.cameras[window.camera_index].config.segment_interval_s
                chunk_duration = interval / window.chunk_count
                held = {token.chunk_index for token in record.tokens}
                over = 0.0
                for j in range(window.chunk_count):
                    if j not in held:
                        continue
                    c_start = window.start_t + j * chunk_duration
                    c_end = min(c_start + chunk_duration, window.end_t)
                    if c_end <= c_start:
                        continue
                    over += (c_end - c_start) - in_view_seconds(
                        si, window.camera_index, c_start, c_end
                    )
            metrics.over_share_seconds += over
            camera_metrics[window.camera_index].over_share_seconds += over
        for _t, token in tokens:
            window = windows.get(token.video_id)
            if window is not None:
                camera_metrics[window.camera_index].tokens_delivered += 1
        subject_metrics.append(metrics)

    totals = {
        "keys_received": sum(s.keys_received for s in subject_metrics),
        "bleed_keys": sum(s.bleed_keys for s in subject_metrics),
        "over_share_seconds": sum(s.over_share_seconds for s in subject_metrics),
        "tokens_received": sum(s.tokens_received for s in subject_metrics),
    }
    return BleedReport(subjects=subject_metrics, cameras=camera_metrics, totals=totals)


def compare_granularity(
    scenario: Scenario, coarse_interval_s: int, chunk_count: int, seed: int = 0
) -> tuple[BleedReport, BleedReport]:
    """Same deployment twice: coarse single-key vs fine-grained tokens.

    Both runs share trajectories, seed and the segment interval; the
    second advertises chunk tokens every interval/chunk_count.
    """
    if chunk_count < 2:
        raise ConfigError(f"chunk_count must be >= 2, got {chunk_count}")
    token_interval_ms = int(coarse_interval_s * 1000 / chunk_count)

    def with_config(chunking: ChunkingConfig | None) -> Scenario:
        cameras = tuple(
            dataclasses.replace(
                cam,
                config=dataclasses.replace(
                    cam.config, segment_interval_s=coarse_interval_s, chunking=chunking
                ),
            )
            for cam in scenario.cameras
        )
        return dataclasses.replace(scenario, cameras=cameras)

    coarse_report, _ = run_scenario(with_config(None), seed=seed)
    chunked_report, _ = run_scenario(
        with_config(ChunkingConfig(chunk_count, token_interval_ms)), seed=seed
    )
    return coarse_report, chunked_report
