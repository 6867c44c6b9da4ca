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

import bisect
import csv
import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field

from .camera import (
    CameraConfig,
    CameraRuntime,
    ChunkingConfig,
    ConfigReader,
    SyntheticFrameSource,
    camera_config,
    camera_id_for,
    config_flag,
)
from .client import Listener, Wallet
from .clocks import SimClock
from .errors import ConfigError
from .protocol import CHAR_KEY_PACKET, CHAR_TIER_KEY_PACKET
from .store import MemoryObjectStore
from .transport import RangeModel, SimTransport, disc_cells, grid_cell


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path through (t, x, y) waypoints."""

    waypoints: tuple

    def __post_init__(self):
        if not self.waypoints:
            raise ConfigError("trajectory needs at least one waypoint")
        try:
            times, xs, ys = zip(*self.waypoints, strict=True)
            if not all(map(math.isfinite, times + xs + ys)):  # a TypeError unless numbers
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"waypoints must be [t, x, y] finite numbers: {self.waypoints!r}") from None
        if not all(map(operator.lt, times, times[1:])):
            raise ConfigError("waypoint times must be strictly increasing")

    def position_at(self, t: float) -> tuple[float, float]:
        return next(self.positions((t,)))

    def positions(self, times):
        """The position at each ``t`` of ``times``, which must not decrease.

        A cursor walks the waypoints forward once, so a long path costs
        no more per step than a short one. It leaves a leg only once
        ``t`` is past the leg's end, so ``t`` on a waypoint time takes the
        leg that ends there.
        """
        points = self.waypoints
        first, last = points[0], points[-1]
        i = 0
        for t in times:
            if t <= first[0]:
                yield (first[1], first[2])
            elif t >= last[0]:
                yield (last[1], last[2])
            else:
                while t > points[i + 1][0]:
                    i += 1
                (t0, x0, y0), (t1, x1, y1) = points[i], points[i + 1]
                f = (t - t0) / (t1 - t0)
                yield (x0 + f * (x1 - x0), y0 + f * (y1 - y0))


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
        if len(self.position) != 2 or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in self.position):
            raise ConfigError(f"position must be [x, y] finite numbers, got {self.position!r}")
        if not math.isfinite(self.orientation_deg):
            raise ConfigError(f"orientation_deg must be finite, got {self.orientation_deg}")
        if not 0 < self.fov_deg <= 360:
            raise ConfigError(f"fov_deg must be in (0, 360], got {self.fov_deg}")
        if not self.view_depth_m > 0:  # NaN too; +inf is an unbounded view
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
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not 0 < self.timestep_s < math.inf:
            raise ConfigError(f"timestep_s must be finite and > 0, got {self.timestep_s}")


def in_view(camera: SimCamera, position: tuple[float, float]) -> bool:
    """Sector membership: within view depth and half-angle of orientation.

    A position outside the view disc's bounding box is out without a
    ``hypot``, which is never below ``max(|dx|, |dy|)``.
    """
    dx = position[0] - camera.position[0]
    dy = position[1] - camera.position[1]
    depth = camera.view_depth_m
    if not (-depth <= dx <= depth and -depth <= dy <= depth) or math.hypot(dx, dy) > depth:
        return False
    bearing = math.degrees(math.atan2(dy, dx))
    diff = (bearing - camera.orientation_deg + 180.0) % 360.0 - 180.0
    return abs(diff) <= camera.fov_deg / 2.0


# -- scenario file ----------------------------------------------------------

_DEFAULT_URL_TEMPLATE = "https://footage.example/{id}.mp4"


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a parsed scenario file; a bad or unknown key is a ConfigError naming it."""
    where = ""
    try:
        top = ConfigReader(data)
        cameras = []
        for i, values in enumerate(top.get("cameras", list, [])):
            where = f"cameras[{i}]: "
            cam = ConfigReader(values)
            get = cam.get
            name = get("name", str, f"camera-{i}")
            position = get("position", tuple)
            config = camera_config(get, name, f"sim ({', '.join(map(str, position))})",
                                   _DEFAULT_URL_TEMPLATE, camera_id=camera_id_for(name))
            radio = ConfigReader(get("radio", dict, {}))
            radio_model = RangeModel(radio.get("radius_m", float, 10.0),
                                     radio.get("loss_probability", float, 0.0),
                                     radio.get("rng_seed", int, 0))
            radio.reject_unread()
            cameras.append(SimCamera(
                position=position, orientation_deg=get("orientation_deg", float, 0.0),
                fov_deg=get("fov_deg", float, 90.0), view_depth_m=get("view_depth_m", float, 10.0),
                radio=radio_model, config=config,
            ))
            cam.reject_unread()
        subjects = []
        for i, values in enumerate(top.get("subjects", list, [])):
            where = f"subjects[{i}]: "
            sub = ConfigReader(values)
            waypoints = sub.get("waypoints", lambda points: tuple(map(tuple, points)))
            subjects.append(Subject(sub.get("name", str, f"subject-{i}"), Trajectory(waypoints),
                                    sub.get("trusted", config_flag, True)))
            sub.reject_unread()
        where = ""
        scenario = Scenario(top.get("duration_s", float), tuple(cameras), tuple(subjects),
                            top.get("timestep_s", float, 1.0))
        top.reject_unread()
        return scenario
    except (ConfigError, ValueError) as exc:  # ValueError: a descriptor or radio value
        raise ConfigError(f"{where}{exc}") from None


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid scenario JSON: {exc}") from None
    try:
        return scenario_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
    cameras = scenario.cameras
    # each subject's position at every step k * dt, and the call that moves its radio
    moves = [(subject.trajectory.positions(map(dt.__mul__, range(steps))), peer.set_position)
             for subject, peer in zip(scenario.subjects, peers)]
    # in-view sample steps, ascending, per (subject index, camera index) ever in view
    view_samples: dict[tuple[int, int], list[int]] = {}

    cell_m, cells = _view_cells(cameras)

    for k in range(steps):
        t = k * dt
        clock.advance_to(t)
        for si, (walk, move) in enumerate(moves):
            position = next(walk)
            move(position)
            for ci in cells.get(grid_cell(position, cell_m), ()):
                if in_view(cameras[ci], position):
                    view_samples.setdefault((si, ci), []).append(k)
        for runtime in runtimes:
            runtime.advance_to(t)
    clock.advance_to(scenario.duration_s)

    windows = _collect_windows(scenario, runtimes)
    report = _build_report(scenario, wallets, windows, view_samples, dt, steps)
    return report, transport


def _view_cells(cameras) -> tuple[float, dict[tuple[int, int], list[int]]]:
    """Camera indices listed under every grid cell their view disc
    overlaps, so a subject is tested only against its cell's cameras; a
    cell is as wide as the deepest view."""
    cell_m = max((cam.view_depth_m for cam in cameras), default=1.0)
    if not math.isfinite(cell_m):  # an unbounded view: one cell holds every camera
        return cell_m, {(0, 0): list(range(len(cameras)))}
    cells: dict[tuple[int, int], list[int]] = {}
    for ci, cam in enumerate(cameras):
        for key in disc_cells(cam.position, cam.view_depth_m, cell_m):
            cells.setdefault(key, []).append(ci)
    return cell_m, cells


def _collect_windows(scenario: Scenario, runtimes: list[CameraRuntime]) -> dict[bytes, _SegmentWindow]:
    windows: dict[bytes, _SegmentWindow] = {}
    for ci, runtime in enumerate(runtimes):
        chunking = scenario.cameras[ci].config.chunking
        chunk_count = chunking.chunk_count if chunking else 0
        files = [(r.stream, r.video_id, r.start_t, r.end_t) for r in runtime.records]
        # a live file runs to the end of the scenario
        files += [(f["stream"], f["video_id"], f["start_t"], scenario.duration_s)
                  for f in runtime.current_segment_info()]
        for stream, video_id, start_t, end_t in files:
            windows[video_id] = _SegmentWindow(
                camera_index=ci,
                start_t=start_t,
                end_t=min(end_t, scenario.duration_s),
                chunk_count=chunk_count if stream == "main" else 0,
            )
    return windows


def _build_report(scenario, wallets, windows, view_samples, dt, steps) -> BleedReport:
    subject_metrics = []
    camera_metrics = [
        CameraMetrics(name=cam.config.descriptor.name) for cam in scenario.cameras
    ]

    sample_time = dt.__mul__  # k * dt, which rises with k

    def in_view_seconds(si: int, ci: int, start: float, end: float) -> float:
        # the samples k with start <= k * dt < end
        samples = view_samples.get((si, ci), ())
        count = (bisect.bisect_left(samples, end, key=sample_time)
                 - bisect.bisect_left(samples, start, key=sample_time))
        return count * dt

    for si, (subject, wallet) in enumerate(zip(scenario.subjects, wallets)):
        metrics = SubjectMetrics(name=subject.name)
        tokens = wallet.token_receipts()
        metrics.tokens_received = len(tokens)
        for ci in range(len(scenario.cameras)):
            metrics.in_view_seconds += len(view_samples.get((si, ci), ())) * dt
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
                held = {token.chunk_index for token in wallet.tokens_for(video_id)}
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
