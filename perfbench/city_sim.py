"""city_sim: ``run_scenario`` on a seeded 200 m x 200 m deployment.

24 cameras and 96 subjects for 600 s at 1 s steps. Radios reach 10-30 m
and lose 0, 10 or 30 % of adverts; a third of the cameras advertise
6-chunk tokens, a quarter serve a base tier, a fifth of the subjects are
untrusted. Most (camera, subject) pairs are out of radio range, so the
stepping, disc fan-out, loss draws, delivery log and advert codecs do
the work; the store and bulk crypto idle.

A work item is one subject x camera x step cell. The host's pace is
read (``Pace.tick``) at every call to ``SimClock.advance_to``, once per
time step; the paced rate is the median over whole runs of the scenario.

Set-up, building the scenario, takes about 2 ms, and on a shared host
its median over a second or two lands on a fast or a slow spell by
chance. So untraced runs also time set-ups for ``SETUP_BETWEEN_S``
after every run of the scenario, outside the timed region, and hand
them on in ``outcome.setups``.
"""

import gc
import json
import random
import statistics
import sys
import time

from octv.camera import CameraRuntime
from octv.clocks import SimClock
from octv.sim import run_scenario, scenario_from_dict
from octv.transport import SimPeer

from .measure import TESTS, Metric, Outcome, Pace
from .tracing import Tracer, camera_events_per_s

CAMERAS = 24
SUBJECTS = 96
DURATION_S = 600
SIDE_M = 200.0
CHUNKS = 6
SETUP_BETWEEN_S = 0.25


def build_scenario(seed: int):
    """The deployment for ``seed``; same seed, same scenario.

    Chunked cameras (every third) and tiered ones (a quarter, taken from
    the rest) are disjoint sets: ``tests/sim_oracle.py`` treats every key
    from a chunked camera as chunked, including base-tier keys, so on a
    camera with both it disagrees with the simulator.
    """
    rng = random.Random(seed)
    chunked = set(range(0, CAMERAS, 3))
    tiered = set(rng.sample(sorted(set(range(CAMERAS)) - chunked), CAMERAS // 4))
    cameras = []
    for i in range(CAMERAS):
        interval = rng.choice((30, 60))
        camera = {
            "name": f"camera-{i}",
            "position": [rng.uniform(0, SIDE_M), rng.uniform(0, SIDE_M)],
            "orientation_deg": rng.uniform(-180.0, 180.0),
            "fov_deg": rng.choice((60.0, 90.0, 120.0)),
            "view_depth_m": rng.uniform(8.0, 20.0),
            "segment_interval_s": interval,
            "advert_interval_ms": 1000,
            "radio": {
                "radius_m": rng.uniform(10.0, 30.0),
                "loss_probability": rng.choice((0.0, 0.1, 0.3)),
                "rng_seed": rng.randrange(1 << 30),
            },
        }
        if i in chunked:
            camera["chunk_count"] = CHUNKS
            camera["token_advert_interval_ms"] = 1000
        if i in tiered:
            camera["tiering"] = True
        cameras.append(camera)
    subjects = []
    for j in range(SUBJECTS):
        t, x, y = 0.0, rng.uniform(0, SIDE_M), rng.uniform(0, SIDE_M)
        waypoints = [[t, x, y]]
        while t < DURATION_S:
            t += rng.uniform(30.0, 120.0)
            x = min(SIDE_M, max(0.0, x + rng.uniform(-60.0, 60.0)))
            y = min(SIDE_M, max(0.0, y + rng.uniform(-60.0, 60.0)))
            waypoints.append([t, x, y])
        subjects.append({"name": f"subject-{j}", "waypoints": waypoints, "trusted": j % 5 != 0})
    return scenario_from_dict(
        {"duration_s": DURATION_S, "timestep_s": 1.0, "cameras": cameras, "subjects": subjects}
    )


class CityEnv:
    def __init__(self, seed: int, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer
        self.scenario = build_scenario(seed)
        self.last = None  # (report, transport) of the final timed run

    def close(self) -> None:
        self.last = None


def setup(seed: int, root: str, tracer: Tracer | None = None) -> CityEnv:
    if tracer is not None:
        tracer.patch(CameraRuntime, "advance_to", "camera.advance_to")
        tracer.patch(SimPeer, "advertise", "transport.advertise")
        tracer.patch(SimPeer, "read_characteristic", "transport.read")
        register = SimPeer.on_advertisement

        def on_advertisement(peer, callback):
            register(peer, tracer.wrap("sim.agent", callback))

        tracer.replace(SimPeer, "on_advertisement", on_advertisement)
    return CityEnv(seed, tracer)


def report_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def run(env: CityEnv, seconds: float) -> Outcome:
    simulate = run_scenario
    if env.tracer is not None:
        simulate = env.tracer.wrap("sim.run_scenario", run_scenario, hot=False)
    scenario = env.scenario
    steps = int(round(scenario.duration_s / scenario.timestep_s))
    cells_per_run = len(scenario.subjects) * len(scenario.cameras) * steps
    reference = None
    runs = failed = 0
    problems, rates, paced_rates, setups = [], [], [], []
    pace = Pace()
    advance = SimClock.advance_to

    def paced(clock, t):
        pace.tick()
        return advance(clock, t)

    busy = 0.0  # seconds in run_scenario, leaving out the pace kernel
    start = time.perf_counter()
    while runs == 0 or time.perf_counter() - start < seconds:
        env.last = None  # drop the previous delivery log before the next run
        gc.collect()  # the transport sits in a reference cycle with its peers
        mark = pace.mark()
        SimClock.advance_to = paced
        began = time.perf_counter()
        try:
            env.last = simulate(scenario, seed=env.seed)
        finally:
            took = time.perf_counter() - began - (pace.seconds - mark[0])
            SimClock.advance_to = advance
        busy += took
        rates.append(cells_per_run / took)
        paced_rates.append(pace.per_mref(cells_per_run, took, mark))
        runs += 1
        text = report_text(env.last[0])
        if reference is None:
            reference = text
        elif text != reference:
            failed += 1
            problems.append(f"run {runs}: report differs from the first run's")
        if env.tracer is None:
            paused = time.perf_counter()
            setups += _timed_setups(env.seed, SETUP_BETWEEN_S)
            start += time.perf_counter() - paused  # not taken from the timed phase
    elapsed = time.perf_counter() - start
    work = cells_per_run * runs
    metrics = {"sim_cells_per_s": Metric(work / busy, "1/s", rates)}
    outcome = Outcome(runs, failed, work, elapsed, work / busy, statistics.median(paced_rates),
                      metrics=metrics, problems=problems)
    outcome.report_text = reference
    outcome.setups = setups
    return outcome


def _timed_setups(seed: int, seconds: float) -> list:
    """Durations of ``setup`` calls made one after another for ``seconds``."""
    durations = []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        start = time.perf_counter()
        env = setup(seed, None)
        durations.append(time.perf_counter() - start)
        env.close()
    return durations


def check(env: CityEnv, outcome: Outcome) -> None:
    """The last run's report must equal the brute-force oracle's."""
    if TESTS not in sys.path:
        sys.path.insert(0, TESTS)
    from sim_oracle import oracle_metrics

    report, transport = env.last
    expected = oracle_metrics(env.scenario, transport)
    for subject, want in zip(report.subjects, expected):
        got = (subject.keys_received, subject.bleed_keys, subject.tokens_received)
        wanted = (want["keys_received"], want["bleed_keys"], want["tokens_received"])
        if got != wanted or abs(subject.over_share_seconds - want["over_share_seconds"]) >= 1e-9:
            outcome.problems.append(f"{subject.name}: report {got} differs from oracle {wanted}")


def layer_metrics(env: CityEnv, tracer: Tracer, outcome: Outcome) -> dict:
    """Totals over the traced phase; every run's delivery log is the same."""
    _report, transport = env.last
    runs = outcome.attempted
    attempts = delivered = 0
    for record in transport.log:
        if record.kind == "adv":
            attempts += 1
            delivered += record.delivered
    return {
        "camera.events_per_s": (camera_events_per_s(tracer), "1/s"),
        "camera.self_s": (tracer.self_time("camera."), "s"),
        "transport.advertise_calls": (tracer.count("transport.advertise"), "count"),
        "transport.advertise_us": (tracer.mean_us("transport.advertise"), "us"),
        "transport.delivery_attempts": (attempts * runs, "count"),
        "transport.delivery_ratio": (delivered / attempts if attempts else 0.0, "ratio"),
        "transport.log_records": (len(transport.log) * runs, "count"),
        "transport.read_calls": (tracer.count("transport.read"), "count"),
        "transport.read_us": (tracer.mean_us("transport.read"), "us"),
        "transport.read_failures": (tracer.errors("transport.read"), "count"),
        "sim.self_s": (tracer.self_time("sim."), "s"),
        "sim.cells": (outcome.work, "count"),
    }


def compare(untraced: Outcome, traced: Outcome) -> list:
    """The report must be byte-identical with and without tracing."""
    if untraced.report_text != traced.report_text:
        return ["report differs between the untraced and the traced run"]
    return []
