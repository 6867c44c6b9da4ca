"""Independent brute-force recomputation of simulator metrics.

Everything here is deliberately re-derived from first principles: own
waypoint interpolation, own sector test, receipts taken from the raw
delivery log, and segment windows computed straight from the configured
interval. It shares no code with the production report builder.
"""

import math

from octv.protocol import decode_key_packet
from octv.sim import participant_addresses


def oracle_position(waypoints, t):
    if t <= waypoints[0][0]:
        return waypoints[0][1], waypoints[0][2]
    if t >= waypoints[-1][0]:
        return waypoints[-1][1], waypoints[-1][2]
    for (t0, x0, y0), (t1, x1, y1) in zip(waypoints, waypoints[1:]):
        if t0 <= t <= t1:
            f = (t - t0) / (t1 - t0)
            return x0 + f * (x1 - x0), y0 + f * (y1 - y0)
    raise AssertionError("unreachable")


def oracle_in_view(camera, x, y):
    cx, cy = camera.position
    dx, dy = x - cx, y - cy
    if math.sqrt(dx * dx + dy * dy) > camera.view_depth_m:
        return False
    angle = math.degrees(math.atan2(dy, dx)) - camera.orientation_deg
    while angle > 180:
        angle -= 360
    while angle < -180:
        angle += 360
    return abs(angle) <= camera.fov_deg / 2


def oracle_metrics(scenario, transport):
    """Per-subject metrics recomputed over every (timestep, subject, camera)
    triple, with key/token receipts read from the delivery log."""
    camera_addrs, subject_addrs = participant_addresses(scenario)
    camera_index = {a: i for i, a in enumerate(camera_addrs)}
    dt = scenario.timestep_s
    steps = int(round(scenario.duration_s / dt))

    view = {}
    for si, subject in enumerate(scenario.subjects):
        for ci, camera in enumerate(scenario.cameras):
            samples = set()
            for k in range(steps):
                t = k * dt
                x, y = oracle_position(subject.trajectory.waypoints, t)
                if oracle_in_view(camera, x, y):
                    samples.add(t)
            view[(si, ci)] = samples

    results = []
    for si, subject in enumerate(scenario.subjects):
        address = subject_addrs[si]
        key_receipts = {}
        token_receipts = set()
        for record in transport.log:
            if record.kind == "read" and record.sender == address and record.delivered:
                if record.suffix in (0x0011, 0x0012) and len(record.payload) == 64:
                    packet = decode_key_packet(record.payload)
                    ci = camera_index[record.receiver]
                    key_receipts.setdefault(packet.video_id, (ci, record.t, record.suffix))
            elif (
                record.kind == "adv"
                and record.receiver == address
                and record.delivered
                and record.payload
                and record.payload[0] == 0x02
            ):
                video_id = record.payload[1:9]
                index = int.from_bytes(record.payload[9:11], "big")
                token_receipts.add((video_id, index))

        bleed = 0
        over_share = 0.0
        for video_id, (ci, t_read, suffix) in key_receipts.items():
            interval = scenario.cameras[ci].config.segment_interval_s
            segment = int(t_read // interval)
            start = segment * interval
            end = min(start + interval, scenario.duration_s)
            in_window = {t for t in view[(si, ci)] if start <= t < end}
            if not in_window:
                bleed += 1
            # base-tier keys (0x0012) open single-key containers
            chunking = scenario.cameras[ci].config.chunking if suffix == 0x0011 else None
            if chunking is None:
                over_share += (end - start) - len(in_window) * dt
            else:
                chunk_duration = interval / chunking.chunk_count
                for j in range(chunking.chunk_count):
                    if (video_id, j) not in token_receipts:
                        continue
                    c_start = start + j * chunk_duration
                    c_end = min(c_start + chunk_duration, end)
                    if c_end <= c_start:
                        continue
                    viewed = sum(dt for t in view[(si, ci)] if c_start <= t < c_end)
                    over_share += (c_end - c_start) - viewed
        results.append(
            {
                "keys_received": len(key_receipts),
                "bleed_keys": bleed,
                "over_share_seconds": over_share,
                "tokens_received": len(token_receipts),
            }
        )
    return results


def assert_report_matches_oracle(scenario, seed=0):
    """Run the scenario and require exact agreement with the oracle."""
    from octv.sim import run_scenario

    report, transport = run_scenario(scenario, seed=seed)
    expected = oracle_metrics(scenario, transport)
    for subject, want in zip(report.subjects, expected):
        assert subject.keys_received == want["keys_received"], subject.name
        assert subject.bleed_keys == want["bleed_keys"], subject.name
        assert abs(subject.over_share_seconds - want["over_share_seconds"]) < 1e-9, subject.name
        assert subject.tokens_received == want["tokens_received"], subject.name
    return report
