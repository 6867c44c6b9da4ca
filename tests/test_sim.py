import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octv import camera as camera_module
from octv import crypto
from octv import transport as transport_module
from octv.errors import ConfigError
from octv.protocol import CHAR_KEY_PACKET, CHAR_TIER_KEY_PACKET, DESCRIPTOR_CHARS
from octv.sim import (
    Scenario,
    Trajectory,
    compare_granularity,
    in_view,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)


def fig4_scenario(radius=10.0, duration=120, interval=60, subjects=None, chunk_count=0):
    """Camera watching a 90-degree sector; radio disc wider than the view."""
    return scenario_from_dict(
        {
            "duration_s": duration,
            "timestep_s": 1,
            "cameras": [
                {
                    "position": [0, 0],
                    "orientation_deg": 0,
                    "fov_deg": 90,
                    "view_depth_m": 8,
                    "radio": {"radius_m": radius},
                    "segment_interval_s": interval,
                    "advert_interval_ms": 1000,
                    "chunk_count": chunk_count,
                    "token_advert_interval_ms": (
                        int(interval * 1000 / chunk_count) if chunk_count else 1000
                    ),
                }
            ],
            "subjects": subjects
            or [
                {"name": "behind", "waypoints": [[0, -7, 0]]},
                {"name": "inview", "waypoints": [[0, 5, 0]]},
            ],
        }
    )


from sim_oracle import assert_report_matches_oracle, oracle_position, participant_addresses


class TestGeometry:
    def test_sector_membership(self):
        scenario = fig4_scenario()
        camera = scenario.cameras[0]
        assert in_view(camera, (5.0, 0.0))
        assert in_view(camera, (3.0, 2.9))  # within 45 degrees
        assert not in_view(camera, (-5.0, 0.0))  # behind
        assert not in_view(camera, (9.0, 0.0))  # past view depth
        assert not in_view(camera, (0.0, 5.0))  # outside half-angle

    def test_invalid_fov_rejected(self):
        with pytest.raises(ConfigError):
            fig4_scenario().cameras[0].__class__(
                position=(0, 0), orientation_deg=0, fov_deg=0, view_depth_m=5,
                radio=fig4_scenario().cameras[0].radio,
                config=fig4_scenario().cameras[0].config,
            )
        with pytest.raises(ConfigError):
            fig4_scenario().cameras[0].__class__(
                position=(0, 0), orientation_deg=0, fov_deg=400, view_depth_m=5,
                radio=fig4_scenario().cameras[0].radio,
                config=fig4_scenario().cameras[0].config,
            )

    def test_unbounded_view_depth(self):
        scenario = scenario_from_dict(
            {
                "duration_s": 10,
                "cameras": [
                    {"position": [0, 0], "fov_deg": 90, "view_depth_m": float("inf"),
                     "radio": {"radius_m": 10}, "segment_interval_s": 10},
                ],
                "subjects": [{"name": "far", "waypoints": [[0, 1000, 0]]}],
            }
        )
        report = assert_report_matches_oracle(scenario)
        assert report.subjects[0].in_view_seconds == 10.0

    def test_waypoint_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            Trajectory(((0, 0, 0), (0, 1, 1)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cursor_matches_oracle_position(self, data):
        # waypoints before, on and between steps, and past the last step
        dt = data.draw(st.sampled_from([0.1, 0.25, 1 / 3, 1.0, 2.5]))
        on_a_step = st.integers(-3, 90).map(lambda k: k * dt)
        times = data.draw(st.lists(st.one_of(on_a_step, st.floats(-5.0, 150.0)),
                                   min_size=1, max_size=8, unique=True))
        coord = st.floats(-1e3, 1e3)
        trajectory = Trajectory(tuple((t, data.draw(coord), data.draw(coord)) for t in sorted(times)))
        steps = data.draw(st.integers(1, 120))
        walk = list(trajectory.positions(k * dt for k in range(steps)))
        assert walk == [oracle_position(trajectory.waypoints, k * dt) for k in range(steps)]


class TestBleed:
    def test_in_view_subject_has_zero_bleed(self):
        report = assert_report_matches_oracle(fig4_scenario())
        inview = next(s for s in report.subjects if s.name == "inview")
        assert inview.keys_received == 2
        assert inview.bleed_keys == 0
        assert inview.over_share_seconds == 0.0

    def test_out_of_view_in_range_subject_bleeds_every_segment(self):
        report = assert_report_matches_oracle(fig4_scenario())
        behind = next(s for s in report.subjects if s.name == "behind")
        assert behind.keys_received == 2  # one per segment
        assert behind.bleed_keys == 2
        assert behind.over_share_seconds == 120.0

    def test_radius_below_subject_distance_no_bleed(self):
        report = assert_report_matches_oracle(fig4_scenario(radius=5.0))
        behind = next(s for s in report.subjects if s.name == "behind")
        assert behind.keys_received == 0
        assert behind.bleed_keys == 0

    def test_partial_presence_over_share(self):
        # in view for 10 s of a 60 s segment -> over_share 50 s
        scenario = fig4_scenario(
            duration=60,
            subjects=[
                {
                    "name": "passer",
                    "waypoints": [
                        [0, 100, 0], [9.999, 100, 0],
                        [10, 5, 0], [19.999, 5, 0],
                        [20, 100, 0],
                    ],
                }
            ],
        )
        report = assert_report_matches_oracle(scenario)
        passer = report.subjects[0]
        assert passer.keys_received == 1
        assert passer.over_share_seconds == 50.0


class TestDeterminism:
    def test_identical_inputs_byte_identical_reports(self, tmp_path):
        scenario = fig4_scenario(radius=10.0)
        paths = []
        for name in ("a.json", "b.json"):
            report, _ = run_scenario(scenario, seed=11)
            path = tmp_path / name
            report.write_json(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_is_deterministic_but_seed_sensitive(self):
        scenario = fig4_scenario()
        lossy = scenario_from_dict(
            {
                "duration_s": 60,
                "cameras": [
                    {
                        "position": [0, 0], "fov_deg": 90, "view_depth_m": 8,
                        "radio": {"radius_m": 10, "loss_probability": 0.7},
                        "segment_interval_s": 5, "advert_interval_ms": 1000,
                    }
                ],
                "subjects": [{"name": "s", "waypoints": [[0, -7, 0]]}],
            }
        )
        r1, _ = run_scenario(lossy, seed=5)
        r2, _ = run_scenario(lossy, seed=5)
        assert r1.to_dict() == r2.to_dict()


class TestMonotonicity:
    def test_larger_radius_never_fewer_keys(self):
        small = assert_report_matches_oracle(fig4_scenario(radius=6.0))
        large = assert_report_matches_oracle(fig4_scenario(radius=12.0))
        for s_small, s_large in zip(small.subjects, large.subjects):
            assert s_large.keys_received >= s_small.keys_received

    def test_shorter_chunks_never_more_over_share(self):
        def passer_over_share(chunks):
            scenario = fig4_scenario(
                duration=60,
                chunk_count=chunks,
                subjects=[
                    {
                        "name": "passer",
                        "waypoints": [
                            [0, 100, 0], [9.999, 100, 0],
                            [10, 5, 0], [19.999, 5, 0],
                            [20, 100, 0],
                        ],
                    }
                ],
            )
            report = assert_report_matches_oracle(scenario)
            return report.subjects[0].over_share_seconds

        coarse, medium, fine = passer_over_share(2), passer_over_share(6), passer_over_share(30)
        assert coarse >= medium >= fine


class TestGranularityComparison:
    def passer_scenario(self):
        return fig4_scenario(
            duration=60,
            subjects=[
                {
                    "name": "passer",
                    "waypoints": [
                        [0, 100, 0], [9.999, 100, 0],
                        [10, 5, 0], [19.999, 5, 0],
                        [20, 100, 0],
                    ],
                }
            ],
        )

    def test_tokens_cut_over_share(self):
        coarse, chunked = compare_granularity(self.passer_scenario(), 60, 60, seed=2)
        assert coarse.subjects[0].over_share_seconds == 50.0
        assert chunked.subjects[0].over_share_seconds <= 2.0
        assert chunked.subjects[0].tokens_received >= 9

    def test_full_presence_both_zero(self):
        scenario = fig4_scenario(
            duration=60, subjects=[{"name": "stayer", "waypoints": [[0, 5, 0]]}]
        )
        coarse, chunked = compare_granularity(scenario, 60, 12, seed=2)
        assert coarse.subjects[0].over_share_seconds == 0.0
        assert chunked.subjects[0].over_share_seconds == 0.0

    def test_out_of_radio_range_nothing_delivered(self):
        scenario = fig4_scenario(
            duration=60, subjects=[{"name": "distant", "waypoints": [[0, 50, 0]]}]
        )
        coarse, chunked = compare_granularity(scenario, 60, 12, seed=2)
        for report in (coarse, chunked):
            assert report.subjects[0].keys_received == 0
            assert report.subjects[0].tokens_received == 0

    def test_requires_at_least_two_chunks(self):
        with pytest.raises(ConfigError):
            compare_granularity(self.passer_scenario(), 60, 1)


class TestTierGating:
    def test_untrusted_subjects_get_base_tier_only(self):
        scenario = scenario_from_dict(
            {
                "duration_s": 20,
                "cameras": [
                    {
                        "position": [0, 0], "fov_deg": 90, "view_depth_m": 8,
                        "radio": {"radius_m": 10}, "segment_interval_s": 10,
                        "tiering": True,
                    }
                ],
                "subjects": [
                    {"name": "trusted", "trusted": True, "waypoints": [[0, 5, 0]]},
                    {"name": "untrusted", "trusted": False, "waypoints": [[0, 5, 1]]},
                ],
            }
        )
        report, transport = run_scenario(scenario, seed=0)
        _, subject_addrs = participant_addresses(scenario)
        trusted_reads = {
            r.suffix for r in transport.log if r.kind == "read" and r.sender == subject_addrs[0]
        }
        untrusted_reads = {
            r.suffix for r in transport.log if r.kind == "read" and r.sender == subject_addrs[1]
        }
        # descriptor reads at first contact, then the key packet
        assert trusted_reads == {1, 2, 3, 4, 0x0011}
        assert untrusted_reads == {1, 2, 3, 4, 0x0012}
        trusted, untrusted = report.subjects
        assert trusted.keys_received == untrusted.keys_received == 2

    def test_flags_written_as_text_mean_what_they_say(self):
        def camera(tiering):
            return {"position": [0, 0], "fov_deg": 90, "view_depth_m": 8,
                    "radio": {"radius_m": 10}, "segment_interval_s": 10, "tiering": tiering}

        scenario = scenario_from_dict({
            "duration_s": 20,
            "cameras": [camera("TRUE"), camera("false")],
            "subjects": [
                {"name": "trusted", "trusted": "yes", "waypoints": [[0, 5, 0]]},
                {"name": "untrusted", "trusted": "false", "waypoints": [[0, 5, 1]]},
            ],
        })
        assert [cam.config.tiering for cam in scenario.cameras] == [True, False]
        assert [subject.trusted for subject in scenario.subjects] == [True, False]
        report, transport = run_scenario(scenario, seed=0)
        _, subject_addrs = participant_addresses(scenario)
        untrusted_reads = {
            r.suffix for r in transport.log if r.kind == "read" and r.sender == subject_addrs[1]
        }
        assert untrusted_reads == {1, 2, 3, 4, 0x0011, 0x0012}  # the base tier of the tiering one

    def test_base_tier_keys_of_chunked_camera_open_whole_segments(self):
        passer = [[0, 100, 0], [9.999, 100, 0], [10, 5, 0], [19.999, 5, 0], [20, 100, 0]]
        scenario = scenario_from_dict(
            {
                "duration_s": 40,
                "cameras": [
                    {
                        "position": [0, 0], "fov_deg": 90, "view_depth_m": 8,
                        "radio": {"radius_m": 10}, "segment_interval_s": 40,
                        "chunk_count": 4, "token_advert_interval_ms": 10000,
                        "tiering": True,
                    }
                ],
                "subjects": [
                    {"name": "trusted", "trusted": True, "waypoints": passer},
                    {"name": "untrusted", "trusted": False, "waypoints": passer},
                ],
            }
        )
        report = assert_report_matches_oracle(scenario)
        trusted, untrusted = report.subjects
        assert trusted.over_share_seconds == 0.0  # holds only the token of its chunk
        assert untrusted.over_share_seconds == 30.0  # the base tier is one key


def city_block_scenario(layout_seed=11, side=120.0, duration=120):
    """6 cameras spread over a square many grid cells wide and 12 walkers
    going from camera to camera: mixed radii and view depths, lossy
    radios, chunked and tiered cameras (one both), untrusted subjects."""
    import random

    rng = random.Random(layout_seed)
    cameras = []
    for i in range(6):
        camera = {
            "name": f"cam-{i}",
            "position": [(i % 3 + rng.uniform(0.2, 0.8)) * side / 3,
                         (i // 3 + rng.uniform(0.2, 0.8)) * side / 2],
            "orientation_deg": rng.uniform(-180, 180),
            "fov_deg": rng.choice((60, 90, 180, 360)),
            "view_depth_m": rng.uniform(4, 25),
            "segment_interval_s": rng.choice((20, 30)),
            "radio": {
                "radius_m": rng.uniform(6, 35),
                "loss_probability": rng.choice((0.0, 0.2, 0.5)),
                "rng_seed": i,
            },
        }
        if i % 2 == 0:
            camera["chunk_count"] = 4
            camera["token_advert_interval_ms"] = 1000 * camera["segment_interval_s"] // 4
        if i % 3 == 0:
            camera["tiering"] = True
        cameras.append(camera)
    subjects = []
    for j in range(12):
        waypoints = []
        for t in range(0, duration + 30, 30):
            cx, cy = rng.choice(cameras)["position"]
            waypoints.append([t, cx + rng.uniform(-30, 30), cy + rng.uniform(-30, 30)])
        subjects.append({"name": f"walker-{j}", "waypoints": waypoints, "trusted": j % 3 != 0})
    return scenario_from_dict({"duration_s": duration, "cameras": cameras, "subjects": subjects})


class TestCityScale:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_many_cells_match_oracle(self, seed):
        report = assert_report_matches_oracle(city_block_scenario(), seed=seed)
        assert all(camera.keys_delivered for camera in report.cameras)
        totals = report.totals
        assert totals["tokens_received"] > 0
        assert 0 < totals["bleed_keys"] < totals["keys_received"]

    @pytest.mark.parametrize("seed, digest", [
        (3, "d01b36e0173c33b3302fb0f00573740caf00b1aa66133fb2f01e89d4f608d4fb"),
        (8, "30872d7e669cfd1428aad6c654ab24c987f3c0cc285a1fb4154912f52fdbbac2"),
    ])
    def test_report_bytes_are_pinned(self, seed, digest):
        # a change to stepping, fan-out, loss draws or codecs that keeps
        # the report must keep it byte for byte
        report, _ = run_scenario(city_block_scenario(), seed=seed)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed, records, digest", [
        (3, 739, "66cf051da1d618c827e0ea581aa55ea9be58d3bb23357f7a1c03a002b099c101"),
        (8, 726, "5d8b8389d6945c1106439a631e113073bc05c1b3fa1e3f10c577a4beedd600b2"),
    ])
    def test_delivery_log_shape_is_pinned(self, seed, records, digest):
        # fan-out order, loss draws and reads, record for record; a payload
        # is left out, as its key and token bytes are drawn from the OS
        _, transport = run_scenario(city_block_scenario(), seed=seed)
        shape = hashlib.sha256()
        for r in transport.log:
            shape.update(f"{r.kind} {r.t.hex()} {r.sender.hex()} {r.receiver.hex()} "
                         f"{int(r.delivered)} {r.suffix}\n".encode())
        assert (len(transport.log), shape.hexdigest()) == (records, digest)


class TestWorkCounts:
    """Work done once stays done once: calls counted over one city-block run, nothing timed."""

    @pytest.fixture(scope="class")
    def counted(self):
        calls = {"encode_characteristic": [], "encode_key_packet": [], "_loss_prefix": [],
                 "generate_key": []}
        patch = pytest.MonkeyPatch()

        def count(module, name):
            real = getattr(module, name)

            def counting(*args):
                result = real(*args)
                calls[name].append((args, result))
                return result

            patch.setattr(module, name, counting)

        count(camera_module, "encode_characteristic")
        count(camera_module, "encode_key_packet")
        count(transport_module, "_loss_prefix")
        count(crypto, "generate_key")
        scenario = city_block_scenario()
        try:
            _, transport = run_scenario(scenario, seed=3)
        finally:
            patch.undo()
        return scenario, transport, calls

    def test_descriptor_encoded_at_most_once_per_characteristic(self, counted):
        scenario, _, calls = counted
        per_camera = Counter(descriptor.name for (descriptor, _), _ in calls["encode_characteristic"])
        assert set(per_camera) <= {camera.config.descriptor.name for camera in scenario.cameras}
        assert max(per_camera.values()) <= len(DESCRIPTOR_CHARS)

    def test_key_packet_encoded_once_per_stream_file(self, counted):
        _, transport, calls = counted
        encoded = [packet.key for (packet,), _ in calls["encode_key_packet"]]
        drawn = [key for _, key in calls["generate_key"]]  # one key per stream file
        assert drawn and sorted(encoded) == sorted(drawn)
        served = {r.payload for r in transport.log
                  if r.kind == "read" and r.suffix in (CHAR_KEY_PACKET, CHAR_TIER_KEY_PACKET)}
        assert served and served <= {data for _, data in calls["encode_key_packet"]}

    def test_loss_prefix_made_once_per_pair_drawn_for(self, counted):
        scenario, transport, calls = counted
        camera_addresses, _ = participant_addresses(scenario)
        lossy = {address for address, camera in zip(camera_addresses, scenario.cameras)
                 if camera.radio.loss_probability > 0}
        drawn = {(r.sender, r.receiver) for r in transport.log
                 if r.kind == "adv" and r.sender in lossy}
        made = Counter((sender, receiver) for (_, sender, receiver), _ in calls["_loss_prefix"])
        assert drawn and set(made) == drawn
        assert max(made.values()) == 1


class TestScenarioFile:
    def test_load_and_run(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "duration_s": 30,
                    "timestep_s": 1,
                    "cameras": [
                        {
                            "position": [0, 0], "orientation_deg": 0, "fov_deg": 90,
                            "view_depth_m": 8, "radio": {"radius_m": 10},
                            "segment_interval_s": 10,
                        }
                    ],
                    "subjects": [{"name": "walker", "waypoints": [[0, 5, 0], [30, 5, 3]]}],
                }
            )
        )
        scenario = load_scenario(path)
        report, _ = run_scenario(scenario, seed=0)
        assert report.subjects[0].keys_received == 3

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_duration_required_positive(self):
        with pytest.raises(ConfigError):
            Scenario(duration_s=0, cameras=(), subjects=())
