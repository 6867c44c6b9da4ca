import json

import pytest

from octv.errors import ConfigError
from octv.sim import (
    Scenario,
    Trajectory,
    compare_granularity,
    in_view,
    load_scenario,
    participant_addresses,
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


from sim_oracle import assert_report_matches_oracle


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

    def test_waypoint_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            Trajectory(((0, 0, 0), (0, 1, 1)))


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
