"""End-to-end tests driving the real executable for every subcommand."""

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from harness import run_pipeline
from octv import cli
from octv.client import export_wallet, import_wallet
from octv.store import FsObjectStore

VECTOR_HEX = "11" * 32 + "05" + "003c" + "0102030405060708" + "aa" * 21
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``: pytest's
    ``pythonpath`` setting reaches only its own process, not a ``python -m octv``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def octv(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "octv", *args],
        capture_output=True, text=True, timeout=60, env=child_env(), **kwargs,
    )


def spawn(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "octv", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )


def stop(proc) -> int:
    """SIGTERM a spawned command and reap it; returns its exit code.

    Its stdout is closed by the :class:`LineReader` draining it, at EOF.
    """
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=10)
    finally:
        proc.stderr.close()


class LineReader:
    """Background reader so waiting on subprocess stdout cannot hang a test."""

    def __init__(self, stream):
        self.lines: "queue.Queue[str]" = queue.Queue()
        self._thread = threading.Thread(target=self._pull, args=(stream,), daemon=True)
        self._thread.start()

    def _pull(self, stream):
        with stream:
            for line in stream:
                self.lines.put(line.rstrip("\n"))

    def wait_for(self, predicate, timeout: float):
        deadline = time.monotonic() + timeout
        seen = []
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.1)
            except queue.Empty:
                continue
            seen.append(line)
            if predicate(line):
                return line, seen
        raise AssertionError(f"no matching line within {timeout}s; saw: {seen}")


def write_camera_config(path, store_dir, **overrides):
    values = {
        "name": "cli camera",
        "mode": "auto",
        "location": "54.97, -1.61",
        "url_template": f"file://{store_dir}/{{id}}.mp4",
        "camera_id": "0102030405060708",
        "segment_interval_s": "1",
        "advert_interval_ms": "250",
        "store": str(store_dir),
        "seed": "42",
        "rate_bytes_per_s": "500",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestKeypacketDecode:
    def test_prints_all_five_fields(self):
        result = octv("keypacket", "decode", VECTOR_HEX)
        assert result.returncode == 0
        out = result.stdout
        assert "11" * 32 in out
        assert "seq                  5" in out
        assert "reconnect_interval_s 60" in out
        assert "0102030405060708" in out
        assert "aa" * 21 in out

    def test_bad_hex_is_domain_error(self):
        result = octv("keypacket", "decode", "zz")
        assert result.returncode == 1
        assert result.stderr.startswith("error: ProtocolError:")

    def test_spaced_hex_is_domain_error(self):
        spaced = " ".join(VECTOR_HEX[i : i + 2] for i in range(0, len(VECTOR_HEX), 2))
        result = octv("keypacket", "decode", spaced)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ProtocolError:")

    def test_wrong_length_is_domain_error(self):
        result = octv("keypacket", "decode", "00" * 63)
        assert result.returncode == 1
        assert "63" in result.stderr


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self):
        result = octv("frobnicate")
        assert result.returncode == 2

    def test_no_subcommand_exit_2(self):
        result = octv()
        assert result.returncode == 2

    def test_help_available_everywhere(self):
        for args in ([], ["camera"], ["client"], ["sim"], ["store"], ["keypacket"]):
            result = octv(*args, "--help")
            assert result.returncode == 0
            assert "usage" in result.stdout.lower()


@pytest.fixture
def pipeline_dir(tmp_path):
    """A finished auto-mode run: objects + wallet.txt in one directory."""
    store_dir = tmp_path / "objects"
    store = FsObjectStore(store_dir)
    pipeline = run_pipeline(
        segments=3, store=store,
        url_template=f"file://{store_dir}/{{id}}.mp4",
    )
    export_wallet(pipeline.wallet, None, store_dir / "wallet.txt")
    return store_dir, pipeline


class TestVerifyChain:
    def test_untampered_all_ok_exit_0(self, pipeline_dir):
        store_dir, _ = pipeline_dir
        result = octv("verify-chain", str(store_dir))
        assert result.returncode == 0
        assert "all ok" in result.stdout
        assert result.stdout.count(": ok") == 3

    def test_tampered_object_exit_1(self, pipeline_dir):
        store_dir, pipeline = pipeline_dir
        victim = pipeline.wallet.records[1].packet.video_id
        path = store_dir / f"{victim.hex()}.mp4"
        data = bytearray(path.read_bytes())
        data[50] ^= 0xFF
        path.write_bytes(bytes(data))
        result = octv("verify-chain", str(store_dir))
        assert result.returncode == 1
        assert f"{victim.hex()}: mismatch" in result.stdout

    def test_explicit_wallet_flag(self, pipeline_dir, tmp_path):
        store_dir, _ = pipeline_dir
        moved = tmp_path / "elsewhere.txt"
        (store_dir / "wallet.txt").rename(moved)
        result = octv("verify-chain", str(store_dir), "--wallet", str(moved))
        assert result.returncode == 0


class TestClientSessions:
    def test_lists_sessions(self, pipeline_dir):
        store_dir, pipeline = pipeline_dir
        result = octv("client", "sessions", "--wallet", str(store_dir / "wallet.txt"))
        assert result.returncode == 0
        assert "session 0" in result.stdout
        assert result.stdout.count("seq") == len(pipeline.wallet.records)

    def test_missing_wallet_domain_error(self, tmp_path):
        result = octv("client", "sessions", "--wallet", str(tmp_path / "none.txt"))
        assert result.returncode == 1

    def test_torn_last_line_skipped_file_untouched(self, pipeline_dir):
        store_dir, pipeline = pipeline_dir
        wallet_path = store_dir / "wallet.txt"
        line = wallet_path.read_text().splitlines()[1]
        with open(wallet_path, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])  # a crash mid-append: no newline
        before = wallet_path.read_bytes()
        result = octv("client", "sessions", "--wallet", str(wallet_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("seq") == len(pipeline.wallet.records)
        assert wallet_path.read_bytes() == before

    def test_non_utf8_byte_is_wallet_error(self, pipeline_dir):
        store_dir, _ = pipeline_dir
        wallet_path = store_dir / "wallet.txt"
        lines = wallet_path.read_bytes().split(b"\n")
        lines[2] = lines[2][:20] + b"\xff" + lines[2][21:]
        wallet_path.write_bytes(b"\n".join(lines))
        result = octv("client", "sessions", "--wallet", str(wallet_path))
        assert result.returncode == 1
        assert result.stderr.startswith("error: WalletError: ")
        assert "line 3" in result.stderr and "Traceback" not in result.stderr


class TestClientFetch:
    def test_fetch_decrypts_to_source_bytes(self, pipeline_dir, tmp_path):
        store_dir, pipeline = pipeline_dir
        record = pipeline.wallet.records[0]
        out = tmp_path / "plain.bin"
        result = octv(
            "client", "fetch", record.packet.video_id.hex(),
            "--wallet", str(store_dir / "wallet.txt"), "--out", str(out),
        )
        assert result.returncode == 0
        assert "chain ok" in result.stdout
        assert out.read_bytes() == pipeline.source_bytes(0, 2000)

    def test_fetch_rejects_a_spaced_id(self, pipeline_dir, tmp_path, capsys):
        store_dir, pipeline = pipeline_dir
        text = pipeline.wallet.records[0].packet.video_id.hex()
        argv = ["client", "fetch", text[:12] + "  " + text[14:],
                "--wallet", str(store_dir / "wallet.txt"), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ProtocolError: video id must be 16 hex")
        assert not (tmp_path / "x").exists()

    def test_fetch_unknown_id(self, pipeline_dir, tmp_path):
        store_dir, _ = pipeline_dir
        result = octv(
            "client", "fetch", "00" * 8,
            "--wallet", str(store_dir / "wallet.txt"), "--out", str(tmp_path / "x"),
        )
        assert result.returncode == 1
        assert "error: NotFoundError" in result.stderr


class TestClientExport:
    def test_export_roundtrips_through_import(self, pipeline_dir, tmp_path):
        store_dir, pipeline = pipeline_dir
        out = tmp_path / "portable.txt"
        result = octv(
            "client", "export", "--wallet", str(store_dir / "wallet.txt"), "--out", str(out)
        )
        assert result.returncode == 0
        assert f"exported {len(pipeline.wallet.records)} records" in result.stdout
        imported = import_wallet(out)
        assert [r.packet for r in imported.records] == [
            r.packet for r in pipeline.wallet.records
        ]

    def test_export_range_filters(self, pipeline_dir, tmp_path):
        store_dir, _ = pipeline_dir
        out = tmp_path / "portable.txt"
        result = octv(
            "client", "export", "--wallet", str(store_dir / "wallet.txt"),
            "--out", str(out), "--start", "1e12",
        )
        assert result.returncode == 0
        assert "exported 0 records" in result.stdout


class TestStoreServe:
    def test_serve_get_put_codes(self, tmp_path):
        proc = spawn("store", "serve", "--root", str(tmp_path / "objects"))
        try:
            reader = LineReader(proc.stdout)
            line, _ = reader.wait_for(lambda l: l.startswith("serving"), timeout=10)
            base_url = line.split(" at ")[1].strip()

            request = urllib.request.Request(
                f"{base_url}/{'aa' * 8}.mp4", data=b"payload", method="PUT"
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 201
            with urllib.request.urlopen(f"{base_url}/{'aa' * 8}.mp4", timeout=5) as response:
                assert response.read() == b"payload"
            with pytest.raises(urllib.error.HTTPError) as not_found:
                urllib.request.urlopen(f"{base_url}/{'bb' * 8}.mp4", timeout=5)
            not_found.value.close()
            assert not_found.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as bad:
                urllib.request.urlopen(f"{base_url}/nonsense", timeout=5)
            bad.value.close()
            assert bad.value.code == 400
        finally:
            assert stop(proc) == 0


class TestCameraRun:
    def test_bounded_run_uploads_segments(self, tmp_path):
        store_dir = tmp_path / "objects"
        config = write_camera_config(tmp_path / "camera.conf", store_dir, duration_s=2)
        result = octv("camera", "run", "--config", str(config))
        assert result.returncode == 0
        objects = [n for n in os.listdir(store_dir) if n.endswith(".mp4")]
        assert len(objects) == 2
        events = [json.loads(line) for line in result.stdout.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds.count("rotate") == 2
        assert kinds.count("upload") == 2
        assert kinds[-1] == "stop"

    def test_sigterm_graceful(self, tmp_path):
        store_dir = tmp_path / "objects"
        config = write_camera_config(tmp_path / "camera.conf", store_dir)
        proc = spawn("camera", "run", "--config", str(config))
        reader = LineReader(proc.stdout)
        reader.wait_for(lambda l: '"start"' in l, timeout=10)
        time.sleep(1.5)
        assert stop(proc) == 0

    @pytest.mark.parametrize("flag", ["nan", "inf"])
    def test_non_finite_duration_is_usage_error(self, tmp_path, flag):
        config = write_camera_config(tmp_path / "camera.conf", tmp_path / "objects")
        result = octv("camera", "run", "--config", str(config), "--duration", flag)
        assert result.returncode == 2
        assert "finite" in result.stderr and "Traceback" not in result.stderr

    def test_missing_store_is_config_error(self, tmp_path):
        config = tmp_path / "camera.conf"
        config.write_text(
            "name = cam\nurl_template = file:///tmp/{id}.mp4\nsegment_interval_s = 1\n"
        )
        result = octv("camera", "run", "--config", str(config))
        assert result.returncode == 1
        assert "error: ConfigError" in result.stderr


class TestCameraRelease:
    def test_release_workflow(self, tmp_path):
        store_dir = tmp_path / "objects"
        control = tmp_path / "control"
        control.mkdir()
        config = write_camera_config(
            tmp_path / "camera.conf", store_dir, mode="manual", control_dir=control
        )
        proc = spawn("camera", "run", "--config", str(config))
        try:
            reader = LineReader(proc.stdout)
            line, _ = reader.wait_for(lambda l: '"withhold"' in l, timeout=15)
            video_id = json.loads(line)["video_id"]
            assert not (store_dir / f"{video_id}.mp4").exists()

            result = octv("camera", "release", video_id, "--control", str(control))
            assert result.returncode == 0, result.stderr
            assert (store_dir / f"{video_id}.mp4").exists()

            missing = octv("camera", "release", "ee" * 8, "--control", str(control))
            assert missing.returncode == 1
            assert "no withheld segment" in missing.stderr
        finally:
            stop(proc)

    def test_release_in_auto_mode_rejected(self, tmp_path):
        store_dir = tmp_path / "objects"
        control = tmp_path / "control"
        control.mkdir()
        config = write_camera_config(
            tmp_path / "camera.conf", store_dir, mode="auto", control_dir=control
        )
        proc = spawn("camera", "run", "--config", str(config))
        try:
            reader = LineReader(proc.stdout)
            reader.wait_for(lambda l: '"start"' in l, timeout=10)
            result = octv("camera", "release", "ab" * 8, "--control", str(control))
            assert result.returncode == 1
            assert "manual mode" in result.stderr
        finally:
            stop(proc)

    @pytest.mark.parametrize("text", ["001122334455  66", "0011223344556677 ", "00112233"])
    def test_malformed_id_is_refused_before_any_request(self, tmp_path, capsys, text):
        control = tmp_path / "control"
        assert cli.main(["camera", "release", text, "--control", str(control)]) == 1
        assert capsys.readouterr().err.startswith("error: ProtocolError: video id must be 16 hex")
        assert not control.exists()


class TestClientListen:
    def test_listen_collects_keys_over_bus(self, tmp_path):
        store_dir = tmp_path / "objects"
        bus = tmp_path / "bus"
        wallet_path = tmp_path / "wallet.txt"
        config = write_camera_config(tmp_path / "camera.conf", store_dir, bus_dir=bus)
        camera_proc = spawn("camera", "run", "--config", str(config))
        try:
            LineReader(camera_proc.stdout).wait_for(lambda l: '"start"' in l, timeout=10)
            listen = octv(
                "client", "listen", "--wallet", str(wallet_path),
                "--bus", str(bus), "--duration", "3",
            )
            assert listen.returncode == 0, listen.stderr
        finally:
            stop(camera_proc)

        wallet = import_wallet(wallet_path)
        assert len(wallet.records) >= 2
        record = wallet.records[0]
        assert record.descriptor.name == "cli camera"
        assert record.packet.reconnect_interval_s == 1


SCENARIO = {
    "duration_s": 30,
    "timestep_s": 1,
    "cameras": [
        {
            "position": [0, 0], "orientation_deg": 0, "fov_deg": 90, "view_depth_m": 8,
            "radio": {"radius_m": 10}, "segment_interval_s": 10,
        }
    ],
    "subjects": [
        {"name": "behind", "waypoints": [[0, -7, 0]]},
        {"name": "inview", "waypoints": [[0, 5, 0]]},
    ],
}


def without_segment_interval(scenario):
    cameras = [{k: v for k, v in cam.items() if k != "segment_interval_s"}
               for cam in scenario["cameras"]]
    return {**scenario, "cameras": cameras}


def with_waypoint(scenario, waypoint):
    return {**scenario, "subjects": [{"name": "odd", "waypoints": [waypoint]}]}


def with_camera(scenario, **values):
    return {**scenario, "cameras": [{**scenario["cameras"][0], **values}]}


NAN, INF = float("nan"), float("inf")  # json writes them as NaN and Infinity


class TestMalformedConfig:
    """A malformed camera config or scenario is one ``error: ConfigError:`` line
    naming the file and the key, never a traceback."""

    @pytest.mark.parametrize("override, key", [
        ({"camera_id": "zz"}, "camera_id"),
        ({"camera_id": "0102"}, "camera_id"),
        ({"segment_interval_s": "two"}, "segment_interval_s"),
        ({"location": "1, 2, 3"}, "location"),
        ({"chunk_count": "1.5"}, "chunk_count"),
        ({"mode": "bogus"}, "mode"),
        ({"url_template": "bogus"}, "url_template"),
        ({"duration_s": "nan"}, "duration_s"),
        ({"duration_s": "inf"}, "duration_s"),
        # a duration ends the run, should the config load
        ({"moed": "manual", "duration_s": "1"}, "moed"),
        ({"location": "nan, inf", "duration_s": "1"}, "location"),
        ({"location": "91, 0", "duration_s": "1"}, "location"),
        ({"location": "0, -181", "duration_s": "1"}, "location"),
        ({"chunk_count": "70000"}, "chunk_count"),
        ({"moed": ""}, "moed"),
    ])
    def test_camera_config(self, tmp_path, capsys, override, key):
        config = write_camera_config(tmp_path / "camera.conf", tmp_path / "objects", **override)
        assert cli.main(["camera", "run", "--config", str(config), "--duration", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: ")
        assert str(config) in err[0] and key in err[0]

    @pytest.mark.parametrize("scenario, key", [
        (without_segment_interval(SCENARIO), "segment_interval_s"),
        (with_waypoint(SCENARIO, [0, "a"]), "waypoints"),
        (with_waypoint(SCENARIO, 7), "waypoints"),
        ([SCENARIO], "list"),
        ({**SCENARIO, "cameras": [[0, 0]]}, "cameras[0]"),
        ({**SCENARIO, "duration_s": "long"}, "duration_s"),
        ({**SCENARIO, "cameras": [{**SCENARIO["cameras"][0], "radio": 5}]}, "radio"),
        ({**SCENARIO, "cameras": [{**SCENARIO["cameras"][0], "position": [1]}]}, "position"),
        ({**SCENARIO, "cameras": [{**SCENARIO["cameras"][0], "mode": "bogus"}]}, "mode"),
        ({**SCENARIO, "cameras": [{**SCENARIO["cameras"][0], "tiering": "maybe"}]}, "tiering"),
        (with_camera(SCENARIO, url_template="bogus"), "url_template"),
        ({**SCENARIO, "duration_s": NAN}, "duration_s"),
        ({**SCENARIO, "duration_s": INF}, "duration_s"),
        ({**SCENARIO, "timestep_s": NAN}, "timestep_s"),
        (with_camera(SCENARIO, view_depth_m=NAN), "view_depth_m"),
        (with_camera(SCENARIO, position=[0, NAN]), "position"),
        (with_camera(SCENARIO, orientation_deg=INF), "orientation_deg"),
        (with_camera(SCENARIO, radio={"radius_m": NAN}), "radius_m"),
        (with_waypoint(SCENARIO, [0, NAN, 0]), "waypoints"),
        (with_camera(SCENARIO, teiring=True), "teiring"),
        ({**SCENARIO, "duraton_s": 60}, "duraton_s"),
        (with_camera(SCENARIO, radio={"radius_m": 10, "los_probability": 0.5}), "los_probability"),
        ({**SCENARIO, "subjects": [{"waypoints": [[0, 0, 0]], "trustd": False}]}, "trustd"),
        (with_camera(SCENARIO, chunk_count=70000), "chunk_count"),
    ])
    def test_scenario(self, tmp_path, capsys, scenario, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["sim", "run", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: ")
        assert str(path) in err[0] and key in err[0]


class TestSim:
    def test_sim_run_writes_reports(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        report = tmp_path / "report.json"
        csv_path = tmp_path / "subjects.csv"
        log = tmp_path / "delivery.log"
        result = octv(
            "sim", "run", str(scenario),
            "--report", str(report), "--csv", str(csv_path), "--log", str(log),
        )
        assert result.returncode == 0
        data = json.loads(report.read_text())
        behind = next(s for s in data["subjects"] if s["name"] == "behind")
        assert behind["bleed_keys"] == 3
        assert "subject,keys_received" in csv_path.read_text()
        assert any(line.startswith("ADV") for line in log.read_text().splitlines())

    def test_sim_compare_prints_table(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        result = octv("sim", "compare", str(scenario), "--interval", "10", "--chunks", "5")
        assert result.returncode == 0
        assert "coarse over-share" in result.stdout

    def test_sim_missing_file(self, tmp_path):
        result = octv("sim", "run", str(tmp_path / "none.json"))
        assert result.returncode == 1
