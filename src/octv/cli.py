"""Command line front: camera, store, client, verification and simulation.

Exit codes: 0 success, 1 domain error, 2 usage error. Domain errors print
one machine-parseable line on stderr: ``error: <kind>: <message>``.
"""

import argparse
import json
import math
import os
import signal
import sys
import threading
import time

from . import client as client_mod
from . import sim as sim_mod
from .camera import CameraRuntime, build_frame_source, parse_camera_config
from .clocks import RealClock
from .crypto import verify_chain
from .errors import ConfigError, NotFoundError, OctvError
from .protocol import decode_key_packet, parse_hex, parse_video_id, url_extension
from .store import FsObjectStore, ObjectKey, StoreServer, fetch_url, open_store
from .transport import SimTransport, UdpBusPeer


def _seconds(text: str) -> float:
    """A flag's finite number of seconds."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds, got {text!r}")
    return value


def _install_stop(callback) -> None:
    def handler(signum, frame):
        callback()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


# -- camera -----------------------------------------------------------------


def cmd_camera_run(args) -> int:
    config = parse_camera_config(args.config)
    if not config.store_target:
        raise ConfigError("camera config needs a store target (store = ...)")
    if args.duration is not None and config.source_duration_s is None:
        config.source_duration_s = args.duration
    store = open_store(config.store_target)
    peer = UdpBusPeer(config.bus_dir, "camera") if config.bus_dir else SimTransport().join("camera")
    runtime = CameraRuntime(config, RealClock(), build_frame_source(config), peer, store)
    _install_stop(runtime.request_stop)
    if args.duration is not None:
        timer = threading.Timer(args.duration + config.segment_interval_s, runtime.request_stop)
        timer.daemon = True
        timer.start()
    try:
        runtime.run()
    finally:
        if config.bus_dir:
            peer.close()
    return 0


def cmd_camera_release(args) -> int:
    control = args.control
    if not control and args.config:
        control = parse_camera_config(args.config).control_dir
    if not control:
        raise ConfigError("release needs --control DIR or a config with control_dir")
    video_id = parse_video_id(args.id)
    os.makedirs(control, exist_ok=True)
    stem = f"release-{video_id.hex()}"
    response_path = os.path.join(control, stem + ".resp")
    if os.path.exists(response_path):
        os.unlink(response_path)
    with open(os.path.join(control, stem + ".req"), "w", encoding="utf-8") as fh:
        fh.write("release\n")
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        if os.path.exists(response_path):
            with open(response_path, encoding="utf-8") as fh:
                outcome = fh.read().strip()
            os.unlink(response_path)
            if outcome == "ok":
                print(f"released {video_id.hex()}")
                return 0
            raise OctvError(outcome[len("err ") :] if outcome.startswith("err ") else outcome)
        time.sleep(0.05)
    raise OctvError(f"camera did not answer release within {args.timeout}s")


# -- store ------------------------------------------------------------------


def cmd_store_serve(args) -> int:
    host, _, port_text = args.bind.partition(":")
    store = FsObjectStore(args.root)
    server = StoreServer(store, host=host or "127.0.0.1", port=int(port_text or "0"))
    server.start()
    print(f"serving {args.root} at {server.base_url()}", flush=True)
    stop = threading.Event()
    _install_stop(stop.set)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        server.stop()
    return 0


# -- client -----------------------------------------------------------------


def cmd_client_listen(args) -> int:
    clock = RealClock()
    wallet = client_mod.Wallet(args.wallet)
    peer = UdpBusPeer(args.bus, "listener")
    client_mod.Listener(wallet, peer, clock)
    stop = threading.Event()
    _install_stop(stop.set)
    deadline = None if args.duration is None else time.monotonic() + args.duration
    try:
        while not stop.is_set():
            peer.pump(timeout=0.2)
            if deadline is not None and time.monotonic() >= deadline:
                break
    finally:
        peer.close()
        wallet.close()
    print(f"wallet {args.wallet}: {len(wallet.records)} records", flush=True)
    return 0


def cmd_client_sessions(args) -> int:
    wallet = client_mod.import_wallet(args.wallet)
    sessions = client_mod.group_sessions(wallet)
    if not sessions:
        print("no sessions")
        return 0
    for i, session in enumerate(sessions):
        print(
            f"session {i}: group {session.group_id} camera {session.camera_address.hex()} "
            f"start {session.start_t:.1f} end {session.end_t:.1f} "
            f"records {len(session.records)}"
        )
        for record in session.records:
            print(f"  seq {record.packet.seq:3d} video {record.packet.video_id.hex()}")
    return 0


def cmd_client_export(args) -> int:
    wallet = client_mod.import_wallet(args.wallet)
    time_range = None
    if args.start is not None or args.end is not None:
        time_range = (
            args.start if args.start is not None else 0.0,
            args.end if args.end is not None else float("inf"),
        )
    count = client_mod.export_wallet(wallet, time_range, args.out)
    print(f"exported {count} records to {args.out}")
    return 0


def cmd_client_fetch(args) -> int:
    wallet = client_mod.import_wallet(args.wallet)
    record = wallet.record_for_video(parse_video_id(args.id))
    if record is None:
        raise NotFoundError(f"no wallet record for video {args.id}")
    result = client_mod.fetch_and_decrypt(wallet, record, fetch_url)
    with open(args.out, "wb") as fh:
        fh.write(result.recovered)
    chain = result.chain_status.value if result.chain_status else "unverified"
    if result.chunks is not None:
        unlocked = sum(1 for _, data in result.chunks if data is not None)
        print(
            f"fetched {args.id}: chunked, {unlocked}/{len(result.chunks)} chunks unlocked, "
            f"{len(result.recovered)} bytes, chain {chain}"
        )
    else:
        print(f"fetched {args.id}: {len(result.recovered)} bytes, chain {chain}")
    return 0


# -- verification -----------------------------------------------------------


def cmd_verify_chain(args) -> int:
    wallet_path = args.wallet or os.path.join(args.dir, "wallet.txt")
    wallet = client_mod.import_wallet(wallet_path)
    items = []
    labels = []
    unverified = []
    for address in sorted(wallet.by_camera):
        for record in sorted(wallet.by_camera[address], key=lambda r: r.received_at):
            video_id = record.packet.video_id
            key = ObjectKey(video_id, url_extension(record.descriptor.url_template))
            path = os.path.join(args.dir, key.path)
            if not os.path.exists(path):
                continue  # withheld or not fetched
            successor = wallet.successor_of(record)
            if successor is None:  # only the successor's packet vouches for a file
                unverified.append(video_id)
                continue
            with open(path, "rb") as fh:
                items.append((fh.read(), successor.packet))
            labels.append(video_id)

    report = verify_chain(items)
    for video_id, status in zip(labels, report.statuses):
        print(f"{video_id.hex()}: {status.value}")
    for video_id in unverified:
        print(f"{video_id.hex()}: unverified (no successor packet held)")
    if report.first_mismatch is not None:
        print(f"chain mismatch at item {report.first_mismatch}")
        return 1
    print("all ok")
    return 0


# -- simulation -------------------------------------------------------------


def cmd_sim_run(args) -> int:
    scenario = sim_mod.load_scenario(args.scenario)
    report, transport = sim_mod.run_scenario(scenario, seed=args.seed)
    if args.report:
        report.write_json(args.report)
    if args.csv:
        report.write_csv(args.csv)
    if args.log:
        transport.export_log(args.log)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_sim_compare(args) -> int:
    scenario = sim_mod.load_scenario(args.scenario)
    coarse, chunked = sim_mod.compare_granularity(
        scenario, args.interval, args.chunks, seed=args.seed
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(
                {"coarse": coarse.to_dict(), "chunked": chunked.to_dict()},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
    print(f"{'subject':<20} {'coarse over-share':>18} {'chunked over-share':>19}")
    for a, b in zip(coarse.subjects, chunked.subjects):
        print(f"{a.name:<20} {a.over_share_seconds:>17.1f}s {b.over_share_seconds:>18.1f}s")
    return 0


# -- wire tools -------------------------------------------------------------


def cmd_keypacket_decode(args) -> int:
    packet = decode_key_packet(parse_hex(args.hex))
    print(f"key                  {packet.key.hex()}")
    print(f"seq                  {packet.seq}")
    print(f"reconnect_interval_s {packet.reconnect_interval_s}")
    print(f"video_id             {packet.video_id.hex()}")
    print(f"prev_hash_prefix     {packet.prev_hash_prefix.hex()}")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octv",
        description="Open-circuit television: encrypted segment camera, store, "
        "listening client and leakage simulator.",
    )
    sub = parser.add_subparsers(dest="command")

    camera = sub.add_parser("camera", help="camera daemon operations")
    camera_sub = camera.add_subparsers(dest="camera_command")
    run = camera_sub.add_parser("run", help="run the recording loop")
    run.add_argument("--config", required=True, help="camera config file (key = value)")
    run.add_argument("--duration", type=_seconds, default=None,
                     help="bound the synthetic source to this many seconds")
    run.set_defaults(func=cmd_camera_run)
    release = camera_sub.add_parser("release", help="release a withheld segment")
    release.add_argument("id", help="video id, 16 hex chars")
    release.add_argument("--control", default=None, help="camera control directory")
    release.add_argument("--config", default=None, help="camera config to read control_dir from")
    release.add_argument("--timeout", type=_seconds, default=10.0)
    release.set_defaults(func=cmd_camera_release)

    store = sub.add_parser("store", help="footage object store")
    store_sub = store.add_subparsers(dest="store_command")
    serve = store_sub.add_parser("serve", help="serve a store directory over HTTP")
    serve.add_argument("--root", required=True, help="object directory")
    serve.add_argument("--bind", default="127.0.0.1:0", help="host:port (port 0 = ephemeral)")
    serve.set_defaults(func=cmd_store_serve)

    cli_client = sub.add_parser("client", help="listening client")
    client_sub = cli_client.add_subparsers(dest="client_command")
    listen = client_sub.add_parser("listen", help="collect keys into a wallet")
    listen.add_argument("--wallet", required=True)
    listen.add_argument("--bus", required=True, help="transport bus directory")
    listen.add_argument("--duration", type=_seconds, default=None)
    listen.set_defaults(func=cmd_client_listen)
    sessions = client_sub.add_parser("sessions", help="list proximity sessions")
    sessions.add_argument("--wallet", required=True)
    sessions.set_defaults(func=cmd_client_sessions)
    fetch = client_sub.add_parser("fetch", help="fetch and decrypt one segment")
    fetch.add_argument("id", help="video id, 16 hex chars")
    fetch.add_argument("--wallet", required=True)
    fetch.add_argument("--out", required=True, help="write decrypted bytes here")
    fetch.set_defaults(func=cmd_client_fetch)
    export = client_sub.add_parser("export", help="export wallet records to a portable file")
    export.add_argument("--wallet", required=True)
    export.add_argument("--out", required=True)
    export.add_argument("--start", type=float, default=None, help="range start, epoch seconds")
    export.add_argument("--end", type=float, default=None, help="range end, epoch seconds")
    export.set_defaults(func=cmd_client_export)

    verify = sub.add_parser("verify-chain", help="verify stored objects against held packets")
    verify.add_argument("dir", help="directory of fetched/stored objects")
    verify.add_argument("--wallet", default=None, help="wallet file (default: DIR/wallet.txt)")
    verify.set_defaults(func=cmd_verify_chain)

    sim = sub.add_parser("sim", help="leakage simulator")
    sim_sub = sim.add_subparsers(dest="sim_command")
    sim_run = sim_sub.add_parser("run", help="run one scenario")
    sim_run.add_argument("scenario", help="scenario JSON file")
    sim_run.add_argument("--seed", type=int, default=0)
    sim_run.add_argument("--report", default=None, help="write report JSON here")
    sim_run.add_argument("--csv", default=None, help="write per-subject CSV here")
    sim_run.add_argument("--log", default=None, help="write the delivery log here")
    sim_run.set_defaults(func=cmd_sim_run)
    sim_cmp = sim_sub.add_parser("compare", help="coarse segments vs chunk tokens")
    sim_cmp.add_argument("scenario")
    sim_cmp.add_argument("--interval", type=int, required=True, help="segment interval, seconds")
    sim_cmp.add_argument("--chunks", type=int, required=True, help="chunks per segment")
    sim_cmp.add_argument("--seed", type=int, default=0)
    sim_cmp.add_argument("--report", default=None)
    sim_cmp.set_defaults(func=cmd_sim_compare)

    keypacket = sub.add_parser("keypacket", help="wire format tools")
    keypacket_sub = keypacket.add_subparsers(dest="keypacket_command")
    decode = keypacket_sub.add_parser("decode", help="decode a 64-byte key packet")
    decode.add_argument("hex", help="128 hex chars")
    decode.set_defaults(func=cmd_keypacket_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except OctvError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: IOError: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
