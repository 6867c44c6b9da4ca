"""Benchmark entry point for the octv package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ``src``.
Workloads: demo_pipeline, city_sim, wallet_catchup (see their modules).

Each run sets up its workload several times (``setup_s`` is the median),
measures for ``--seconds`` seconds, then checks the outputs outside the
timed region. Human-readable lines come first: the run record, every
end-to-end metric by name and unit (timings with p99 and sample count
beside them), and with ``--trace 1`` every per-layer metric plus the
tracing overhead. The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``:
its ``end_to_end`` list untraced, its ``per_layer`` list traced.

``work_per_s`` is each workload's throughput in work items per wall
second. ``work_per_mref`` is the same throughput per million iterations
of a fixed reference kernel run in the same moments (``measure.Pace``):
on a shared host whose speed swings for minutes at a time it moves with
the program's speed and not the host's, so it is the figure gated on.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the package or the benchmark definition cannot be found.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# fewest set-ups before and after the run, each batch lasting SETUP_BATCH_S at least
SETUP_REPEATS = {"demo_pipeline": 8, "city_sim": 13, "wallet_catchup": 2}
SETUP_BATCH_S = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metric(kind: str, name: str, value, unit: str, samples=None) -> None:
    line = f"{kind} {name} = {value:.6g} {unit}"
    if samples and unit in ("ms", "s"):
        from perfbench.measure import percentile

        line += f"  (p99 {percentile(samples, 99):.6g} {unit}, n={len(samples)})"
    elif samples:
        line += f"  (over n={len(samples)} repeats)"
    print(line)


def _print_outcome(label: str, outcome, extra: dict) -> None:
    print(f"== {label}: {outcome.work} work items in {outcome.elapsed_s:.3f} s")
    for name, (value, unit) in extra.items():
        _print_metric("e2e", name, value, unit)
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"e2e error_rate = {rate:.6g} ratio  (failed {outcome.failed} "
          f"of {outcome.attempted} attempted)")
    for name, metric in outcome.metrics.items():
        _print_metric("e2e", name, metric.value, metric.unit, metric.samples)


def _print_spans(tracer) -> None:
    """Self time by layer, the spans kept whole, then every span name by self time."""
    layers = sorted({name.split(".")[0] for name in tracer.stats})
    for layer in layers:
        print(f"self {layer} = {tracer.self_time(layer + '.'):.6g} s")
    origin = min((start for _, start, _, _ in tracer.spans), default=0.0)
    for name, start, end, parent in tracer.spans:
        print(f"kept {name} start=+{start - origin:.6f} s dur={end - start:.6f} s "
              f"parent={parent}")
    ranked = sorted(tracer.stats.items(), key=lambda item: -item[1].self_time)
    for name, stat in ranked:
        if stat.count:
            print(f"span {name} calls={stat.count} total_s={stat.total:.6g} "
                  f"self_s={stat.self_time:.6g} errors={stat.errors}")


def _untraced(module, args, root):
    """Set up, run and check the workload; set-ups come in a batch before the
    run and one after it, plus any the workload timed between its repeats
    (``outcome.setups``), so that ``setup_s``, their median, does not rest
    on one moment's noise."""
    from perfbench.measure import peak_rss_mib, timed_setups

    def build(env_dir):
        return module.setup(args.seed, env_dir)

    repeats = SETUP_REPEATS[args.workload]
    env, setups = timed_setups(build, root, repeats, SETUP_BATCH_S)
    try:
        outcome = module.run(env, args.seconds)
        rss = peak_rss_mib()
        if hasattr(module, "check"):
            module.check(env, outcome)
    finally:
        env.close()
    setups += timed_setups(build, root, repeats, SETUP_BATCH_S, keep_last=False)[1]
    setups += getattr(outcome, "setups", [])
    headline = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "work_per_s": (outcome.rate, "1/s"),
        "work_per_mref": (outcome.paced, "1/Mref"),
    }
    return outcome, headline


def _traced(module, args, root):
    from perfbench.tracing import Tracer, common_layer_metrics, install_layers

    tracer = Tracer()
    install_layers(tracer)
    try:
        os.makedirs(os.path.join(root, "traced"))
        env = module.setup(args.seed, os.path.join(root, "traced"), tracer)
        tracer.reset()
        try:
            outcome = module.run(env, args.seconds)
            layers = common_layer_metrics(tracer)
            layers.update(module.layer_metrics(env, tracer, outcome))
        finally:
            env.close()
    finally:
        tracer.uninstall()
    return outcome, layers, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "octv", "__init__.py")):
        print(f"error: no octv package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    import importlib

    from perfbench.measure import run_record, scratch_dir

    module = importlib.import_module(f"perfbench.{args.workload}")
    for line in run_record(args.workload, args.seed, args.seconds, bool(args.trace)):
        print(f"# {line}")

    with scratch_dir() as root:
        outcome, headline = _untraced(module, args, root)
        _print_outcome("untraced", outcome, headline)
        problems = list(outcome.problems)
        if args.trace:
            traced, layers, tracer = _traced(module, args, root)
            problems += traced.problems
            overhead = (outcome.paced / traced.paced - 1.0) * 100.0
            layers["trace.overhead_pct"] = (overhead, "%")
            _print_outcome("traced", traced, {})
            for name, (value, unit) in sorted(layers.items()):
                _print_metric("layer", name, value, unit)
            _print_spans(tracer)
            if hasattr(module, "compare"):
                problems += module.compare(outcome, traced)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        reported, wanted = traced, spec["per_layer"]
        values = layers
    else:
        reported, wanted = outcome, spec["end_to_end"]
        values = headline
    metrics = {}
    for entry in wanted:
        # a count a workload never touches is 0; any other metric must be measured
        default = (0, "count") if entry["unit"] == "count" else (None, None)
        value, unit = values.get(entry["name"], default)
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not problems, "attempted": reported.attempted,
                      "failed": reported.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
