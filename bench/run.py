"""Benchmark of the ``hv`` command line, one fresh interpreter per pass.

Usage::

    python3 bench/run.py --workload tie-search|corpus-verify|price-sweep
        [--seed N] [--seconds S] [--trace 0|1]

Makes the workload's inputs from ``--seed`` (see ``workloads.py``), then
runs passes of its commands through ``historyvalue.cli.main``, each pass
in a new single-threaded interpreter, for as long as the next pass still
fits in ``--seconds``.  Every command's output is checked (``checks.py``).
Set-up and command times are normalised by the speed probe that runs
alongside them (``worker.py``): see ``normalised_s``.  Lines of figures
(median, quartiles, sample count) come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``tracing.py`` with ``--trace 1``.  A traced run alternates
an untraced and a traced pass on the same inputs; its per-layer counts
are those of the first pass, its times medians over the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
#: Scratch space for configs and pass results, removed at exit.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Set-up-only interpreters per run, besides the set-up of every pass.
SETUP_SAMPLES = 20
#: A pass taking longer than this is stopped and counted as failed.
PASS_TIMEOUT_S = 120
#: The probe loop's time on an idle host: the fastest of 20000 runs on
#: the 2.1 GHz Xeon that recorded ``baseline.json``.
PROBE_REF_S = 3.7e-5

sys.path.insert(0, BENCH_DIR)
from checks import check, load_digests  # noqa: E402
from tracing import COUNT_UNITS, LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORK_ITEMS, WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class PassFailed(Exception):
    """A worker interpreter exited abnormally or timed out."""


class Bench:
    """Launches worker interpreters; owns the run's scratch directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._files = 0
        self._configs = {}

    def _path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{stem}-{self._files}.json")

    def config_path(self, command) -> str:
        text = command.config_text()
        if text not in self._configs:
            path = self._path("config")
            with open(path, "w") as fh:
                fh.write(text)
            self._configs[text] = path
        return self._configs[text]

    def worker(self, commands, trace: bool, setup_config: str) -> dict:
        """Run ``commands`` in a fresh interpreter and return its result."""
        out = self._path("result")
        spec = {
            "trace": trace,
            "out": out,
            "commands": [
                {"name": c.name, "argv": [c.name, "--config", self.config_path(c), *c.args]}
                for c in commands
            ],
        }
        spec_path = self._path("spec")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec_path, setup_config],
                env=dict(os.environ, PYTHONHASHSEED="0"),
                stdout=subprocess.DEVNULL,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise PassFailed(f"worker exited with code {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        os.remove(out)
        os.remove(spec_path)
        return result


def quartiles(values):
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary_line(workload: str, name: str, values, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{workload}  {name:<48} {med:>12.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def normalised_s(timed: dict) -> float:
    """A set-up's or a command's time at the probe's idle speed, ``PROBE_REF_S``.

    The probe ran at even steps of wall time, so the mean of
    ``PROBE_REF_S / probe time`` is the host's mean speed over the timed
    span relative to idle, and the span's time times that speed is the time
    it would have taken on the idle host.  Neighbours' load on a shared
    host slows the probe and the program alike, and cancels out.
    """
    speed = statistics.fmean(PROBE_REF_S / t for t in timed["probes"])
    return timed["seconds"] * speed


def pass_norm_s(result: dict) -> float:
    return sum(normalised_s(c) for c in result["commands"])


def command_samples(workload: str, passes) -> dict:
    """The workload's own end-to-end figures, per pass: normalised
    per-command times and work per second."""
    samples = {}
    for result in passes:
        for c in result["commands"]:
            samples.setdefault(f"{c['name']}_s", []).append(normalised_s(c))
    if workload == "corpus-verify":
        samples["structures_per_s"] = [WORK_ITEMS[workload] / s for s in samples["verify_s"]]
    if workload == "price-sweep":
        samples["grid_points_per_s"] = [WORK_ITEMS[workload] / s for s in samples["sweep_s"]]
    return samples


def run(args) -> int:
    make_inputs = WORKLOADS[args.workload]
    digests = load_digests()
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        bench = Bench(workdir)
        setup_config = bench.config_path(make_inputs(args.seed, 0)[0])
        bench.worker([], False, setup_config)  # warm-up: bytecode and file cache
        setups = [bench.worker([], False, setup_config)["setup"] for _ in range(SETUP_SAMPLES)]
        untraced, traced = [], []
        attempted = failed = 0
        start = time.perf_counter()
        k = 0
        longest = 0.0  # the longest pass (or traced pair) so far
        while k == 0 or time.perf_counter() - start + longest <= args.seconds:
            began = time.perf_counter()
            commands = make_inputs(args.seed, k)
            for trace in (False, True) if args.trace else (False,):
                attempted += len(commands)
                try:
                    result = bench.worker(commands, trace, setup_config)
                except PassFailed as exc:
                    print(f"pass {k}: {exc}", file=sys.stderr)
                    failed += len(commands)
                    continue
                for command, res in zip(commands, result["commands"]):
                    problems = check(command, res["code"], res["output"], digests)
                    for problem in problems:
                        print(f"pass {k} {command.name}: {problem}", file=sys.stderr)
                    failed += bool(problems)
                setups.append(result["setup"])
                result["k"] = k
                (traced if trace else untraced).append(result)
            longest = max(longest, time.perf_counter() - began)
            k += 1

    if not untraced or (args.trace and not traced):
        print("no pass completed; no figures to report", file=sys.stderr)
        return 1
    walls = {r["k"]: pass_norm_s(r) for r in untraced}
    samples = {
        "setup_s": [normalised_s(s) for s in setups],
        "wall_s": list(walls.values()),
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for name, unit in END_TO_END:
        print(summary_line(args.workload, name, samples[name], unit))
    print(summary_line(args.workload, "setup_raw_s", [s["seconds"] for s in setups], "s"))
    print(summary_line(args.workload, "wall_raw_s",
                       [sum(c["seconds"] for c in r["commands"]) for r in untraced], "s"))
    for name, values in command_samples(args.workload, untraced).items():
        print(summary_line(args.workload, name, values, "1/s" if name.endswith("per_s") else "s"))
    print(f"{args.workload}  {'fail_ratio':<48} {failed / attempted:>12.6g} ratio  "
          f"({failed} of {attempted} commands)")

    if args.trace:
        per_pass = [
            layer_metrics(r["spans"], sum(len(c["output"].encode()) for c in r["commands"]))
            for r in traced
        ]
        metrics = {}
        for name, unit in LAYER_METRICS:
            values = [m[name] for m in per_pass]
            metrics[name] = {"value": values[0] if unit in COUNT_UNITS else quartiles(values)[1],
                             "unit": unit}
            print(summary_line(args.workload, name, values, unit))
        ratios = [pass_norm_s(r) / walls[r["k"]] for r in traced if r["k"] in walls]
        metrics["trace.overhead_ratio"] = {"value": quartiles(ratios)[1], "unit": "ratio"}
        print(summary_line(args.workload, "trace.overhead_ratio", ratios, "ratio"))
    else:
        metrics = {name: {"value": quartiles(samples[name])[1], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the running worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "historyvalue", "cli.py")):
        print(f"error: no historyvalue sources under {ROOT}/src", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
