"""One pass of a workload, in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC SETUP_CONFIG``

Times set-up first: the import of ``historyvalue`` plus loading
``SETUP_CONFIG``, the first thing ``hv`` does.  Then runs each command of
``SPEC`` (JSON: ``{"trace": bool, "out": path, "commands": [{"name",
"argv"}]}``) through ``historyvalue.cli.main`` in-process, capturing its
stdout, and writes the timings, outputs, peak memory and, when traced,
the spans to ``out``.  An empty command list measures set-up alone.

While set-up or a command runs, a speed probe times a fixed loop every
``PROBE_INTERVAL_S`` of wall time (``SpeedProbe``).  The host's
speed changes with its other tenants' load; the probe times tell how
fast it ran meanwhile, so that ``run.py`` can take that speed out of the
measured time.
"""

import contextlib
import io
import os
import resource
import signal
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Iterations of the probe loop: about 40 microseconds on an idle 2.1 GHz Xeon.
PROBE_LOOPS = 150
#: Wall time between probes; the probes take about 0.5% of a command.
PROBE_INTERVAL_S = 0.01


def probe_loop() -> float:
    """Seconds one run of the fixed probe loop takes now."""
    start = time.perf_counter()
    table = {}
    x = 7
    for _ in range(PROBE_LOOPS):  # integer arithmetic and dict updates, like the program's
        x = x * 48271 % 2147483647
        table[x & 63] = table.get(x & 63, 0) + x
    return time.perf_counter() - start


class SpeedProbe:
    """Runs ``probe_loop`` at the start and then on a wall-clock timer
    (``SIGALRM``), collecting its times in ``times``."""

    def __init__(self):
        self.times = []

    def _on_alarm(self, signum, frame):
        self.times.append(probe_loop())

    def __enter__(self):
        self.times = [probe_loop()]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def run_command(hv_main, tracer, command_id, name, argv):
    """Run one ``hv`` command; returns (exit code, seconds, stdout text,
    probe times).  ``seconds`` leaves out the time spent in probes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = hv_main(argv)
            else:
                tracer.command = command_id
                code = tracer.call(f"cli.{name}", hv_main, argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error fails the command, not the pass
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, seconds - sum(probe.times[1:]), buf.getvalue(), probe.times


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import historyvalue.cli
        import json  # after the clock starts: historyvalue imports it too

        with open(sys.argv[2]) as fh:
            json.load(fh)
        setup_s = time.perf_counter() - t0
    setup = {"seconds": setup_s - sum(probe.times[1:]), "probes": probe.times}

    from tracing import Tracer

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    commands = []
    for command_id, command in enumerate(spec["commands"]):
        code, seconds, text, probes = run_command(
            historyvalue.cli.main, tracer, command_id, command["name"], command["argv"]
        )
        commands.append({"name": command["name"], "code": code, "seconds": seconds,
                         "output": text, "probes": probes})
    result = {
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
