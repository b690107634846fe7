"""One fresh-process run of a workload's command list.

Started by ``run.py``; not meant to be run by hand:

    python3 bench/child.py MODE JOB_JSON RESULT_JSON T_SPAWN

MODE is ``setup`` (stop after set-up), ``plain`` (untraced) or
``traced``.  T_SPAWN is the parent's ``time.monotonic()`` just before the
process was started, so set-up time includes interpreter start-up.  The
working directory is the run's scratch directory; every command's
``--out`` report is written there and hashed.

Only ``sys`` and ``time`` are imported before set-up ends, so the set-up
time is what a ``gradedbv`` invocation pays before its first verdict:
interpreter start, ``import gradedbv.cli`` and parsing every relation in
the catalog.
"""

import sys
import time

MODE, JOB_PATH, RESULT_PATH, T_SPAWN = sys.argv[1:5]

tracer = None
if MODE == "traced":
    from tracing import Tracer
    tracer = Tracer()
    tracer.start()

t_import = time.perf_counter()
import gradedbv.cli  # noqa: E402
from gradedbv.structures import builtin_relation, relation_ids  # noqa: E402

if tracer is not None:
    tracer.instrument()
for rid in relation_ids():
    builtin_relation(rid)
setup_s = time.monotonic() - float(T_SPAWN)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402


class _Term:
    __slots__ = ("key", "coeff")

    def __init__(self, key, coeff):
        self.key = key
        self.coeff = coeff


def kernel_seconds():
    """CPU seconds of one pass of a fixed pure-Python kernel.

    The kernel mixes what the engine spends its time on: tuple keys,
    dict updates, small slotted objects, Fraction and mod-p arithmetic.
    It uses nothing from gradedbv, so no engine change moves it.  CPU
    time, not wall time, so that waiting for the interpreter lock does
    not count.
    """
    start = time.thread_time()
    table = {}
    acc = Fraction(0)
    residue = 0
    for i in range(800):
        term = _Term(("U^%d" % (i % 97), "A"), i % 13)
        table[term.key] = table.get(term.key, 0) + term.coeff
        residue = (residue * 31 + term.coeff) % 101
        if i % 11 == 0:
            acc += Fraction(i % 5 + 1, i % 3 + 1)
    return time.thread_time() - start


class SpeedSampler(threading.Thread):
    """Runs the kernel at once and then every SAMPLE_EVERY_S until stopped.

    On a shared host the CPU's speed can flip several times a second, so
    the kernel is sampled during the measured work itself; the engine
    and the kernel slow down together.
    """

    SAMPLE_EVERY_S = 0.1

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.stopped = threading.Event()

    def run(self):
        self.samples.append(kernel_seconds())
        while not self.stopped.wait(self.SAMPLE_EVERY_S):
            self.samples.append(kernel_seconds())


def run_command(argv, out_path):
    """Run one CLI command in-process and summarise its --out report."""
    result = {"exit": None, "error": None, "sha256": None, "bytes": 0,
              "reports": []}
    if os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            result["exit"] = gradedbv.cli.main(argv)
    except SystemExit as exc:
        result["exit"] = exc.code
    except Exception as exc:  # a crash is a failed operation, not a harness error
        result["error"] = "%s: %s" % (type(exc).__name__, exc)
    result["seconds"] = time.perf_counter() - start
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            raw = handle.read()
        result["sha256"] = hashlib.sha256(raw).hexdigest()
        result["bytes"] = len(raw)
        doc = json.loads(raw)
        result["reports"] = [
            [r["relation"], r["status"], r["tuples_checked"], len(r["witnesses"])]
            for r in doc["reports"]]
    return result


def main():
    out = {"setup_s": setup_s,
           "setup_calibration_s": [kernel_seconds() for _ in range(10)],
           "calibration_s": []}
    if MODE != "setup":
        with open(JOB_PATH, encoding="utf-8") as handle:
            job = json.load(handle)
        commands = []
        sampler = SpeedSampler()
        if tracer is None:
            sampler.start()
        for index, argv in enumerate(job["commands"]):
            if tracer is not None:
                tracer.command = index
            out_path = argv[argv.index("--out") + 1]
            commands.append(run_command(argv, out_path))
        t_end = time.perf_counter()
        if tracer is None:
            sampler.stopped.set()
            sampler.join()
            out["calibration_s"] = sampler.samples
        out["wall_s"] = sum(c["seconds"] for c in commands)
        out["total_s"] = t_end - t_import
        out["commands"] = commands
        if tracer is not None:
            out["trace"] = tracer.finish(t_import, t_end)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


main()
