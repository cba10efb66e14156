"""Run one benchmark workload and print its metrics.

Usage, from the root of a relboost checkout:

    python3 perfbench/run.py --workload rfgb-imbalanced --seed 1 --seconds 20 --trace 0

One run is one single-threaded process with one client in a closed loop.
It imports relboost from ``src/``, generates the workload's input files
from the seed (several times, timing each: ``setup_s``), then runs the
workload's pipeline of ``relboost`` commands in-process, again and again,
until ``--seconds`` have passed.  Timings are medians over those passes,
normalised by ``SpeedProbe`` (see README.md).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, installs the per-layer wrappers of layertrace.py and reports
the per-layer metrics of the traced passes that follow.

Every command and every output check is an operation; an operation fails
on a non-zero exit code or a failed check.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (environment, digests, checks, passes).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _commit(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _sha256(path: str):
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


class SpeedProbe:
    """Measures how fast this process is running, while it runs.

    The benchmark shares its cores with other tenants, and their load makes
    the same Python code run up to 1.8 times slower for tens of seconds at
    a time.  Every 10 ms a SIGALRM handler times a fixed piece of Python on
    the benchmark's own thread.  ``measure`` reports a call's wall time and its
    *normalised* time: wall time times PROBE_REF_S over the mean probe time
    during the call, that is, the seconds the call would have taken had the
    probe run at its reference speed.
    """

    PERIOD_S = 0.01
    PROBE_REF_S = 50e-6

    def __init__(self):
        self.samples: list = []

    def _probe(self, _signum, _frame):
        # dict, tuple and str work like the program's own; of the probes
        # tried (integer loop, random reads of a large dict, this one), this
        # tracked the workloads' slowdowns best
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        counts: dict = {}
        for i in range(150):
            key = (i & 15, "k")
            counts[key] = counts.get(key, 0) + i
            str(i)
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """(fn(), wall seconds, normalised seconds)."""
        mark = len(self.samples)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        during = self.samples[mark:] or self.samples[-5:]
        if not during:
            return result, wall, wall
        return result, wall, wall * self.PROBE_REF_S / statistics.fmean(during)


def _stage_median(passes: list, stage, key: str = "seconds") -> float:
    """Sum over the stage's steps (all steps for None) of each step's
    median time across passes; one slow pass moves it less than a median
    of pass sums would."""
    steps = [i for i, op in enumerate(passes[0]["ops"]) if stage in (None, op["stage"])]
    return sum(_median([p["ops"][i][key] for p in passes]) for i in steps)


def _step(cli, step, inp, out):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(list(step.argv)) if step.call is None else step.call(inp, out)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
    return code, sink.getvalue()


def run_pass(probe, cli, workload, seed: int, inp, out_root: str) -> dict:
    """One closed-loop pass: every step in order, each after the last returns."""
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    out = workloads.Dir(out_root)
    ops = []
    for step in workload.steps(seed, inp, out):
        (code, output), wall, seconds = probe.measure(lambda: _step(cli, step, inp, out))
        ops.append({"op": step.label, "stage": step.stage, "ok": code == 0,
                    "seconds": seconds, "wall_s": wall,
                    **({} if code == 0 else {"error": str(code), "output": output[-2000:]})})
    outputs = sorted(os.listdir(out_root))
    return {"ops": ops, "out": out,
            "digests": {name: _sha256(out(name)) for name in outputs
                        if not name.startswith(".")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "RELBOOST_THREADS" in os.environ:
        _die("RELBOOST_THREADS is set; unset it so the benchmark measures the default")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "relboost", "cli.py")):
        _die("src/relboost not found; run from the root of a relboost checkout")
    env = {"commit": _commit(root), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0]}

    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        (cli, relboost), import_wall, import_s = probe.measure(_import_relboost)
        if not os.path.abspath(relboost.__file__).startswith(src + os.sep):
            _die(f"imported relboost from {relboost.__file__}, not from {src}")
        import numpy
        env["numpy"] = numpy.__version__
        record, result = _measure(args, probe, root, cli, relboost, import_s)
    record.update(environment=env, import_s=import_s, import_wall_s=import_wall,
                  probe_median_s=_median(probe.samples), probes=len(probe.samples))
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, ".perfbench", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps(result))
    return 0


def _import_relboost():
    import relboost
    import relboost.cli as cli
    return cli, relboost


def _measure(args, probe, root: str, cli, relboost, import_s: float):
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", f"{workload.name}-{os.getpid()}")
    checks = []          # (name, passed, detail)
    tracer = None
    try:
        # set-up: seeded generation and writing of the inputs, repeated
        inp = workloads.Dir(os.path.join(work, "in"))

        def setup():
            files = workload.generate(args.seed)
            workloads.write_inputs(files, inp.root)
            return files

        gen_s, first = [], None
        for _ in range(SETUP_REPEATS):
            files, _wall, seconds = probe.measure(setup)
            gen_s.append(seconds)
            first = first or files
            if files != first:
                checks.append(("set-up is byte-identical across repeats", False, ""))
                break

        # closed loop until the deadline; in a traced run, pass 0 is untraced
        passes = []
        deadline = time.perf_counter() + args.seconds
        while True:
            if args.trace and passes and tracer is None:
                tracer = layertrace.Tracer()
                rebound = tracer.install(relboost)
                stale = layertrace.stale_bindings(relboost)
                checks.append(("tracer left no stale binding", not stale,
                               "; ".join(stale) or f"{len(rebound)} rebound"))
            if tracer is not None:
                tracer.reset()
            p = run_pass(probe, cli, workload, args.seed, inp, os.path.join(work, "out"))
            if tracer is not None:
                p["layers"] = tracer.metrics()
                p["spans"] = [list(s) for s in tracer.spans]
            elif not passes:
                try:
                    checks.extend(workload.check(inp, p["out"]))
                except Exception as exc:
                    checks.append(("output checks ran", False, f"{type(exc).__name__}: {exc}"))
            passes.append(p)
            if time.perf_counter() >= deadline and (len(passes) >= 2 or not args.trace):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    # every later pass must reproduce pass 0's files byte for byte
    for i, p in enumerate(passes[1:], start=1):
        same = p["digests"] == passes[0]["digests"]
        kind = "traced" if "layers" in p else "untraced"
        checks.append((f"{kind} pass {i} outputs equal pass 0's", same,
                       "" if same else json.dumps(p["digests"])))

    timed = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    e2e = {
        "setup_s": import_s + _median(gen_s),
        "train_s": _stage_median(timed, "train"),
        "eval_s": _stage_median(timed, "eval"),
        "total_s": _stage_median(timed, None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {"train_s": _stage_median(timed, "train", "wall_s"),
            "eval_s": _stage_median(timed, "eval", "wall_s"),
            "total_s": _stage_median(timed, None, "wall_s")}
    if args.trace:
        layers = {name: _median([p["layers"][name] for p in traced])
                  for name in layertrace.LAYER_METRICS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = _stage_median(traced, None) - e2e["total_s"]
        for name in layertrace.expected_nonzero(workload.name):
            checks.append((f"{name} non-zero", layers[name] != 0, repr(layers[name])))
        for name in layertrace.expected_zero(workload.name):
            checks.append((f"{name} zero on the control", layers[name] == 0,
                           repr(layers[name])))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layertrace.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": "MB" if name == "peak_rss_mb" else "s"}
                   for name, value in e2e.items()}

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload.name, {}).get(str(args.seed))
    models = {name: passes[0]["digests"].get(name) for name in workload.models}
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops) + sum(not ok for _, ok, _ in checks)
    attempted = len(ops) + len(checks)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "generate_s": gen_s, "wall_s": wall,
        "model_sha256": models, "recorded_sha256": recorded,
        "digests_match": None if recorded is None else recorded == models,
        "checks": [{"check": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "failed_ops": [op for op in ops if not op["ok"]],
        "passes": [{"traced": "layers" in p, "step_s": [op["seconds"] for op in p["ops"]],
                    "step_wall_s": [op["wall_s"] for op in p["ops"]]} for p in passes],
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    if traced:
        record["spans"] = traced[0]["spans"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


if __name__ == "__main__":
    sys.exit(main())
