"""matchflip benchmark: verified-answer latency, driven the way users drive it.

    python3 perfbench/run.py --workload interval --seed 1 --seconds 20 --trace 0

One closed-loop caller in one process.  Each operation is a
``matchflip.cli.main`` call with stdout captured (``solve --class auto
--emit-sequence``, ``verify``, ``oracle --want-path``, ``stats``); a share
of the time goes to whole ``python -m matchflip.cli solve`` subprocesses.
Inputs come from ``workloads.py`` (run three times; their median wall time
is ``setup_s``, and all three must hash alike).  Every time is reported at
reference speed (see ``calib.py``).  Every distinct operation
runs once untimed and is checked against ground truth that the code under
test does not produce; later runs of it must print the same.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans wrapped around the CLI's entry points (see ``spans.py``).
The last stdout line is the result object; the line before it, a record
of what was measured (inputs hash, commit, sample counts, failures).
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
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402

SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT = 120
# Share of the timed window each stream may use, and the fewest samples a
# run needs (p90 wants at least ten samples above it).
SHARES = {"answer": 0.5, "verdict": 0.2, "side": 0.05, "stats": 0.1, "cli": 0.15, "calib": 0.05}
MIN_SAMPLES = {
    "full": {"answer": 100, "verdict": 100, "side": 1, "stats": 20, "cli": 8, "calib": 20},
    "smoke": {"answer": 3, "verdict": 3, "side": 1, "stats": 1, "cli": 1, "calib": 3},
}
# calibration runs taken before each set-up build and after the last
SETUP_CALIB = 10
IMPORT_SAMPLES = 5
OUTERPLANAR_STEPS = ("SplitStep", "RemoveEvenChordStep", "Case1DropStep",
                     "Case1RemoveStep", "ForcedPairStep", "Case2Step")


class BenchError(RuntimeError):
    pass


def percentile(xs, q):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed, scale, base, clock):
    """Build the inputs SETUP_REPEATS times in fresh interpreters, with
    calibration runs around each; returns the builds' [start, end] times
    and the manifest of the first build."""
    builds, hashes = [], []
    clock.sample(SETUP_CALIB)
    for i in range(SETUP_REPEATS):
        out = os.path.join(base, f"setup{i}")
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT * 2)
        builds.append((t0, time.perf_counter()))
        clock.sample(SETUP_CALIB)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        hashes.append(proc.stdout.strip())
        if i:
            shutil.rmtree(out)
    if len(set(hashes)) != 1:
        raise BenchError(f"set-up is not reproducible: input hashes {hashes}")
    inputs = os.path.join(base, "setup0")
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for op in manifest["ops"]:
        op["argv"] = [os.path.join(inputs, a[1:]) if a.startswith("@") else a for a in op["argv"]]
    return builds, manifest, inputs


# ---------------------------------------------------------------------------
# correctness checks (run outside every timed region)


class Checker:
    def __init__(self, inputs):
        self.inputs = inputs
        self.first = {}  # op id -> (exit code, stdout) of its checked run
        self.lengths = {}  # op id -> length of its checked YES sequence
        self.failures = []

    def _sequence(self, c, expect_len):
        with open(os.path.join(self.inputs, c["inst"]), encoding="utf-8") as fh:
            inst = json.load(fh)
        with open(os.path.join(self.inputs, c["emit"]), encoding="utf-8") as fh:
            seq = json.load(fh)
        if seq["mode"] != c["mode"] or seq.get("k") != c.get("k"):
            return f"sequence mode {seq['mode']}/{seq.get('k')}, expected {c['mode']}/{c.get('k')}"
        adj = checks.adjacency(inst["n"], inst["edges"])
        ok, step = checks.replay(adj, inst["m_ini"], seq, inst["m_tar"])
        if not ok:
            return f"emitted sequence fails replay at step {step}"
        if len(seq["moves"]) != expect_len:
            return f"printed length {expect_len} but emitted {len(seq['moves'])} moves"
        return None

    def verdict(self, op, rc, out):
        """None when the first run of ``op`` printed the right answer,
        otherwise the reason it is wrong."""
        c = op["check"]
        lines = out.splitlines()
        head = lines[0] if lines else ""
        kind, expect = c["kind"], c["expect"]
        if kind == "verify":
            if expect == "accept":
                return None if (rc, head) == (0, "Accept") else f"expected Accept, got {rc} {head!r}"
            want = f"Reject step={c['step']} "
            return None if rc == 1 and head.startswith(want) else f"expected {want!r}, got {rc} {head!r}"
        if kind == "stats":
            try:
                got = json.loads(head)
            except ValueError:
                got = None
            return None if rc == 0 and got == expect else f"stats {got} != {expect}"
        if expect == "no":
            return None if (rc, head) == (1, "NO") else f"expected NO, got {rc} {head!r}"
        if (rc, head) != (0, "YES") or len(lines) < 2:
            return f"expected YES, got {rc} {head!r}"
        if kind == "solve":
            length = int(lines[1].split()[1])
            if c["bound_n"] and length > op["n"]:
                return f"sequence length {length} exceeds n = {op['n']}"
        else:
            length = json.loads(lines[1])["distance"]
            if c["distance"] is not None and length != c["distance"]:
                return f"oracle distance {length}, brute force {c['distance']}"
        reason = self._sequence(c, length)
        if reason is None:
            self.lengths[op["id"]] = length
        return reason

    def check(self, op, rc, out):
        if op["id"] not in self.first:
            self.first[op["id"]] = (rc, out)
            try:
                reason = self.verdict(op, rc, out)
            except (ValueError, LookupError, OSError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        else:
            reason = None if self.first[op["id"]] == (rc, out) else "output differs from the first run"
        if reason:
            self.failures.append({"op": op["id"], "argv": op["argv"], "reason": reason})
        return reason is None


# ---------------------------------------------------------------------------
# running operations


class Runner:
    def __init__(self, manifest, inputs, checker, scale, clock, tracer=None):
        import matchflip.cli

        self.cli = matchflip.cli
        self.ops = manifest["ops"]
        self.inputs = inputs
        self.checker = checker
        self.scale = scale
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        # stream -> [(op, seconds, traced, start)]; the window ends by
        # scaling each to reference speed and dropping its start
        self.samples = {k: [] for k in SHARES}
        self.cli_rss_mb = []  # peak RSS of each ``matchflip solve`` process

    def call(self, op, tag, traced=True):
        """One in-process CLI call; returns (seconds, exit code, stdout)."""
        buf, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.op = tag
            if not traced:
                self.tracer.uninstall()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if self.tracer and not traced:
            self.tracer.install()
        return dt, rc, buf.getvalue()

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok

    def first_pass(self):
        for op in self.ops:
            _, rc, out = self.call(op, ("check", op["role"], op["id"]))
            self.record(self.checker.check(op, rc, out))

    def cli_pool(self):
        solves = [op for op in self.ops if op["check"]["kind"] == "solve"]
        answers = [op for op in solves if op["role"] == "answer"]
        return answers or solves

    def cli_call(self, op):
        """A whole ``matchflip solve`` process; its emitted file must match
        the one the checked in-process run wrote.  The process is reaped
        with ``wait4`` so that its own peak RSS is known."""
        c = op["check"]
        emit = os.path.join(self.inputs, c["emit"])
        argv = [a if a != emit else emit + ".cli" for a in op["argv"]]
        out_path, err_path = (os.path.join(self.inputs, f"cli.{s}") for s in ("out", "err"))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "matchflip.cli"] + argv,
                                    stdout=out, stderr=err, env=subprocess_env())
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        ok = (proc.returncode, stdout) == self.checker.first[op["id"]]
        if ok and proc.returncode == 0:
            with open(emit, "rb") as a, open(emit + ".cli", "rb") as b:
                ok = a.read() == b.read()
        if not ok:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            self.checker.failures.append({"op": op["id"], "argv": argv,
                                          "reason": f"subprocess differs: {proc.returncode} {stderr[-300:]!r}"})
        self.cli_rss_mb.append(usage.ru_maxrss / 1024)
        return dt, ok

    def window(self, seconds):
        """Closed loop until ``seconds`` have passed and every stream has its
        minimum sample count; each step runs the stream furthest below its
        share of the elapsed time."""
        pools = {role: [op for op in self.ops if op["role"] == role]
                 for role in ("answer", "verdict", "side", "stats")}
        pools["cli"] = self.cli_pool()
        pools["calib"] = [None]
        pools = {k: v for k, v in pools.items() if v}
        mins = MIN_SAMPLES[self.scale]
        spent = {k: 0.0 for k in pools}
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            short = [k for k in pools if len(self.samples[k]) < mins[k]]
            if elapsed >= seconds and not short:
                break
            if elapsed > seconds + 150:
                raise BenchError(f"streams {short} short of samples after {elapsed:.0f} s")
            candidates = short if elapsed >= seconds else list(pools)
            stream = min(candidates, key=lambda k: spent[k] / SHARES[k])
            pool = pools[stream]
            op = pool[len(self.samples[stream]) % len(pool)]
            start = time.perf_counter()
            if stream == "calib":
                dt = self.clock.sample(1)
                spent[stream] += dt
                self.samples[stream].append((op, dt, False, start))
                continue
            if stream == "cli":
                dt, ok = self.cli_call(op)
                traced = False
            else:
                # in a traced run every other answer runs untraced, for the overhead
                # figure; the pattern flips each cycle so every op runs both ways
                k = len(self.samples[stream])
                traced = stream != "answer" or (k + k // len(pool)) % 2 == 0
                dt, rc, out = self.call(op, ("window", op["role"], op["id"], k), traced)
                ok = self.checker.check(op, rc, out)
            self.record(ok)
            spent[stream] += dt
            self.samples[stream].append((op, dt, traced, start))
        window_s = time.perf_counter() - t0
        self.samples = {k: [(op, dt * self.clock.factor(start, start + dt), traced)
                            for op, dt, traced, start in xs]
                        for k, xs in self.samples.items()}
        return window_s


# ---------------------------------------------------------------------------
# metrics


def build_times(builds, clock):
    """Reference-speed seconds of each set-up build."""
    return [(t1 - t0) * clock.factor(t0, t1) for t0, t1 in builds]


def end_to_end(runner, checker, builds):
    def passes(stream):
        """The stream's samples in whole passes over its pool, so that every
        operation weighs the same whatever the count."""
        xs = runner.samples[stream]
        pool = len({op["id"] for op, _, _ in xs})
        return xs[:len(xs) - len(xs) % pool or None]

    def ms(stream):
        return [dt * 1000 for _, dt, _ in passes(stream)]

    answers = passes("answer")
    yes = [op for op in runner.ops if op["role"] == "answer" and op["id"] in checker.lengths]
    gap = [op for op in runner.ops if op["role"] == "side" and op["check"]["kind"] == "solve"
           and op["id"] in checker.lengths and op["check"]["distance"]]

    def ratio(num, den):  # 0 only when no answer passed its check, so the run is not correct
        return num / den if den else 0.0

    return {
        "answer_ms.p50": statistics.median(ms("answer")),
        "answer_ms.p90": percentile(ms("answer"), 90),
        "nm_per_s": sum(op["n"] + op["m"] for op, _, _ in answers) / sum(dt for _, dt, _ in answers),
        "verdict_ms.p50": statistics.median(ms("verdict")),
        "verdict_ms.p90": percentile(ms("verdict"), 90),
        "stats_ms.p50": statistics.median(ms("stats")),
        "cli_ms.p50": statistics.median(ms("cli")),
        "ok_frac": 1 - runner.failed / runner.attempted,
        "seq_len_per_n": ratio(sum(checker.lengths[op["id"]] for op in yes), sum(op["n"] for op in yes)),
        "opt_gap": ratio(sum(checker.lengths[op["id"]] for op in gap),
                         sum(op["check"]["distance"] for op in gap)),
        "peak_rss_mb": statistics.median(runner.cli_rss_mb),
        "setup_s": statistics.median(build_times(builds, runner.clock)),
    }


def import_ms(clock):
    """Reference-speed time of ``import matchflip.cli`` in a fresh
    interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import matchflip.cli; "
            "print(t, time.perf_counter())")
    spans = []
    for _ in range(IMPORT_SAMPLES):
        clock.sample(2)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), timeout=SUBPROCESS_TIMEOUT, check=True)
        spans.append(tuple(map(float, proc.stdout.split())))
    clock.sample(2)
    return statistics.median((t1 - t0) * 1000 * clock.factor(t0, t1) for t0, t1 in spans)


# per-layer time metric -> spans whose self time it sums per operation
LAYER_SPANS = {
    "io.load_instance_ms": ("io.load_instance",),
    "io.load_sequence_ms": ("io.load_sequence",),
    "io.emit_ms": ("io.sequence_to_dict", "io.dump_json"),
    "graph.verify_sequence_ms": ("graph.verify_sequence",),
    "strongly_orderable.verify_strong_ordering_ms": ("strongly_orderable.verify_strong_ordering",),
    "strongly_orderable.solve_ms": ("strongly_orderable.solve",),
    "outerplanar.is_outerplanar_ms": ("outerplanar.is_outerplanar",),
    "outerplanar.verify_boundary_order_ms": ("outerplanar.verify_boundary_order",),
    "outerplanar.solve_ms": ("outerplanar.solve",),
    "cograph.is_cograph_ms": ("cograph.is_cograph",),
    "cograph.solve_ms": ("cograph.solve",),
    "oracle.reachable_ms": ("oracle.reachable",),
    "oracle.reconfiguration_stats_ms": ("oracle.reconfiguration_stats",),
    "cli.main_ms": ("cli.main",),
}
SETUP_SPANS = {
    "hardness.reduce_ncl_to_pmr_ms": "hardness.reduce_ncl_to_pmr",
    "hardness.subdivide_for_kflip_ms": "hardness.subdivide_for_kflip",
    "hardness.configuration_components_ms": "hardness.configuration_components",
    "generators.interval_instance_ms": "generators.interval_instance",
    "generators.outerplanar_instance_ms": "generators.outerplanar_instance",
    "generators.cograph_instance_ms": "generators.cograph_instance",
}


def per_layer(runner, tracer, manifest, builds):
    from spans import TARGETS, TraceError

    missing = set(TARGETS) - tracer.fired()
    setup_names = {span[0] for span in manifest["setup_spans"]}
    missing |= set(SETUP_SPANS.values()) - setup_names
    if missing:
        raise TraceError(f"spans expected on workload {manifest['workload']} never fired: {sorted(missing)}")
    clock = runner.clock
    selfs = [st * clock.factor(span[1], span[2]) for span, st in zip(tracer.spans, tracer.self_times())]
    # (metric, workload's own load or side mix, op run) -> summed self time
    per_op = {}
    counts = {}
    verify = {True: [0.0, 0], False: [0.0, 0]}  # own load? -> [seconds, moves]
    for span, st in zip(tracer.spans, selfs):
        name, tag, count = span[0], span[4], span[5]
        own = tag[1] != "side"
        for metric, names in LAYER_SPANS.items():
            if name in names:
                key = (metric, own, tag)
                per_op[key] = per_op.get(key, 0.0) + st
        if name == "graph.verify_sequence":
            verify[own][0] += st
            verify[own][1] += count
        if tag[0] == "check" and count is not None:  # counts: one run per distinct op
            if isinstance(count, dict):
                for k, v in count.items():
                    counts[f"{name}.{k}"] = counts.get(f"{name}.{k}", 0) + v
            else:
                counts[name] = counts.get(name, 0) + count
    # A layer is timed on the workload's own load (answers, verdicts, stats);
    # only a layer that just the side mix reaches is timed there.
    out = {}
    for metric in LAYER_SPANS:
        for own in (True, False):
            xs = [v for (m, o, _), v in per_op.items() if m == metric and o == own]
            if xs:
                out[metric] = statistics.median(xs) * 1000
                break
    setup = {}  # spans of the first build, whose manifest the run uses
    setup_scale = clock.factor(*builds[0])
    for name, dt, part in manifest["setup_spans"]:
        setup.setdefault((name, part), []).append(dt)
    for metric, name in SETUP_SPANS.items():
        out[metric] = statistics.median(setup.get((name, "main")) or setup[name, "side"]) * 1000 * setup_scale
    out["io.bytes_in"] = counts.get("io.load_instance", 0) + counts.get("io.load_sequence", 0)
    out["graph.verify_moves"] = counts.get("graph.verify_sequence", 0)
    seconds, moves = verify[True] if verify[True][1] else verify[False]
    out["graph.verify_us_per_move"] = seconds / moves * 1e6
    for kind in OUTERPLANAR_STEPS:
        out[f"outerplanar.trace_steps.{kind}"] = counts.get(f"outerplanar.solve.{kind}", 0)
    out["oracle.stats_nodes"] = counts.get("oracle.reconfiguration_stats", 0)
    out["oracle.distance_sum"] = counts.get("oracle.reachable", 0)
    out["cli.import_ms"] = import_ms(clock)
    traced = [dt for _, dt, t in runner.samples["answer"] if t]
    plain = [dt for _, dt, t in runner.samples["answer"] if not t]
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return out


# ---------------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):  # never look above the checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not os.path.isfile(os.path.join(SRC, "matchflip", "cli.py")):
        raise BenchError(f"no matchflip sources under {SRC}; run from a full checkout")
    units = declared_metrics(args.trace)
    sys.path.insert(0, SRC)
    base = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    failed = True
    try:
        clock = calib.Clock()
        builds, manifest, inputs = setup(args.workload, args.seed, args.scale, base, clock)
        window_from = time.perf_counter()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        checker = Checker(inputs)
        runner = Runner(manifest, inputs, checker, args.scale, clock, tracer)
        try:
            runner.first_pass()
            # Keep the harness's own heap (manifest, check caches) out of the
            # collections that the measured calls trigger: a CLI process has
            # only matchflip's objects to scan.
            gc.collect()
            gc.freeze()
            window_s = runner.window(args.seconds)
        finally:
            if tracer:
                tracer.uninstall()
        if args.trace:
            metrics = per_layer(runner, tracer, manifest, builds)
            trace_path = os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        else:
            metrics = end_to_end(runner, checker, builds)
            trace_path = None
        failed = runner.failed > 0
    finally:
        if not failed:
            shutil.rmtree(base, ignore_errors=True)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "input_sha256": manifest["input_sha256"], "commit": commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds, "window_s": window_s, "setup_runs_s": [t1 - t0 for t0, t1 in builds],
        "calib_ms": {"set-up": clock.median_ms(until=window_from), "window": clock.median_ms(since=window_from),
                     "reference": calib.REFERENCE_MS},
        "samples": {k: len(v) for k, v in runner.samples.items()},
        "distinct_ops": {role: sum(op["role"] == role for op in runner.ops)
                         for role in ("answer", "verdict", "side", "stats")},
        "failures": checker.failures, "span_errors": dict(tracer.errors) if tracer else None,
        "cli_rss_mb": runner.cli_rss_mb, "inputs_kept": base if failed else None, "trace_file": trace_path,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for f in checker.failures:
        print(f"FAILED {f['op']}: {f['reason']} ({' '.join(f['argv'])})", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description="matchflip benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=("interval", "outerplanar", "cograph", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(MIN_SAMPLES), default="full",
                   help="input sizes; 'smoke' is the seconds-long self-check")
    args = p.parse_args(argv)
    try:
        return run(args)
    except Exception as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
