"""Benchmark for the sws pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload tied-train --seed 1 --seconds 30 --trace 0

One process per run. Set-up is timed in fresh child processes (interpreter
start, ``import sws``, fixtures from the seed), then this process runs the
workload's command through ``sws.cli.main(argv)`` again and again, one at a
time, for ``--seconds``, and checks every output. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs the command twice
untraced (warm-up, then the baseline for the tracing overhead), installs the
tracer and prints the per-layer metrics. The last line of stdout is the
result as JSON; the lines before it record the environment (``env``) and the
raw per-command figures (``detail``).

Exit status: 0 when a result was printed, 2 for a bad invocation or a
checkout without ``src/sws``, 1 when set-up failed.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3

# (name, unit): printed with --trace 0, in this order.
END_TO_END = (("samples_per_s", "samples/s"), ("step_ms_p50", "ms"), ("step_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SetupError(RuntimeError):
    pass


@dataclass
class Command:
    rc: int
    seconds: float
    stderr: str
    out: Path
    problems: list[str] = field(default_factory=list)


def run_command(argv: list[str], out: Path, tracer: tracing.Tracer | None = None) -> Command:
    """One call of sws.cli.main; its own output is captured, not printed."""
    from sws import cli
    captured_out, captured_err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
        try:
            rc = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
        except SystemExit as e:  # argparse rejected the arguments
            rc = e.code if isinstance(e.code, int) else 2
    return Command(rc, time.perf_counter() - t0, captured_err.getvalue(), out)


def check_commands(wl: workloads.Workload, fixtures: Path, commands: list[Command]) -> dict[str, str] | None:
    """Fill in each command's problems; return the digests of the first good output."""
    reference = None
    for cmd in commands:
        if cmd.rc != 0:
            cmd.problems.append(f"exit {cmd.rc}: {cmd.stderr.strip()[-300:]}")
            continue
        try:
            cmd.problems += wl.check(cmd.out)
            digests = wl.digests(cmd.out)
            if reference is None:
                cmd.problems += wl.deep_check(fixtures, cmd.out)
                reference = digests
            elif digests != reference:
                cmd.problems.append("outputs differ from the first command's with the same seed")
        except Exception as e:  # any output the checks cannot read is a failed operation
            cmd.problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return reference


class StepClock:
    """Step latencies for step_ms_*, with at most one hook into the program.

    On ``adamw`` workloads it reads the clock once when each ``AdamW.step``
    returns and keeps the intervals between steps of one epoch (an epoch's
    first interval also holds the evaluation and the shuffle). On ``forward``
    workloads it times each ``forward_logits`` batch. On ``command``
    workloads a step is the whole command and nothing is hooked.
    """

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.ms: list[float] = []
        self._stamps: list[tuple[int, float]] = []
        self._undo = None

    def install(self) -> None:
        import sws.train as train
        if self.wl.step == "adamw":
            orig = train.AdamW.step
            stamps = self._stamps

            def step(opt, lr):
                orig(opt, lr)
                stamps.append((opt.step_count, time.perf_counter()))
            train.AdamW.step = step
            self._undo = (train.AdamW, "step", orig)
        elif self.wl.step == "forward":
            orig = train.forward_logits
            ms = self.ms

            def forward_logits(params, images):
                t0 = time.perf_counter()
                out = orig(params, images)
                ms.append((time.perf_counter() - t0) * 1e3)
                return out
            train.forward_logits = forward_logits
            self._undo = (train, "forward_logits", orig)

    def uninstall(self) -> None:
        if self._undo is not None:
            setattr(*self._undo)
            self._undo = None

    def end_command(self, seconds: float) -> None:
        if self.wl.step == "command":
            self.ms.append(seconds * 1e3)
        per_epoch = getattr(self.wl, "steps_per_epoch", 0)
        for (_, prev), (k, now) in zip(self._stamps, self._stamps[1:]):
            if (k - 1) % per_epoch:
                self.ms.append((now - prev) * 1e3)
        self._stamps.clear()


def probe_setup(name: str, seed: int, root: Path, probes: int) -> list[dict]:
    """Time set-up in fresh processes: interpreter start to fixtures on disk."""
    records = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(root)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SetupError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        records.append({**json.loads(line[len("ready "):]), "setup_s": ready})
    return records


def import_sws() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sws.cli  # noqa: F401


def measure(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
            spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result line plus details."""
    wl = workloads.make(name, seed)
    root = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        setup = probe_setup(name, seed, root / "fixtures", probes)
        import_sws()
        fixtures = root / "fixtures"
        commands: list[Command] = []

        def submit(tracer=None) -> Command:
            out = root / f"out-{len(commands)}"
            cmd = run_command(wl.argv(fixtures, out), out, tracer)
            commands.append(cmd)
            return cmd

        start = time.perf_counter()
        if trace:
            submit()  # warm-up
            baseline = submit().seconds
            tracer = tracing.Tracer(workloads.model_shapes(wl.model))
            tracer.install()
            try:
                traced = []
                while not traced or time.perf_counter() - start < seconds:
                    traced.append(submit(tracer).seconds)
            finally:
                tracer.uninstall()
        else:
            clock = StepClock(wl)
            clock.install()
            try:
                while not commands or time.perf_counter() - start < seconds:
                    clock.end_command(submit().seconds)
            finally:
                clock.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        digests = check_commands(wl, fixtures, commands)
        failed = sum(1 for c in commands if c.problems)
        setup_s = statistics.median(r["setup_s"] for r in setup)
        setup_parts = {"import_s": statistics.median(r["import_s"] for r in setup),
                       "fixtures_s": statistics.median(r["fixtures_s"] for r in setup)}
        detail = {"commands": len(commands), "command_s": [c.seconds for c in commands],
                  "setup_probe_s": [r["setup_s"] for r in setup],
                  "digests": digests, "problems": [c.problems for c in commands if c.problems]}
        if trace:
            overhead = statistics.median(traced) / baseline
            metrics = tracer.metrics(len(traced), setup_parts, overhead)
            own = tracer.self_times()
            detail.update({"traced_commands": len(traced), "traced_wall_s": sum(traced),
                           "baseline_s": baseline, "self_sum_s": sum(own.values()), "spans": len(tracer.names)})
            if spans_path is not None:
                tracer.save(spans_path)
            units = {n: u for n, u, _ in tracing.PER_LAYER}
        else:
            step_ms = clock.ms
            metrics = {
                "samples_per_s": statistics.median(wl.samples / c.seconds for c in commands),
                "step_ms_p50": float(np.percentile(step_ms, 50)) if step_ms else 0.0,
                "step_ms_p90": float(np.percentile(step_ms, 90)) if step_ms else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            detail.update({"step_samples": len(step_ms), "step_kind": wl.step,
                           "samples_per_command": wl.samples})
            units = dict(END_TO_END)
        result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        return {"result": result, "detail": detail, "env": environment(wl)}
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---- environment record ----------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(wl: workloads.Workload) -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "workload": wl.name, "seed": wl.seed, "git_commit": git_commit(), "inputs": wl.sizes()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the sws CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sws" / "__init__.py").is_file():
        print(f"error: no sws package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.npz" if args.trace else None
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    env = run["env"]
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"warning: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs", file=sys.stderr)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(run["detail"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
