"""Benchmark of the crossflat CLI: end-to-end sweep timing and per-layer traces.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a fixed list of configs generated from the seed
(perfbench/workloads.py).  The benchmark drives the CLI as a user does: one
`python -m crossflat --config ... --out <temp dir> --threads 1` subprocess per
config, in sequence, a closed loop with one client.  The benchmark and its
children share one core.

--trace 0  runs every config once, then keeps cycling through the configs
           that still fit in --seconds, and reports
             wall_s       sum over configs of the median wall time per config
             cpu_s        the same for user plus system CPU time of the child
             peak_rss_mb  the highest peak RSS of any config subprocess
             setup_s      median time of the `--check` calls made after each
                          run: interpreter start, import and config validation
           The times are scaled to a nominal host speed by reference samples
           taken while each child is briefly stopped (see
           REFERENCE_NOMINAL_S); the raw times are printed and kept in the
           report.
--trace 1  runs every config once untraced and once under
           perfbench/traced_cli.py, which wraps each layer's public functions,
           and reports the per-layer metrics of perfbench/tracing.py.  These
           children are never stopped, so the spans' clocks see no stops;
           their times are scaled by one reference sample taken after each.
           The traced outputs must be byte-identical to the untraced ones.

Every output is checked by perfbench/oracles.py; a config run fails if it
exits nonzero, if its summary says passed: false, if the oracle disagrees or
if it differs from the first run of the same config.  The last line of
standard output is the JSON result; the lines before it give the machine
fingerprint, fail_rate and per-config figures.  Outputs go to a temporary
directory under .perfbench_out/, which is removed at exit; the full report
stays in .perfbench_out/report-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_SETUP_CALLS = 5
OUTPUT_SUFFIXES = (".csv", "_summary.json")

# The host-speed reference.  On a shared host a core's throughput swings by
# half within seconds, for Python and numpy work alike, while the ratio
# between two fixed pieces of work run side by side on the same core stays
# within a few percent.  So the benchmark and its children share one core,
# and every REFERENCE_PERIOD_S of a child's running time the child is stopped
# while this process times one reference_work call.  A child's times leave
# out the stops and are scaled by REFERENCE_NOMINAL_S over the mean of the
# samples taken during it: seconds on a host that runs the reference in
# REFERENCE_NOMINAL_S.  The raw times are kept in the report.
REFERENCE_NOMINAL_S = 0.0125
REFERENCE_PERIOD_S = 0.1
_REFERENCE_X = np.linspace(-1.0, 1.0, 4096).astype(np.longdouble)
_REFERENCE_F = np.cos(np.arange(4096) * 0.37)


def fingerprint() -> dict:
    """What the numbers depend on: the recurrence runs in 80-bit longdouble
    where the platform has it, so figures from different fingerprints are not
    comparable."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def reference_work() -> float:
    """A fixed mix of what the CLI's children spend their time on: a
    pure-Python loop, a three-term recurrence in longdouble and FFTs."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    a, b = np.ones_like(_REFERENCE_X), _REFERENCE_X.copy()
    for n in range(2, 41):
        a, b = b, ((2 * n - 1) * _REFERENCE_X * b - (n - 1) * a) / n
    f = _REFERENCE_F
    for _ in range(20):
        f = np.fft.ifft(np.fft.fft(f) * 0.5).real
    return total + float(b[7]) + float(f[3])


def reference_sample() -> float:
    """Wall seconds of one reference_work call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


@dataclass
class Execution:
    config: str
    out_dir: Path
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    traced: bool
    raw_wall_s: float
    raw_cpu_s: float
    problems: list[str] = field(default_factory=list)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    samples: list[float]

    @property
    def scale(self) -> float:
        """The factor to nominal host speed."""
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)


def run_child(argv: list[str], log_path: Path, sample: bool = True) -> Child:
    """Run one subprocess to completion.  With sample, the child is stopped
    every REFERENCE_PERIOD_S while one reference sample is taken; its wall
    time leaves the stops out.  One more sample follows the child, so every
    call has at least one."""
    samples = []
    stopped = 0.0
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            exited = select.poll()
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited.register(pidfd, select.POLLIN)
                while True:
                    if exited.poll(REFERENCE_PERIOD_S * 1000 if sample else None):
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    pause = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break
                    samples.append(reference_sample())
                    os.kill(proc.pid, signal.SIGCONT)
                    stopped += time.perf_counter() - pause
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - stopped
    proc.returncode = os.waitstatus_to_exitcode(status)
    samples.append(reference_sample())
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, samples)


class Runner:
    """Runs configs of one workload inside a scratch directory."""

    def __init__(self, configs: list[tuple[str, dict]], scratch: Path) -> None:
        self.configs = dict(configs)
        self.scratch = scratch
        self.paths = {}
        for name, config in configs:
            path = scratch / "configs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(workloads.dump(config))
            self.paths[name] = path
        self.executions: list[Execution] = []
        self.reference: dict[str, Path] = {}
        self._count = 0

    def outputs(self, name: str, out_dir: Path) -> list[bytes | None]:
        """The bytes of a run's CSV and summary files."""
        slug = self.configs[name]["command"].replace("-", "_")
        files = [out_dir / f"{slug}{suffix}" for suffix in OUTPUT_SUFFIXES]
        return [f.read_bytes() if f.exists() else None for f in files]

    def execute(self, name: str, traced: bool = False, sample: bool = True) -> Execution:
        self._count += 1
        out_dir = self.scratch / "out" / f"{self._count:04d}-{name}"
        argv = [sys.executable]
        if traced:
            argv += [str(HERE / "traced_cli.py"), "--spans", str(out_dir / "spans.json")]
        else:
            argv += ["-m", "crossflat"]
        argv += ["--config", str(self.paths[name]), "--out", str(out_dir), "--threads", "1"]
        out_dir.mkdir(parents=True)
        child = run_child(argv, out_dir / "log.txt", sample)
        run = Execution(
            name, out_dir, child.wall_s * child.scale, child.cpu_s * child.scale, child.rss_mb, child.code, traced,
            child.wall_s, child.cpu_s,
        )
        if child.code != 0:
            run.problems.append(f"exit code {child.code}: {(out_dir / 'log.txt').read_text()[-300:].strip()}")
        if name not in self.reference:
            self.reference[name] = out_dir
            run.problems += oracles.check(self.configs[name], out_dir)
        elif self.outputs(name, out_dir) != self.outputs(name, self.reference[name]):
            run.problems.append(f"{'traced ' if traced else ''}outputs differ from the first run of this config")
        self.executions.append(run)
        return run

    def check_time(self, name: str) -> float:
        """Wall time of one `--check` call: interpreter start, import and
        config validation, which every CLI call pays."""
        argv = [sys.executable, "-m", "crossflat", "--config", str(self.paths[name]), "--check"]
        child = run_child(argv, self.scratch / "check.log")
        if child.code != 0:
            raise RuntimeError(f"--check rejected {name}: {(self.scratch / 'check.log').read_text()}")
        return child.wall_s * child.scale

    def measure(self, seconds: float) -> list[float]:
        """Every config once, then cycle through those whose median time
        still fits before the deadline.  A `--check` call follows each run,
        so set-up samples spread over the whole measurement; returns their
        times.  One untimed call first warms the file cache and bytecode."""
        names = list(self.configs)
        self.check_time(names[0])
        setup = []
        deadline = time.perf_counter() + seconds
        for name in names:
            self.execute(name)
            setup.append(self.check_time(name))
        while True:
            ran = False
            for name in names:
                if time.perf_counter() + self.median(name, "raw_wall_s") <= deadline:
                    self.execute(name)
                    setup.append(self.check_time(name))
                    ran = True
            if not ran:
                break
        while len(setup) < MIN_SETUP_CALLS:
            setup.append(self.check_time(names[len(setup) % len(names)]))
        return setup

    def median(self, name: str, attr: str) -> float:
        """Median over the untraced runs of one config."""
        runs = [r for r in self.executions if r.config == name and not r.traced]
        return statistics.median(getattr(r, attr) for r in runs)


def _problems(runner: Runner) -> list[str]:
    return [f"{r.config}: {p}" for r in runner.executions for p in r.problems]


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setup = runner.measure(seconds)
    names = list(runner.configs)
    return {
        "wall_s": sum(runner.median(n, "wall_s") for n in names),
        "cpu_s": sum(runner.median(n, "cpu_s") for n in names),
        "peak_rss_mb": max(r.rss_mb for r in runner.executions),
        "setup_s": statistics.median(setup),
    }


def per_layer(runner: Runner, report: dict) -> dict[str, float]:
    names = list(runner.configs)
    # Unstopped children, since the spans' clocks would count the stops.
    plain = {n: runner.execute(n, sample=False) for n in names}
    # execute() compares each traced output with the untraced one byte by byte
    traced = {n: runner.execute(n, traced=True, sample=False) for n in names}
    traces = {}
    for name, run in traced.items():
        spans_path = run.out_dir / "spans.json"
        if spans_path.exists():
            traces[name] = json.loads(spans_path.read_text())
        else:
            run.problems.append("traced run wrote no spans")
    metrics = tracing.layer_metrics(list(traces.values()))
    metrics["cli.bytes_written"] = sum(
        len(b or b"") for n in names for b in runner.outputs(n, plain[n].out_dir)
    )
    metrics["trace.overhead_s"] = sum(traced[n].wall_s for n in names) - sum(plain[n].wall_s for n in names)
    for name in names:
        metrics[f"cli.config.{name}_s"] = plain[name].wall_s
    report["per_config_layers"] = {n: tracing.layer_metrics([t]) for n, t in traces.items()}
    report["self_profile"] = {n: tracing.self_profile(t) for n, t in traces.items()}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crossflat CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossflat" / "cli.py").is_file():
        print(f"no crossflat sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # One core for this process and every child, so that the reference
    # samples measure the core the CLI runs on (the CLI runs --threads 1).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        runner = Runner(workloads.generate(args.workload, args.seed), scratch)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "fingerprint": fingerprint()}
        if args.trace:
            metrics = per_layer(runner, report)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = _problems(runner)
    attempted = len(runner.executions)
    failed = sum(1 for r in runner.executions if r.problems)
    report.update(
        {
            "configs": runner.configs,
            "executions": [
                {k: v for k, v in vars(r).items() if k != "out_dir"} for r in runner.executions
            ],
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "problems": problems,
            "metrics": metrics,
        }
    )
    report_path = OUT_ROOT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    print("fingerprint:", json.dumps(report["fingerprint"], sort_keys=True))
    for name in runner.configs:
        runs = [r for r in runner.executions if r.config == name and not r.traced]
        print(
            f"{name}: untraced runs {len(runs)}, median wall {runner.median(name, 'wall_s'):.3f} s, "
            f"cpu {runner.median(name, 'cpu_s'):.3f} s, peak rss {max(r.rss_mb for r in runs):.1f} MB "
            f"(raw wall {runner.median(name, 'raw_wall_s'):.3f} s, raw cpu {runner.median(name, 'raw_cpu_s'):.3f} s)"
        )
    for name, top in report.get("self_profile", {}).items():
        print(f"{name} largest self times:", ", ".join(f"{f} {t:.3f} s" for f, t in top))
    if args.trace:
        print("layer metrics:", json.dumps(metrics, sort_keys=True))
    print(f"fail_rate: {failed / attempted:.4f} (share of config runs that failed: {failed} of {attempted})")
    for line in problems[:20]:
        print("problem:", line)
    print("report:", report_path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
