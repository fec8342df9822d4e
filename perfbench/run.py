"""catgate benchmark: end-to-end CLI workloads and their per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a catgate checkout; it runs the package from
./src, so nothing needs installing. A workload is a fixed list of
`catgate <subcommand>` invocations (see workloads.py). Each invocation is a
fresh interpreter, and they run one after another: a closed loop with one
client. One pass over the list, in an order drawn from the seed, is a round;
rounds repeat until S seconds have passed. Every output is checked
(checks.py).

--trace 0 reports the end-to-end metrics: wall_s (one round, median over
rounds), setup_s (interpreter start plus `import catgate.cli`, median of
probes taken a few before each round, so that they see the same drift of
host speed as the rounds) and peak_rss_mb (largest child of a round, median over
rounds). --trace 1 alternates untraced rounds with rounds whose children
run under tracing.py, and reports the per-layer split. The last line of
standard output is one JSON object; a results file with the environment and
every round goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import LAYER_EFFECTS, WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES_PER_ROUND = 4
MIN_ROUNDS = 2
INVOCATION_TIMEOUT = 120.0
# One BLAS thread, within the cap of nproc: on these matrix-vector sizes a
# second OpenBLAS thread only spins. On a 2-CPU Xeon VM (NumPy 2.4, OpenBLAS
# 0.3.31) it doubled the CPU time of mixed-fidelity at equal wall time and
# took the other CPU away from the measured process.
BLAS_THREADS = 1
SETUP_CODE = "import catgate.cli"
# The console script's body, plus a report of the process's own peak resident
# set. VmHWM starts afresh at exec; the parent's rusage maxrss would not,
# since a vforked child inherits the parent's high-water mark.
CLI_CODE = """\
import os, sys
try:
    from catgate.cli import main
    status = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as f, open(os.environ["PERFBENCH_PEAK"], "w") as out:
        out.write(next(line for line in f if line.startswith("VmHWM:")))
sys.exit(status)
"""

FUNCTIONS = {
    "metrics": ("mixed_fidelity", "window_probability", "outcome_density",
                "fidelity_cat_scan", "fidelity_scl_scan"),
    "numerics": ("series_exp", "series_mul", "eval_hermite_fn", "integration_weights"),
}
LAYERS = ("metrics", "numerics", "wigner", "phase_map", "gate", "states")
COUNTS = (
    "metrics.adaptive.evaluated_nodes",
    "numerics.series.coeff_ops",
    "numerics.eval_hermite_fn.points",
    "wigner.mehler.grid_points",
    "wigner.quadrature.corr_bytes",
    "phase_map.map_point.calls",
    "gate.taylor_phase.calls",
    "states.coherent_wavefunction.calls",
)
# Every metric's unit, as BENCHMARK.json states it.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class Outcome:
    """One finished child process."""

    wall: float
    exit_code: int
    stdout: Path
    stderr: Path
    peak_kb: int = 0


@dataclass
class Round:
    order: list[int]
    traced: bool
    wall: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)  # pass, known, fail
    problems: dict[int, list[str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # traced rounds only
    handler_self: float = 0.0  # self time of every span under cli.main


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path) -> Outcome:
    """Run one child to completion; wall time spans fork to reap.

    The wait blocks: Popen.wait(timeout=...) polls with sleeps of up to
    50 ms, which would round every time up to that grid. A timer thread
    enforces the timeout instead.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return Outcome(wall, proc.returncode, stdout, stderr)


def read_peak_kb(path: Path) -> int:
    """The child's VmHWM line, in kB; 0 when the child did not write it."""
    try:
        text = path.read_text()
        path.unlink()
    except FileNotFoundError:
        return 0
    return int(text.split()[1])


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        if not (self.src / "catgate" / "cli.py").is_file():
            raise SetupError(f"no catgate sources under {self.src}; run from a catgate checkout")
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.env = child_env(self.src)
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self._verdicts: dict[tuple, list[str]] = {}
        self._check_import_location()

    def _file(self, name: str) -> Path:
        return self.out / name

    def _check_import_location(self) -> None:
        probe = spawn(
            [sys.executable, "-c", "import catgate.cli, sys; sys.stdout.write(catgate.cli.__file__)"],
            self.env, self.root, self._file("probe.out"), self._file("probe.err"),
        )
        where = self._file("probe.out").read_text()
        expected = self.src / "catgate" / "cli.py"
        if probe.exit_code != 0 or Path(where).resolve() != expected.resolve():
            raise SetupError(f"catgate.cli imports from {where!r}, not {expected}")

    def setup_probe(self) -> float:
        """Wall time of interpreter start plus `import catgate.cli`, no work."""
        o = spawn([sys.executable, "-c", SETUP_CODE], self.env, self.root,
                  self._file("setup.out"), self._file("setup.err"))
        if o.exit_code != 0:
            raise SetupError(f"`{SETUP_CODE}` failed: {o.stderr.read_text()[-500:]}")
        return o.wall

    def command(self, index: int, inv: Invocation, traced: bool) -> list[str]:
        if traced:
            spans = str(self._file(f"inv-{index}.spans.json"))
            return [sys.executable, str(HERE / "tracing.py"), spans, str(index), "--", *inv.argv]
        return [sys.executable, "-c", CLI_CODE, *inv.argv]

    def run_round(self, traced: bool) -> Round:
        invocations = self.workload.invocations
        rnd = Round(self.rng.sample(range(len(invocations)), len(invocations)), traced)
        envs = [dict(self.env, PERFBENCH_PEAK=str(self._file(f"inv-{i}.peak")))
                for i in range(len(invocations))]
        outcomes = {}
        start = time.perf_counter()
        for i in rnd.order:
            outcomes[i] = spawn(self.command(i, invocations[i], traced), envs[i], self.root,
                                self._file(f"inv-{i}.out"), self._file(f"inv-{i}.err"))
        rnd.wall = time.perf_counter() - start
        rnd.outcomes = [outcomes[i] for i in range(len(invocations))]
        for i, o in enumerate(rnd.outcomes):
            o.peak_kb = read_peak_kb(self._file(f"inv-{i}.peak"))
        for i, (inv, o) in enumerate(zip(invocations, rnd.outcomes)):
            problems = self.check(inv, o)
            if problems:
                rnd.problems[i] = problems + [o.stderr.read_text(errors="replace")[-300:]]
            rnd.verdicts.append("pass" if not problems else "known" if inv.is_known(problems)
                                else "fail")
        if traced:
            rnd.layers, rnd.handler_self = self.layer_split(rnd)
        return rnd

    def check(self, inv: Invocation, o: Outcome) -> list[str]:
        """Check one outcome; byte-identical output of the same invocation and
        exit status gets the verdict already reached for it."""
        text = o.stdout.read_bytes()
        key = (inv.key, o.exit_code, hashlib.sha256(text).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = checks.check(inv.argv, inv.exits, o.exit_code, text,
                                               self.reference.get(inv.key))
        return self._verdicts[key]

    def layer_split(self, rnd: Round) -> tuple[dict[str, float], float]:
        """Per-layer metrics of one traced round (self times summed over its
        invocations, and the work counts) and its handler self time."""
        selfs: dict[str, float] = {}
        counts: dict[str, float] = {}
        imports = []
        for i, o in enumerate(rnd.outcomes):
            path = self._file(f"inv-{i}.spans.json")
            if not path.exists():
                continue  # the child died; its check has failed already
            record = json.loads(path.read_text())
            path.unlink()
            for name, t in tracing.self_times(record).items():
                selfs[name] = selfs.get(name, 0.0) + t
            for name, c in record["counts"].items():
                counts[name] = counts.get(name, 0) + c
            names = record["names"]
            imports += [s[2] - s[1] for s in record["spans"] if names[s[0]] == tracing.IMPORT]
        layer_self = {layer: 0.0 for layer in (*LAYERS, "cli")}
        for name, t in selfs.items():
            if tracing.layer_of(name) in layer_self:
                layer_self[tracing.layer_of(name)] += t
        m = {
            "import.s": statistics.median(imports) if imports else 0.0,
            "cli.parse_s": selfs.get("cli.main", 0.0),
            "cli.run_self_s": selfs.get("cli.run", 0.0),
            "cli.bytes_out": sum(o.stdout.stat().st_size for o in rnd.outcomes),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            for fn in FUNCTIONS.get(layer, ()):
                m[f"{layer}.{fn}.calls"] = counts.get(f"{layer}.{fn}.calls", 0)
                m[f"{layer}.{fn}.self_s"] = selfs.get(f"{layer}.{fn}", 0.0)
        evaluated = counts.get("metrics.adaptive.evaluated_nodes", 0)
        final = counts.get("metrics.adaptive.final_nodes", 0)
        m["metrics.adaptive.useful_ratio"] = final / evaluated if evaluated else 0.0
        for name in COUNTS:
            m[name] = counts.get(name, 0)
        return m, sum(layer_self.values())


def environment(root: Path) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        revision = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "catgate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def summary(values: list[float]) -> dict:
    """Median, upper quartile and sample count; needs two values or more."""
    return {"median": statistics.median(values),
            "q3": statistics.quantiles(values, n=4)[2], "n": len(values)}


def purpose_shares(layers: dict, handler_self: float) -> dict:
    """Shares of handler self time that state what each workload is for."""
    total = handler_self or 1.0
    cli = layers["cli.parse_s"] + layers["cli.run_self_s"]
    return {
        "cli+phase_map": (cli + layers["phase_map.self_s"]) / total,
        "cli.run_self": layers["cli.run_self_s"] / total,
        "metrics+numerics+gate+states": sum(
            layers[f"{k}.self_s"] for k in ("metrics", "numerics", "gate", "states")
        ) / total,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(Path.cwd(), args.workload, args.seed)
        if not args.trace:
            bench.setup_probe()  # warms the file cache; not kept
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rounds: list[Round] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        if args.trace:
            rounds.append(bench.run_round(traced=len(rounds) % 2 == 1))
            done = sum(r.traced for r in rounds) >= MIN_ROUNDS
        else:
            setup += [bench.setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
            rounds.append(bench.run_round(traced=False))
            done = len(rounds) >= MIN_ROUNDS
        if done and time.perf_counter() - start >= args.seconds:
            break

    invocations = bench.workload.invocations
    verdicts = [v for r in rounds for v in r.verdicts]
    attempted = len(verdicts)
    failed = verdicts.count("fail")
    known = verdicts.count("known")
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    problems = sorted({f"{invocations[i].key}: {p}" for r in rounds
                       for i, ps in r.problems.items() for p in ps[:1]})
    correct = failed == 0

    wall = summary([r.wall for r in plain])
    rss = summary([max(o.peak_kb for o in r.outcomes) / 1024.0 for r in plain])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced + {len(traced)} traced rounds of {len(invocations)} "
          "invocations, closed loop, one client")
    print(f"  wall_s       {wall['median']:.4f} s   (median of {wall['n']} rounds, upper quartile {wall['q3']:.4f})")
    if setup:
        s = summary(setup)
        print(f"  setup_s      {s['median']:.4f} s   (median of {s['n']} probes, upper quartile {s['q3']:.4f})")
    print(f"  peak_rss_mb  {rss['median']:.1f} MB  (median of {rss['n']} rounds, upper quartile {rss['q3']:.1f})")
    print(f"  failed_frac  {(failed + known) / attempted:.4f} ratio  ({failed + known} of "
          f"{attempted} invocations failed their check; {known} are known defects)")
    for inv in invocations:
        if inv.known_defect:
            print(f"  known defect: catgate {inv.key}: {inv.known_defect}")
    for p in problems:
        print(f"  check: {p}")

    if args.trace:
        # Work counts, bytes written and their ratios must repeat exactly.
        exact = [k for k in traced[0].layers if UNITS[k] != "s"]
        counts_exact = all(r.layers[k] == traced[0].layers[k] for r in traced for k in exact)
        if not counts_exact:
            print("  check: work counts differ between traced rounds")
        correct = correct and counts_exact
        layers = {k: v if k in exact else statistics.median(r.layers[k] for r in traced)
                  for k, v in traced[0].layers.items()}
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - wall["median"])
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        shares = purpose_shares(layers, statistics.median(r.handler_self for r in traced))
        for k, v in layers.items():
            print(f"  {k:38s} {v!r} {UNITS[k]}")
        print("  handler self-time shares: "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"  exact counts repeat across {len(traced)} traced rounds: {counts_exact}")
    else:
        shares = {}
        metrics = {
            "wall_s": {"value": wall["median"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss["median"], "unit": "MB"},
        }

    results = bench.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({
        "environment": environment(bench.root),
        "workload": args.workload,
        "why": bench.workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "layer_effects": LAYER_EFFECTS,
        "metrics": metrics,
        "failed_frac": (failed + known) / attempted,
        "known_defects": {inv.key: inv.known_defect for inv in invocations if inv.known_defect},
        "setup_probes_s": setup,
        "handler_self_shares": shares,
        "problems": problems,
        "rounds": [{
            "traced": r.traced,
            "order": [invocations[i].key for i in r.order],
            "wall_s": r.wall,
            "invocations": [{
                "argv": invocations[i].key, "wall_s": o.wall, "exit": o.exit_code,
                "peak_kb": o.peak_kb, "verdict": r.verdicts[i],
            } for i, o in enumerate(r.outcomes)],
            "layers": r.layers,
        } for r in rounds],
    }, indent=1))
    print(f"  results: {results.relative_to(bench.root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
