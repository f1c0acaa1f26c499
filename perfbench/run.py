"""End-to-end and per-layer benchmark of egms selection.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's corpora from ``--seed`` (timed as set-up),
then runs rounds of the workload's egms CLI commands, one process at a time
(``python -m egms.cli`` with ``src`` on the path), until ``--seconds`` have
passed. With ``--trace 0`` it reports the end-to-end metrics, medians over
rounds. With ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, medians over rounds, plus
the tracing overhead; all spans go to ``.perfbench/<workload>/trace.json``.

After timing, every output is checked against values the benchmark computes
itself (see checks.py). An operation fails when its process exits non-zero
or its output fails a check; each failure is printed with its exit code or
check name. ``correct`` is false when a process exits non-zero or a check
fails that is not the workload's one known fault. The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import CheckFailed, check_centroids, check_selection, check_shift, load_manifest, self_test
from corpus import Corpus, CorpusSpec, make_corpus
from layers import METRICS as LAYER_METRICS, round_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_MIN_REPEATS = 5  # set-up is repeated at least this often, and for at least SETUP_MIN_S
SETUP_MIN_S = 2.0
BLAS_THREADS = 1  # workers x BLAS threads stays within the 2 CPUs the workloads are sized for
RUN_LIMIT_S = 170.0  # every process is killed after this long into a run
CHECK_RESERVE_S = 20.0  # time kept free after the last round for the checks
FIXED_SEED = 20260214  # corpora of the known-fault operation do not depend on --seed
SIGMA = 0.5
TAILS = (0.05, 0.05)
SHIFT = 2.0**12  # exact in float32 for values on the corpus grid


@dataclass(frozen=True)
class Op:
    """One egms CLI command of a workload round, and what its output must satisfy."""

    name: str
    corpus: str
    command: tuple[str, ...]
    budget: int
    clusters: int
    tails: tuple[float, float] | None = TAILS  # None: strategy selects without filtering
    centroids: bool = False  # also pass --dump-centroids and check the dump
    shift_of: str | None = None  # unshifted twin corpus: the selection must not change
    known_fault: str | None = None  # check that fails on today's code because of a known fault


@dataclass(frozen=True)
class Workload:
    corpora: dict[str, CorpusSpec]
    ops: tuple[Op, ...]
    workers: int
    fixed: frozenset[str] = frozenset()  # corpora made from FIXED_SEED


WORKLOADS = {
    # About 90 kept rows and a budget of 18 per cluster, near the paper's 20; at
    # 500 clusters k-means is the largest layer and the greedy runs at t <= 18.
    "select_many_clusters": Workload(
        corpora={"main": CorpusSpec(n=50_000, dim=64, blobs=20, spread=0.05)},
        ops=(Op("select", "main", ("select",), budget=9_000, clusters=500),),
        workers=1,
    ),
    # A few large clusters with a budget of about 70 each: the eigensolves of
    # entropy_gains dominate and the sampler's thread pool runs two workers.
    "select_few_clusters": Workload(
        corpora={"main": CorpusSpec(n=12_000, dim=64, blobs=24, spread=0.05, centre_scale=5.0)},
        ops=(Op("select", "main", ("select",), budget=1_680, clusters=24),),
        workers=2,
    ),
    # The same layers used differently: NLL parsing, k-means twice for the
    # centroid dump and once over unfiltered rows for MMD, and the unbatched
    # augment + von_neumann_entropy path. Corpus "main" is one Gaussian, so
    # cluster sizes stay even and the MMD baseline's memory, which grows with
    # the square of its largest cluster, does not swing between seeds. The
    # shifted copy is a known fault: k-means ranks centroids by
    # |x|^2 - 2x.c + |c|^2, which cancels far from the origin, so the
    # selection changes under a shift.
    "cli_variants": Workload(
        corpora={
            "main": CorpusSpec(n=12_000, dim=32, blobs=1, spread=0.05, nlls=True),
            "fixed": CorpusSpec(n=6_000, dim=32, blobs=5, spread=0.02, nlls=True),
            "fixed_shifted": CorpusSpec(n=6_000, dim=32, blobs=5, spread=0.02, nlls=True, shift=SHIFT),
        },
        ops=(
            Op("select_dump_centroids", "main", ("select",), budget=1_300, clusters=130, centroids=True),
            Op("select_shifted", "fixed_shifted", ("select",), budget=600, clusters=60,
               shift_of="fixed", known_fault="shift_invariance"),
            Op("baseline_mmd", "main", ("baseline", "--strategy", "mmd_minimize"), budget=1_300, clusters=130,
               tails=None),
        ),
        workers=1,
        fixed=frozenset({"fixed", "fixed_shifted"}),
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "effective_samples": "count", "setup_s": "s"}


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    digest: str = ""
    trace: dict | None = None


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    procs: dict[str, Proc] = field(default_factory=dict)


def egms_args(op: Op, corpus: Corpus, out: Path, workers: int) -> list[str]:
    args = [*op.command, "--embeddings", str(corpus.embeddings), "--manifest", str(corpus.manifest),
            "--out", str(out), "--budget", str(op.budget), "--clusters", str(op.clusters), "--candidates", "100",
            "--sigma", repr(SIGMA), "--seed", "0", "--workers", str(workers)]
    if op.tails is not None:
        args += ["--tails", f"{op.tails[0]},{op.tails[1]}"]
    if op.centroids:
        args += ["--dump-centroids", str(out.with_suffix(".centroids.bin"))]
    return args


class Launcher:
    """Runs egms processes through launch.py, which reports the resources of each."""

    def __init__(self, env: dict, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "launch.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> Proc:
        request = {"argv": argv, "log": str(log), "seconds": self.deadline - time.perf_counter()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launch.py exited with code {self.proc.wait()}")
        r = json.loads(reply)
        return Proc(r["code"], r["wall"], r["cpu"], r["rss_mib"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def outputs(op: Op, out: Path) -> list[Path]:
    return [out, out.with_suffix(".centroids.bin")] if op.centroids else [out]


def run_round(wl: Workload, corpora: dict[str, Corpus], work: Path, index: int, traced: bool,
              launcher: Launcher) -> Round:
    rdir = work / f"round{index}"
    rdir.mkdir()
    rnd = Round(traced)
    start = time.perf_counter()
    for op in wl.ops:
        out = rdir / f"{op.name}.txt"
        args = egms_args(op, corpora[op.corpus], out, wl.workers)
        if traced:
            trace_out = rdir / f"{op.name}.trace.json"
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_out), *args]
        else:
            argv = [sys.executable, "-m", "egms.cli", *args]
        rnd.procs[op.name] = launcher.run(argv, rdir / f"{op.name}.log")
    rnd.wall = time.perf_counter() - start
    for op in wl.ops:
        proc = rnd.procs[op.name]
        proc.digest = digest(outputs(op, rdir / f"{op.name}.txt"))
        if traced and proc.code == 0:
            proc.trace = json.loads((rdir / f"{op.name}.trace.json").read_text(encoding="utf-8"))
    return rnd


def check_op(op: Op, out: Path, corpora: dict[str, Corpus], work: Path, wl: Workload, launcher: Launcher):
    """Check one output; returns (its effective samples, the failed check or None)."""
    try:
        man = load_manifest(out)
        effective = check_selection(man, corpora[op.corpus], op.budget, op.clusters, SIGMA, op.tails)
    except CheckFailed as exc:
        return 0.0, exc
    try:
        if op.centroids:
            check_centroids(out.with_suffix(".centroids.bin"), man, corpora[op.corpus], op.clusters)
        if op.shift_of is not None:
            ref_out = work / f"{op.name}.reference.txt"
            argv = [sys.executable, "-m", "egms.cli", *egms_args(op, corpora[op.shift_of], ref_out, wl.workers)]
            ref = launcher.run(argv, work / f"{op.name}.reference.log")
            if ref.code != 0:
                raise CheckFailed("shift_reference", f"unshifted reference run exited {ref.code}")
            check_shift(man, load_manifest(ref_out))
    except CheckFailed as exc:
        return effective, exc
    return effective, None


def account(wl: Workload, rounds: list[Round], corpora, work: Path, launcher: Launcher):
    """Check every distinct output.

    Returns (correct, attempted, failed, effective samples, outputs that
    passed every check).
    """
    correct, attempted, failed, effective, passed = True, 0, 0, 0.0, []
    for op in wl.ops:
        verdicts: dict[str, tuple[float, CheckFailed | None]] = {}
        for i in reversed(range(len(rounds))):
            proc = rounds[i].procs[op.name]
            out = work / f"round{i}" / f"{op.name}.txt"
            if proc.code == 0 and proc.digest not in verdicts:
                verdicts[proc.digest] = check_op(op, out, corpora, work, wl, launcher)
                if verdicts[proc.digest][1] is None:
                    passed.append((op, out))
        if len(verdicts) > 1:
            verdicts = {d: (0.0, CheckFailed("repeatable", "outputs differ between rounds")) for d in verdicts}
        if verdicts:
            effective += next(iter(verdicts.values()))[0]
        for i, rnd in enumerate(rounds):
            proc = rnd.procs[op.name]
            attempted += 1
            if proc.code != 0:
                # no operation has a known fault that shows as an exit code
                failed += 1
                correct = False
                print(f"failed op={op.name} round={i} exit={proc.code} log={work / f'round{i}' / op.name}.log")
                continue
            problem = verdicts[proc.digest][1]
            if problem is not None:
                failed += 1
                known = problem.check == op.known_fault
                correct = correct and known
                print(f"failed op={op.name} round={i} check={problem.check} known_fault={int(known)} ({problem})")
    return correct, attempted, failed, effective, passed


def checks_bite(passed: list[tuple[Op, Path]], corpora) -> bool:
    """Self-test: the checks must reject corrupted copies of a manifest that passed them."""
    for op, out in passed:
        if op.tails is not None:
            problems = self_test(load_manifest(out), corpora[op.corpus], op.budget, op.clusters, SIGMA, op.tails)
            if problems:
                print(f"error: the output checks missed corrupted manifests: {problems}", file=sys.stderr)
                return False
            print(f"selftest op={op.name}: 5 corrupted manifests rejected, each by its own check")
            return True
    print("selftest skipped: no filtered selection passed its checks")
    return True


def layer_values(rounds: list[Round], env_info: dict, work: Path) -> dict[str, float]:
    """Per-layer medians over the traced rounds; writes every span to trace.json."""
    traced = [r for r in rounds if r.traced]
    per_round = [round_metrics([p.trace for p in r.procs.values() if p.trace is not None]) for r in traced]
    values = {}
    for name, first in per_round[0].items():
        # counts repeat exactly, so their median is one of them
        median = statistics.median_low if isinstance(first, int) else statistics.median
        values[name] = median(m[name] for m in per_round)
    plain_wall = statistics.median(r.wall for r in rounds if not r.traced)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(r.wall for r in traced) / plain_wall - 1.0)
    trace_path = work / "trace.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env_info,
            "rounds": [{"traced": r.traced, "wall_s": r.wall} for r in rounds],
            "processes": [{"round": i, "op": name, **p.trace}
                          for i, r in enumerate(rounds) for name, p in r.procs.items() if p.trace is not None],
        }, fh)
    print(f"trace {trace_path}")
    return values


def environment(name: str, wl: Workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "workload": name, "seed": seed, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version, "blas_threads": BLAS_THREADS, "workers": wl.workers,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "egms" / "cli.py").is_file():
        print(f"error: no egms sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env_info = environment(args.workload, wl, args.seed)
    print("env " + json.dumps(env_info, sort_keys=True))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "corpora").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    launcher = Launcher(env, deadline)
    try:
        return measure(args, wl, env_info, work, launcher)
    finally:
        launcher.close()


def measure(args, wl: Workload, env_info: dict, work: Path, launcher: Launcher) -> int:
    """Set up, run the rounds, check the outputs and print the result."""
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        corpora = {
            name: make_corpus(spec, FIXED_SEED if name in wl.fixed else args.seed, work / "corpora", name)
            for name, spec in wl.corpora.items()
        }
        setup_times.append(time.perf_counter() - start)

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            rounds.append(run_round(wl, corpora, work, len(rounds), traced, launcher))
        now = time.perf_counter()
        if (now - start >= args.seconds
                or now + (now - start) / len(rounds) * 2 + CHECK_RESERVE_S > launcher.deadline):
            break
    for i, rnd in enumerate(rounds):
        print(f"round {i} traced={int(rnd.traced)} wall_s={rnd.wall:.4f} "
              + " ".join(f"{name}:exit={p.code},wall={p.wall:.3f},cpu={p.cpu:.3f},rss={p.rss_mib:.1f}"
                         for name, p in rnd.procs.items()))

    correct, attempted, failed, effective, passed = account(wl, rounds, corpora, work, launcher)
    if not checks_bite(passed, corpora):
        return 3
    if args.trace:
        values, units = layer_values(rounds, env_info, work), LAYER_METRICS
    else:
        plain = [r for r in rounds if not r.traced]
        values = {
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(sum(p.cpu for p in r.procs.values()) for r in plain),
            "peak_rss_mib": statistics.median(max(p.rss_mib for p in r.procs.values()) for r in plain),
            "effective_samples": effective,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
