"""End-to-end and per-layer benchmark of reachmix on a Cora-shaped graph.

    python3 perfbench/run.py --workload train-baseline --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` beside this directory, never from an
installed copy. Each run builds its dataset from ``--seed``, then runs the
workload's ``reachmix`` commands in-process through ``reachmix.cli.main``
until ``--seconds`` have passed. It runs them at least twice, so that their
deterministic outputs can be compared byte for byte. It checks the outputs,
prints every metric by name with its unit and sample count, and prints one
JSON result as the last line of standard output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a traced
repetition between two untraced ones, and reports the per-layer metrics and
the tracing overhead. Scratch files go to ``.perfbench/work/`` at the root
of the checkout and are removed at the end. Results and span dumps are kept
in ``.perfbench/results/``. README.md beside this file describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

EPOCHS = 50  # per seed; patience = max_epochs, so every run does all of them
SEEDS = [0, 1]  # 2 seeds x 50 epochs x at least 2 repetitions = 200 epoch samples
SETUPS = 3
MIN_REPS = 2
TIME_LIMIT_S = 150.0  # start no repetition that would end past this
# Far below the ~0.77 a model reaches on this graph and far above chance
# (1/7): catches a broken model, not a small loss of accuracy.
ACC_FLOOR = 0.5
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")  # reported by every workload

# configs/cora_baseline.json except for the epoch budget and lr: at lr 0.01,
# 50 epochs leave every prediction below 0.5 confidence on this graph, so no
# pseudo-label would pass gamma and the mixup branches would never run.
BASE_CONFIG = {
    "hidden": 64, "dropout": 0.5, "lr": 0.05, "weight_decay": 0.0005,
    "max_epochs": EPOCHS, "patience": EPOCHS, "mixup_enabled": False, "seeds": SEEDS,
}
# The mixup settings of configs/cora_mixup.json with a short warm-up and
# gamma 0.7 (the MixupConfig default) instead of 0.9, under which about two
# thirds of the refreshes of a 50-epoch run produce pairs. Copied, so that
# an edit to that file does not change the benchmark.
MIXUP = {
    "lambda_intra": 1.0, "lambda_inter": 1.0, "beta_s": 1.0, "beta_d": 1.0,
    "gamma": 0.7, "tau": 0.5, "alpha": 1.0, "warmup_epochs": 5, "refresh_every": 1,
}
CONFIGS = {
    "train-baseline": BASE_CONFIG,
    "train-mixup": {**BASE_CONFIG, "mixup_enabled": True, "mixup": MIXUP},
}
TRAIN_FILES = ([f"metrics_seed{s}.tsv" for s in SEEDS] + [f"checkpoint_seed{s}.txt" for s in SEEDS]
               + ["summary.json"])
DIAGNOSE_KINDS = ("rc", "avgsp", "cka", "pearson")

WORKLOADS = {
    "train-baseline": "dense GCN forward/backward and matmul_dense do nearly all the work and mixup "
                      "none: the main workload for a sparse data path, the bypass for refresh changes",
    "train-mixup": "the refresh pipeline, mixed-adjacency writes and all three loss branches on top "
                   "of the baseline epoch",
    "diagnose": "BFS traversal, the exact diameter and the diagnostics with one eval forward: "
                "the bypass for every training change",
}


class Command(NamedTuple):
    """One ``reachmix`` invocation and the files it must leave behind."""

    label: str
    argv: list[str]
    out: str
    same: list[str]  # deterministic outputs: byte-identical in every repetition
    other: list[str]  # must exist, may differ (wall clock, absolute paths)


def import_program():
    """Imports reachmix from this checkout's src/; exits with code 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import reachmix
    except ImportError as exc:
        sys.exit(f"error: cannot import reachmix from {SRC}: {exc}")
    if not os.path.abspath(reachmix.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: reachmix was imported from {reachmix.__file__}, not from {SRC}")


def commands(workload, rep_dir, setup_dir, cfg_path) -> list[Command]:
    data = os.path.join(setup_dir, "data")
    if workload in CONFIGS:
        out = os.path.join(rep_dir, "train")
        return [Command("train", ["train", "--data", data, "--config", cfg_path, "--out", out],
                        out, TRAIN_FILES, ["timings.tsv", "manifest.json"])]
    cmds = []
    for kind in DIAGNOSE_KINDS:
        out = os.path.join(rep_dir, kind)
        argv = ["diagnose", kind, "--data", data, "--out", out]
        if kind in ("cka", "pearson"):
            argv += ["--checkpoint", os.path.join(setup_dir, "checkpoint.txt")]
        cmds.append(Command(f"diagnose {kind}", argv, out,
                            [f"{kind}.tsv", f"{kind}_summary.json"], ["manifest.json"]))
    return cmds


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def epoch_seconds(out) -> list[float]:
    with open(os.path.join(out, "timings.tsv"), encoding="utf-8") as fh:
        return [float(line.split("\t")[2]) for line in list(fh)[1:]]


def output_problems(cmd: Command, shape: dict) -> list[str]:
    """Checks of a command's outputs beyond existence and repeatability."""
    problems = []
    if cmd.label == "train":
        epochs = len(epoch_seconds(cmd.out))
        acc = read_json(os.path.join(cmd.out, "summary.json"))["mean"]
        if epochs != len(SEEDS) * EPOCHS:
            problems.append(f"timings.tsv has {epochs} epochs, expected {len(SEEDS) * EPOCHS}")
        if not acc >= ACC_FLOOR:
            problems.append(f"mean test_acc {acc} below {ACC_FLOOR}")
    elif cmd.label == "diagnose rc":
        summary = read_json(os.path.join(cmd.out, "rc_summary.json"))
        unlabeled = shape["nodes"] - shape["split"][0]
        if summary["diameter"] != shape["diameter"]:
            problems.append(f"diameter {summary['diameter']}, scipy says {shape['diameter']}")
        if summary["num_unlabeled"] != unlabeled:
            problems.append(f"{summary['num_unlabeled']} unlabeled nodes, expected {unlabeled}")
    return problems


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One benchmark invocation: set-ups, repetitions, checks and samples."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cfg_path = os.path.join(work, "config.json")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}  # digests from the first set-up and repetition
        self.rep_walls: list[float] = []
        self.setup_walls: list[float] = []
        self.epoch_seconds: list[float] = []
        self.test_acc = None
        if workload in CONFIGS:
            with open(self.cfg_path, "w", encoding="utf-8") as fh:
                json.dump(CONFIGS[workload], fh)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def same_as_first(self, key: str, path: str, first: bool) -> bool:
        digest = file_digest(path)
        if first:
            self.reference[key] = digest
        return self.reference.get(key) == digest

    def set_up(self, index: int) -> tuple[float, object]:
        """Builds the inputs through the program's public functions into
        ``setup<index>/``; returns the seconds taken and the dataset."""
        from reachmix import graphio, nn
        from reachmix.seeding import substream

        import cora_like

        dest = os.path.join(self.work, f"setup{index}")
        self.attempted += 1
        start = time.perf_counter()
        dataset = cora_like.build(self.seed)
        graphio.save_dataset(dataset, os.path.join(dest, "data"))
        if self.workload == "diagnose":
            params = nn.init_params(dataset.num_features, BASE_CONFIG["hidden"], dataset.num_classes,
                                    substream(self.seed, "benchmark-checkpoint"))
            nn.save_params(os.path.join(dest, "checkpoint.txt"), params)
        seconds = time.perf_counter() - start
        files = [os.path.join(d, n) for d, _, names in os.walk(dest) for n in names]
        if not all([self.same_as_first("setup/" + os.path.relpath(f, dest), f, index == 0) for f in files]):
            self.fail(f"set-up {index}", ["inputs differ from the first set-up's"])
        if index:
            shutil.rmtree(dest)  # the repetitions read set-up 0's files
        return seconds, dataset

    def repetition(self, index: int, shape: dict) -> float:
        """Runs the workload's commands once; returns their summed wall time."""
        from reachmix import cli

        rep_dir = os.path.join(self.work, f"rep{index}")
        os.makedirs(rep_dir)
        wall = 0.0
        setup_dir = os.path.join(self.work, "setup0")
        with open(os.path.join(rep_dir, "stdout.log"), "w", encoding="utf-8") as log:
            for cmd in commands(self.workload, rep_dir, setup_dir, self.cfg_path):
                self.attempted += 1
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(log):
                        code = cli.main(cmd.argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception:  # keep going; the failure is counted and reported
                    code = "exception"
                    traceback.print_exc()
                wall += time.perf_counter() - start
                problems = self.check(cmd, code, shape, first=index == 0)
                if problems:
                    self.fail(f"repetition {index} {cmd.label}", problems)
        shutil.rmtree(rep_dir)
        return wall

    def check(self, cmd: Command, code, shape: dict, first: bool) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        missing = [n for n in cmd.same + cmd.other if not os.path.isfile(os.path.join(cmd.out, n))]
        if missing:
            return [f"missing {', '.join(missing)}"]
        problems = [f"{name} differs from the first repetition's" for name in cmd.same
                    if not self.same_as_first(f"{cmd.label}/{name}", os.path.join(cmd.out, name), first)]
        problems += output_problems(cmd, shape)
        if cmd.label == "train":
            self.epoch_seconds += epoch_seconds(cmd.out)
            self.test_acc = read_json(os.path.join(cmd.out, "summary.json"))["mean"]
        return problems


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git = None
    source = hashlib.sha256()
    package = os.path.join(SRC, "reachmix")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            source.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                source.update(fh.read())
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git,
        "src_sha256": source.hexdigest(),
    }


def measure(run: Run, args, tracer, tracing) -> tuple[dict, dict]:
    """Set-ups and repetitions; returns the metrics as ``name -> (value,
    unit, samples)`` and the dataset's shape."""
    import cora_like

    report = {}
    with tracer.installed() if args.trace else contextlib.nullcontext():
        seconds, dataset = run.set_up(0)
    shape = cora_like.describe(dataset)
    del dataset

    if args.trace:
        # Untraced repetitions on both sides of the traced one, so that the
        # first repetition's extra cost does not bias the overhead.
        before = run.repetition(0, shape)
        with tracer.installed():
            traced = run.repetition(1, shape)
        after = run.repetition(2, shape)
        run.rep_walls = [before, traced, after]
        for name, value in tracing.layer_metrics(tracer, traced - (before + after) / 2).items():
            report[name] = (value, tracing.PER_LAYER[name][0], "traced set-up + 1 repetition")
        return report, shape

    # The other set-ups run between repetitions, so that the set-up samples
    # spread over the run like the repetitions do: CPU speed on a shared
    # machine drifts over tens of seconds.
    setup_times = [seconds]
    started = time.perf_counter()
    while len(run.rep_walls) < MIN_REPS or time.perf_counter() - started < args.seconds:
        if run.rep_walls and time.perf_counter() - args.t0 + max(run.rep_walls) > TIME_LIMIT_S:
            break
        run.rep_walls.append(run.repetition(len(run.rep_walls), shape))
        if len(setup_times) < SETUPS:
            setup_times.append(run.set_up(len(setup_times))[0])
    while len(setup_times) < SETUPS:
        setup_times.append(run.set_up(len(setup_times))[0])
    run.setup_walls = setup_times
    reps = len(run.rep_walls)
    report["setup_s"] = (statistics.median(setup_times), "s", f"n={SETUPS} set-ups, median")
    report["wall_s"] = (statistics.median(run.rep_walls), "s", f"n={reps} repetitions, median")
    report["peak_rss_mb"] = (peak_rss_mb(), "MB", "1 process, own or children's max")
    if run.epoch_seconds:
        p50, p95 = np.percentile(run.epoch_seconds, [50, 95])
        n = f"n={len(run.epoch_seconds)} epochs over {reps} repetitions"
        report["epoch_ms_p50"] = (1000.0 * float(p50), "ms", n)
        report["epoch_ms_p95"] = (1000.0 * float(p95), "ms", n)
    if run.test_acc is not None:
        report["test_acc"] = (run.test_acc, "ratio", f"mean over {len(SEEDS)} seeds")
    return report, shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.t0 = time.perf_counter()
    import_program()

    import tracer as tracing

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, "work", run_id)
    results = os.path.join(WORK, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    env = environment()
    run = Run(args.workload, args.seed, work)
    tracer = tracing.Tracer()
    report, shape = {}, None
    try:
        report, shape = measure(run, args, tracer, tracing)
    except Exception:  # set-up or the benchmark itself broke: report it, do not hide it
        traceback.print_exc()
        run.fail("benchmark", ["aborted; see the traceback on stderr"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        tracer.write_tsv(os.path.join(results, f"{run_id}-spans.tsv"))

    attempted = max(run.attempted, 1)
    report["ops_failed_frac"] = (run.failed / attempted, "ratio", f"{run.failed} of {attempted} operations")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    print("env " + json.dumps(env))
    print("shape " + json.dumps(shape))
    for name, (value, unit, samples) in report.items():
        print(f"metric {name} = {value!r} {unit} ({samples})")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    wanted = tracing.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report[name][0], "unit": report[name][1]} for name in wanted if name in report}
    correct = run.failed == 0 and len(metrics) == len(wanted)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "shape": shape,
              "setup_walls_s": run.setup_walls, "rep_walls_s": run.rep_walls, "problems": run.problems,
              "report": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in report.items()}}
    with open(os.path.join(results, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
