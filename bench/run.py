"""magspy benchmark: three workloads through the ``magspy`` commands users run.

    python3 bench/run.py --workload closed-world --seed 1 --seconds 30 --trace 0

Set-up makes the workload's inputs from ``--seed`` (``setup_s`` is timed
from the start of this process). The timed ``magspy`` command then runs in
its own child process, whole round after whole round, until ``--seconds``
have passed; ``run_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the
rounds. With ``--trace 1`` the set-up commands and the timed command run
under ``tracer.py`` instead and the per-layer metrics are printed. Every
run checks the command's outputs; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A run must end within 180 s; no round starts that could pass this.
BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Acceptance floors the outputs must meet (README, "Output checks").
ACCURACY_FLOOR = 0.90
RECALL_FLOOR = 0.70
MAX_PEAK_ACCURACY_GAP = 0.15
CLASSIFY_ACCURACY_FLOOR = 0.80


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    trace: dict | None = None


class Runner:
    """Runs magspy commands in child processes, plain or under the tracer."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.setup_traces: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self._count = 0

    def run(self, argv, traced: bool = False) -> Outcome:
        if traced:
            self._count += 1
            trace_file = self.work / f"trace-{self._count}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_file)]
        else:
            cmd = [sys.executable, "-m", "magspy.cli"]
        remaining = _START + BUDGET_S - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("benchmark time budget used up")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + [str(a) for a in argv], env=self.env,
                                stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise TimeoutError(f"magspy {argv[0]} killed after {wall:.1f} s")
        outcome = Outcome(wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss * 1024 / 1e6, proc.returncode)
        if traced and trace_file.exists():  # absent if the tracer itself failed
            outcome.trace = json.loads(trace_file.read_text(encoding="utf-8"))
            outcome.trace["wall_s"] = outcome.trace["main_end"] - start
        return outcome

    def setup_command(self, argv) -> None:
        outcome = self.run(argv, traced=self.trace)
        if outcome.returncode != 0:
            raise RuntimeError(f"set-up command magspy {argv[0]} exited "
                               f"{outcome.returncode}")
        if outcome.trace is not None:
            self.setup_traces.append(outcome.trace)

    def setup_in_process(self, fn):
        """Call ``fn()`` in this process, under the span recorder when tracing."""
        if not self.trace:
            return fn()
        recorder = tracer.Recorder()
        recorder.install()
        try:
            return fn()
        finally:
            recorder.uninstall()
            self.setup_traces.append(recorder.dump(
                {"problems": recorder.check_and_summarize()}))


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def _note(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


def _class_names(count: int) -> list[str]:
    # The class ids magspy's closed-world renderer uses.
    return [f"class-{i:03d}" for i in range(count)]


class ClosedWorld:
    """``magspy eval`` on the stock closed world with a smaller forest."""

    scenario = "closed-world"
    classes, traces_per_class, train_fraction = 20, 40, 0.8  # the stock scale
    trees = 80
    outputs = ("report.json",)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = work / f"{self.scenario}.json"

    def config_doc(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "class_count": self.classes,
                "traces_per_class": self.traces_per_class,
                "train_fraction": self.train_fraction,
                "forest": {"n_estimators": self.trees, "seed": self.seed}}

    def setup(self, runner: Runner) -> None:
        _write_json(self.config, self.config_doc())

    def command(self, out: Path) -> list:
        return ["eval", "--config", self.config, "--out", out, "--threads", 1]

    def check(self, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text())["report"]
        _note(f"closed-world accuracy {report['accuracy']}")
        per_class = checks.held_out_per_class(self.traces_per_class,
                                              self.train_fraction)
        return (checks.check_confusion_rows(report, _class_names(self.classes),
                                            per_class)
                + checks.check_at_least("closed-world accuracy",
                                        report["accuracy"], ACCURACY_FLOOR))


class Continuous(ClosedWorld):
    """``magspy eval`` on the continuous scenario: small forest, many streams."""

    scenario = "continuous"
    trees = 30
    streams = 80

    def config_doc(self) -> dict:
        return {**super().config_doc(), "stream_count": self.streams}

    def check(self, out: Path) -> list[str]:
        result = json.loads((out / "report.json").read_text())["result"]
        _note(f"recall {result['detection_recall']}, classify-at-peaks accuracy "
              f"{result['classify_accuracy']}, closed-world accuracy "
              f"{result['closed_world_accuracy']}")
        return checks.check_continuous(result, self.streams, RECALL_FLOOR,
                                       MAX_PEAK_ACCURACY_GAP)


def _fresh_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, ("holdout",) + parts)).encode())
    return int.from_bytes(digest.digest()[:8], "little")


class CliClassify:
    """``magspy classify`` on held-out recordings with a model trained in set-up."""

    train_per_class = 20
    holdout_per_class = 15
    trees = 60
    outputs = ("predictions.jsonl", "report.json")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.model = work / "model" / "model.json"
        self.holdout = work / "holdout" / "recordings.jsonl"
        self.recordings = []

    def setup(self, runner: Runner) -> None:
        config = _write_json(self.work / "train.json", {
            "scenario": "closed-world", "seed": self.seed,
            "traces_per_class": self.train_per_class,
            "forest": {"n_estimators": self.trees, "seed": self.seed}})
        data = self.work / "train"
        runner.setup_command(["simulate", "--config", config, "--out", data,
                              "--threads", 1])
        runner.setup_command(["train", "--config", config,
                              "--data", data / "recordings.jsonl",
                              "--out", self.model.parent, "--threads", 1])
        self.recordings = runner.setup_in_process(self._write_holdout)

    def _write_holdout(self) -> list:
        # Same class signatures as the training set (keyed by the config
        # seed), fresh perturb and render seeds.
        import magspy
        cfg = magspy.ExperimentConfig(seed=self.seed)
        profile = cfg.resolved_profiles()[0]
        recordings = []
        for class_id in _class_names(cfg.class_count):
            signature = magspy.make_class_signature(class_id, cfg.duration_s,
                                                    cfg.rate_hz, cfg.seed)
            for j in range(self.holdout_per_class):
                pattern = magspy.perturb_pattern(
                    signature, _fresh_seed(self.seed, "perturb", class_id, j),
                    start_jitter_s=cfg.start_jitter_s, time_warp=cfg.time_warp,
                    level_jitter=cfg.level_jitter,
                    background_drift=cfg.background_drift)
                recordings.append(magspy.render_recording(
                    pattern, profile, seed=_fresh_seed(self.seed, "render", class_id, j),
                    device_id="device-0", label=class_id))
        self.holdout.parent.mkdir(parents=True, exist_ok=True)
        magspy.save_recordings(recordings, self.holdout)
        return recordings

    def command(self, out: Path) -> list:
        return ["classify", "--model", self.model, "--data", self.holdout,
                "--out", out, "--threads", 1]

    def check(self, out: Path) -> list[str]:
        import magspy
        doc = json.loads(self.model.read_text(encoding="utf-8"))
        n_features = doc["n_features"]
        walk_probs = []
        for rec in self.recordings:
            features = magspy.extract_features(magspy.preprocess_recording(rec),
                                               n_features)
            walk_probs.append(checks.walk_forest(doc["trees"],
                                                 features.values.tolist()))
        lines = (out / "predictions.jsonl").read_text().splitlines()
        labels = [rec.label for rec in self.recordings]
        problems = checks.check_predictions(
            lines, labels, [rec.device_id for rec in self.recordings],
            doc["class_names"], walk_probs)
        if problems:
            return problems
        acc = checks.accuracy(lines, labels)
        _note(f"held-out accuracy {acc}")
        report = json.loads((out / "report.json").read_text())["report"]
        if report["accuracy"] != acc:
            problems.append(f"report accuracy {report['accuracy']} != {acc} "
                            f"counted from predictions.jsonl")
        return problems + checks.check_at_least("held-out accuracy", acc,
                                                CLASSIFY_ACCURACY_FLOOR)


WORKLOADS = {"closed-world": ClosedWorld, "continuous": Continuous,
             "cli-classify": CliClassify}


class Measurement:
    """Rounds of the timed command; keeps the first round's outputs to compare."""

    def __init__(self, runner: Runner, workload, out: Path):
        self.runner, self.workload, self.out = runner, workload, out
        self.reference: dict[str, bytes] | None = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def round(self, traced: bool) -> Outcome | None:
        shutil.rmtree(self.out, ignore_errors=True)
        outcome = self.runner.run(self.workload.command(self.out), traced=traced)
        self.attempted += 1
        _note(f"round {self.attempted}: exit {outcome.returncode}, "
              f"{outcome.wall_s:.3f} s wall, {outcome.cpu_s:.3f} s cpu")
        if outcome.returncode != 0:
            self.failed += 1
            return None
        outputs = {name: (self.out / name).read_bytes()
                   for name in self.workload.outputs}
        if self.reference is None:
            self.reference = outputs
            self.problems += self.workload.check(self.out)
        else:
            for name in self.workload.outputs:
                self.problems += checks.check_same_bytes(
                    name, self.reference[name], outputs[name])
        if outcome.trace is not None:
            self.problems += outcome.trace["problems"]
        return outcome

    def rounds(self, seconds: float, traced: bool) -> list[Outcome]:
        done = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            outcome = self.round(traced)
            now = time.perf_counter()
            longest = max(longest, now - began)
            if outcome is not None:
                done.append(outcome)
            if now - start >= seconds or now + 1.5 * longest > _START + BUDGET_S - 10:
                return done


def _median(values) -> float:
    return float(statistics.median(values))


def measure(args, work: Path) -> dict:
    runner = Runner(work, bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.setup(runner)
    setup_s = time.perf_counter() - _START
    measurement = Measurement(runner, workload, work / "out")
    for trace in runner.setup_traces:
        measurement.problems += trace["problems"]
    if not args.trace:
        done = measurement.rounds(args.seconds, traced=False)
        values = {
            "setup_s": setup_s,
            "run_s": _median(o.wall_s for o in done),
            "cpu_s": _median(o.cpu_s for o in done),
            "peak_rss_mb": _median(o.peak_rss_mb for o in done),
        }
        units = END_TO_END
    else:
        measurement.round(traced=False)  # reference bytes for the traced rounds
        done = measurement.rounds(args.seconds, traced=True)
        per_round = []
        for outcome in done:
            row = layers.layer_metrics(runner.setup_traces + [outcome.trace])
            row["traced.run_s"] = outcome.trace["wall_s"]
            per_round.append(row)
        values = {name: _median(row[name] for row in per_round)
                  for name in layers.PER_LAYER}
        for name, (unit, _) in layers.PER_LAYER.items():
            if unit != "s" and len({row[name] for row in per_round}) > 1:
                measurement.problems.append(f"{name} differs between traced rounds")
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    for problem in measurement.problems:
        _note(f"check failed: {problem}")
    return {
        "correct": not measurement.problems and bool(done),
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "magspy" / "__init__.py").is_file():
        print(f"bench: no magspy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import magspy  # noqa: F401  (set-up time includes the import)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
