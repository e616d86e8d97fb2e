"""diagcert benchmark: time to a certified verdict on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload snf-euclid --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One process, one thread, closed loop: one caller makes one decision at a
time.  The run imports diagcert from `src/`, builds the workload's inputs from
the seed, then repeats passes over the same case list while another pass fits
in `--seconds`.  Every output is checked (see workloads.py) and every repeat
must reproduce the first output.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes a warm-up
pass, an untraced pass and a traced pass over the cases and prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary.  Results and spans are also written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100
OUT_DIR = ROOT / ".perfbench"
LIB_MODULES = ("rings", "errors", "bounds", "linalg", "diagonalizer",
               "testkit", "verifier", "cli", "jsonio")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


# ---------------------------------------------------------------------------
# environment


def _pin_interpreter():
    """Re-execute with a fixed string hash seed so that set and dict orders,
    and so the work diagcert does, are the same in every run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(src):
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(src),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


# ---------------------------------------------------------------------------
# set-up: import diagcert and build the inputs


def _import_diagcert():
    for name in [n for n in sys.modules
                 if n == "diagcert" or n.startswith("diagcert.")]:
        del sys.modules[name]
    package = importlib.import_module("diagcert")
    lib = SimpleNamespace(package=package)
    for name in LIB_MODULES:
        setattr(lib, name, importlib.import_module(f"diagcert.{name}"))
    return lib


def _build(lib, workload, seed):
    bounds = lib.bounds.Bounds()
    if workload == "snf-euclid":
        return workloads.build_snf_euclid(lib, seed, bounds)
    if workload == "search-yes":
        return workloads.build_search_yes(lib, seed, bounds)
    if workload == "search-no":
        return workloads.build_search_no(lib, seed, bounds)
    scratch = OUT_DIR / "inputs"
    scratch.mkdir(parents=True, exist_ok=True)
    return workloads.build_analyze_full(lib, seed, bounds, ROOT / "fixtures",
                                        scratch)


def check_checkout(workload):
    src = ROOT / "src"
    if not (src / "diagcert" / "__init__.py").is_file():
        raise SetupError(f"no diagcert package under {src}")
    if workload == "analyze-full" and not (ROOT / "fixtures").is_dir():
        raise SetupError(f"no fixtures directory under {ROOT}")
    os.environ.pop("DIAGCERT_BUDGET", None)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def setup(workload, seed, repeats):
    """Import diagcert and build the inputs `repeats` times; returns the last
    build and the time each set-up took."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib = _import_diagcert()
        cases = _build(lib, workload, seed)
        times.append(time.perf_counter() - start)
    return lib, cases, times


# ---------------------------------------------------------------------------
# decisions


class Ledger:
    """Counts decisions and checks each case's outputs across repeats."""

    def __init__(self, lib, cases):
        self.cases = cases
        self.budget_error = lib.errors.StepBudgetExceeded
        self.first = {}           # case index -> (fingerprint, decided)
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures = []

    def account(self, index, outcome, error):
        case = self.cases[index]
        failure = None
        if error is not None:
            fingerprint = f"raised {type(error).__name__}"
            budget = isinstance(error, self.budget_error)
            decided = False
            if not budget or case.require_yes:
                failure = f"{type(error).__name__}: {error}"
        else:
            fingerprint = case.fingerprint(outcome)
        seen = self.first.get(index)
        if seen is None:
            if error is None:
                decided, failure = case.judge(outcome)
            self.first[index] = (fingerprint, decided)
        else:
            if fingerprint != seen[0] and failure is None:
                failure = "output differs from an earlier repeat in this run"
            decided = seen[1]
        self.attempted += 1
        self.decided += bool(decided)
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{case.label}: {failure}")


def run_pass(cases, tracer=None):
    """Time each case once; returns [(seconds, outcome, error)]."""
    gc.collect()
    out = []
    clock = time.perf_counter
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.decision = index + 1
        error = outcome = None
        start = clock()
        try:
            outcome = case.call()
        except Exception as exc:  # judged by the ledger, never swallowed
            error = exc
        out.append((clock() - start, outcome, error))
    return out


def account_pass(ledger, results):
    for index, (_, outcome, error) in enumerate(results):
        ledger.account(index, outcome, error)
    return [seconds for seconds, _, _ in results]


def measure(lib, cases, seconds, min_passes):
    """At least `min_passes` passes, more while another one fits in
    `seconds`; returns the ledger and each case's times, one per pass."""
    ledger = Ledger(lib, cases)
    per_case = [[] for _ in cases]
    start = time.perf_counter()
    while True:
        for times, t in zip(per_case, account_pass(ledger, run_pass(cases))):
            times.append(t)
        passes = len(per_case[0])
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(t[p] for t in per_case)
                                    for p in range(passes))
        if passes >= min_passes and elapsed + typical > seconds:
            return ledger, per_case


def measure_traced(lib, cases):
    """A warm-up pass, an untraced pass and a traced pass over the cases."""
    ledger = Ledger(lib, cases)
    account_pass(ledger, run_pass(cases))
    untraced = account_pass(ledger, run_pass(cases))
    tracer = tracing.Tracer()
    tracer.install(lib.package)
    try:
        results = run_pass(cases, tracer)
    finally:
        tracer.uninstall()
    traced = account_pass(ledger, results)
    return ledger, untraced, traced, tracer


# ---------------------------------------------------------------------------
# reporting


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ledger, per_case, setup_times):
    """Each case counts with its median over the passes, so a pass slowed by
    the machine does not move the figures.  `wall_s` is the number of case
    groups times the median group total (a median of means), so that one
    rare decision hundreds of times slower than its neighbours does not
    decide the figure; the plain total is `wall_total_s`."""
    typical = [statistics.median(times) for times in per_case]
    groups = {}
    for case, t in zip(ledger.cases, typical):
        groups[case.group] = groups.get(case.group, 0.0) + t
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (len(groups) * statistics.median(groups.values()), "s"),
        "decided_ratio": (ledger.decided / ledger.attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # printed and stored, but not in BENCHMARK.json (see README.md)
    extra = {"wall_total_s": (sum(typical), "s"),
             "decide_p50_s": (statistics.median(typical), "s"),
             "failed_ratio": (ledger.failed / ledger.attempted, "ratio")}
    notes = {"decisions_per_pass": len(per_case), "passes": len(per_case[0]),
             "case_groups": len(groups),
             "setup_repeats": len(setup_times)}
    if len(typical) >= P90_MIN_SAMPLES:
        extra["decide_p90_s"] = (statistics.quantiles(typical, n=10)[8], "s")
        notes["decide_p90_s"] = f"over {len(typical)} decisions"
    else:
        notes["decide_p90_s"] = (f"not reported: {len(typical)} decisions "
                                 f"per run < {P90_MIN_SAMPLES}")
    return metrics, extra, notes


def per_layer(tracer, untraced, traced):
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    notes = {"untraced_wall_s": sum(untraced), "traced_wall_s": sum(traced),
             "spans": len(tracer.spans)}
    return metrics, notes


def _fmt(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _stem(workload, args):
    return f"{workload}_seed{args.seed}_trace{args.trace}"


def run_one(args):
    try:
        check_checkout(args.workload)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    lib, cases, setup_times = setup(args.workload, args.seed, SETUP_REPEATS)
    env = environment(ROOT / "src")
    OUT_DIR.mkdir(exist_ok=True)
    stem = _stem(args.workload, args)
    extra = {}
    if args.trace:
        ledger, untraced, traced, tracer = measure_traced(lib, cases)
        metrics, notes = per_layer(tracer, untraced, traced)
        tracer.write_spans(OUT_DIR / f"spans_{stem}.jsonl")
    else:
        ledger, per_case = measure(lib, cases, args.seconds,
                                   workloads.MIN_PASSES.get(args.workload, 1))
        # set up again after measuring, so that the median spans the run
        setup_times += setup(args.workload, args.seed, SETUP_REPEATS)[2]
        metrics, extra, notes = end_to_end(ledger, per_case, setup_times)

    digests = {}
    if args.workload == "analyze-full":
        digests = {case.label: ledger.first[i][0]
                   for i, case in enumerate(cases)}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in notes.items():
        print(f"note {name} = {value}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for label, digest in digests.items():
        print(f"digest {label}: {digest}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": _fmt(metrics)}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  extra_metrics=_fmt(extra), notes=notes, digests=digests,
                  failures=ledger.failures)
    with open(OUT_DIR / f"BENCH_{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    summary = {}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        with open(OUT_DIR / f"BENCH_{_stem(workload, args)}.json",
                  encoding="utf-8") as fh:
            summary[workload] = json.load(fh)
    print("summary")
    for workload, record in summary.items():
        print(f"  {workload}: correct={record['correct']} "
              f"attempted={record['attempted']} failed={record['failed']}")
        for name, m in {**record["metrics"],
                        **record["extra_metrics"]}.items():
            print(f"    {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}
                      for w, r in summary.items()}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    _pin_interpreter()
    sys.exit(main())
