"""Cold-CLI benchmark of drinfeld_towers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

A workload is a fixed list of real CLI commands (`verify`, `points`,
`ss-count`). Every command runs in its own fresh interpreter
(`perfbench/child.py`), because every CLI user pays for imports, field
construction and empty memo caches. The load is a closed loop: this one
process runs one command at a time and starts the next when the last has
exited. A pass is one run of every command of the workload. The run repeats
passes while another fits in `--seconds`, at least `MIN_PASSES` times, and
reports medians over the passes. Times are calibrated against the host's
drifting CPU speed (see `calibrate`).

Every command's output is checked: exit code, no reported failure, the count
it must produce, and its stdout sha256 against `reference.json`. A command
whose arguments carry the seed is compared by digest only at the default seed
0; the others print the same bytes at every seed.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With `--trace 1` the run makes one untraced pass and then
traced passes, in which every public function of the library is wrapped
(`spans.py`); the last line holds the per-layer metrics. The line before it
records the environment (git sha, source digest, Python version, nproc, CPU
model), the seed, the raw pass times and speed factors, the fail ratio and,
when traced, the tracing overhead and per-command counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans
from child import MARKER

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
MIN_PASSES = 3
BUDGET_S = 165.0  # every run must end within 180 s, the slowest pass included
CAL_ROUNDS = 7000
CAL_NOMINAL_S = 0.05  # the calibration kernel's time on the reference CPU (see calibrate)


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Command:
    argv: tuple  # CLI arguments; "{seed}" stands for the run's seed
    setup: tuple  # (p, e, m, j) of the canonical context the command starts from
    check: Callable  # (stdout bytes, command, seed) -> (work items, verify cases)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def args(self, seed: int) -> list:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


# ---------------------------------------------------------------------------
# output checks


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None


def expect_report(*checks):
    """A verify report with exactly these checks and no failures."""

    def check(out, cmd, seed):
        doc = _json(out)
        if doc["config"].get("seed") != seed:
            raise CheckFailed(f"report echoes seed {doc['config'].get('seed')}, not {seed}")
        report = doc["report"]
        names = sorted({e["check"] for e in report})
        if names != sorted(checks):
            raise CheckFailed(f"report has checks {names}, expected {sorted(checks)}")
        failed = sum(len(e["failures"]) for e in report)
        if failed:
            raise CheckFailed(f"report lists {failed} failures")
        cases = sum(e["cases_run"] for e in report)
        return cases, cases

    return check


def f_count(setup: tuple, n: int) -> int:
    """(q^m - 1) q^{(m-1)(n-1)}, the number of rational F-points at level n."""
    p, e, m, _j = setup
    q = p**e
    return (q**m - 1) * q ** ((m - 1) * (n - 1))


def expect_points(variant: str, n: int, count: int):
    """`count` distinct JSON point records of this variant, tuple and level."""

    def check(out, cmd, seed):
        p, e, m, j = cmd.setup
        params = {"p": p, "e": e, "m": m, "j": j}
        length = n - 1 if variant == "H" else n
        lines = out.decode().splitlines()
        if len(lines) != count:
            raise CheckFailed(f"{len(lines)} points, expected {count}")
        seen = set()
        for line in lines:
            rec = _json(line)
            if rec["variant"] != variant or rec["params"] != params or len(rec["coords"]) != length:
                raise CheckFailed(f"malformed point record {line[:80]}")
            seen.add(tuple(rec["coords"]))
        if len(seen) != count:
            raise CheckFailed(f"{count - len(seen)} duplicate points")
        return count, 0

    return check


def expect_ss_count(n: int):
    """`ss-count` output whose enumerated count matches the closed formula."""

    def check(out, cmd, seed):
        rec = _json(out)
        want = f_count(cmd.setup, n)
        if (rec["enumerated"], rec["formula"], rec["match"]) != (want, want, True):
            raise CheckFailed(f"ss-count gave {rec['enumerated']}/{rec['formula']}, expected {want}")
        return want, 0

    return check


# ---------------------------------------------------------------------------
# workloads


def _verify(suite: str, tup: tuple, *checks) -> Command:
    p, e, m, j = tup
    argv = ("verify", "--suite", suite, "--p", str(p), "--e", str(e), "--m", str(m), "--j", str(j), "--seed", "{seed}")
    return Command(argv, tup, expect_report(*checks))


def _points(variant: str, tup: tuple, n: int, count: int) -> Command:
    p, _e, m, j = tup
    argv = ("points", "--p", str(p), "--m", str(m), "--j", str(j), "--n", str(n), "--variant", variant)
    return Command(argv, tup, expect_points(variant, n, count))


ALL_CHECKS = ("lemma1_6", "thm1_7", "theta", "roundtrip", "rsu", "rsu_random")

# Workloads never pass --threads, never use n < 1 and run with
# DRINFELD_SIZE_CAP unset, so removing the thread option or validating the cap
# changes neither the commands nor their output.
WORKLOADS = {
    # identity checking over prime fields: the e = 1 tuples of DEFAULT_GRID
    "verify-prime": [
        _verify("all", tup, *ALL_CHECKS)
        for tup in ((2, 1, 2, 1), (2, 1, 3, 2), (3, 1, 2, 1), (3, 1, 3, 2), (5, 1, 2, 1))
    ],
    # the one non-prime base field (F_4); lemma1_6 and thm1_7 there take ~20 s each
    "verify-f4": [
        _verify("theta", (2, 2, 3, 2), "theta"),
        _verify("rsu", (2, 2, 3, 2), "rsu", "rsu_random"),
    ],
    # F-enumeration: wide (q^m = 125 candidates) and deep (n = 5, 1,792 points)
    "points-F": [
        Command(("ss-count", "--p", "5", "--m", "3", "--j", "1", "--n", "2"), (5, 1, 3, 1), expect_ss_count(2)),
        _points("F", (2, 1, 3, 2), 5, f_count((2, 1, 3, 2), 5)),
    ],
    # the same enumerator on G and H, which have no fiber-solve shortcut
    "points-GH": [
        _points("G", (5, 1, 3, 1), 2, 837),
        _points("H", (5, 1, 3, 1), 3, 722),
    ],
}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    items: int = 0
    verify_cases: int = 0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    out_bytes: int = 0
    stats: dict | None = None


def child_env() -> dict:
    """The caller's environment without DRINFELD_SIZE_CAP and interpreter knobs.

    PYTHONUNBUFFERED, PYTHONDONTWRITEBYTECODE and the like change the
    children's cost, so every child runs as a plain `python3` would.
    """
    return {
        k: v
        for k, v in os.environ.items()
        if k != "DRINFELD_SIZE_CAP" and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }


def run_child(setup: tuple, trace: bool, argv: list, timeout: float):
    cmd = [sys.executable, str(CHILD), ",".join(map(str, setup)), "1" if trace else "0", *argv]
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=max(timeout, 1.0))


def judge(cmd: Command, seed: int, returncode: int, stdout: bytes, stderr: bytes, reference: dict) -> Outcome:
    """Check one command's exit code, output and stats line."""
    lines = stderr.decode(errors="replace").splitlines()
    if returncode != 0:
        tail = lines[-1] if lines else ""
        return Outcome(False, f"{cmd.key}: exit {returncode} {tail[:200]}")
    if not lines or not lines[-1].startswith(MARKER):
        return Outcome(False, f"{cmd.key}: no stats line")
    stats = json.loads(lines[-1][len(MARKER):])  # written by child.py, never by the library
    if not cmd.seeded or seed == DEFAULT_SEED:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != reference.get(cmd.key):
            return Outcome(False, f"{cmd.key}: stdout sha256 {digest} differs from reference")
    try:
        items, cases = cmd.check(stdout, cmd, seed)
    except (CheckFailed, KeyError, TypeError, UnicodeDecodeError) as exc:
        return Outcome(False, f"{cmd.key}: {exc!r}")
    return Outcome(
        True,
        items=items,
        verify_cases=cases,
        setup_s=stats["setup_s"],
        rss_mb=stats["max_rss_kb"] / 1024,
        out_bytes=len(stdout),
        stats=stats,
    )


def _cal_product(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % 3
    return tuple(out)


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed pure-Python kernel.

    The CPU time a command gets per second drifts here by up to 1.7x within
    minutes, because the cores are shared with other machines; that is far
    more than any bound. So the harness times this kernel (small-int
    polynomial products mod 3, tuples, dict updates, calls: the library's kind
    of work, but none of its code) before and after every command, and scales
    the command's times by `CAL_NOMINAL_S` / the mean of the two samples. The
    reported times are thus seconds on a CPU where the kernel takes
    `CAL_NOMINAL_S`; the raw times are kept in the record.
    """
    start = time.perf_counter()
    a, memo = (1, 2, 0, 1, 2, 2, 1), {}
    for i in range(CAL_ROUNDS):
        key = _cal_product(a, tuple((x * i + 1) % 3 for x in a))
        memo[key] = memo.get(key, 0) + 1
    return time.perf_counter() - start


@dataclass
class Pass:
    walls: list  # seconds each command ran, from its start to its exit
    speeds: list  # CAL_NOMINAL_S / the calibration time around each command
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def scaled(self, times) -> float:
        return sum(t * f for t, f in zip(times, self.speeds))


def run_pass(workload: str, seed: int, trace: bool, reference: dict, deadline: float) -> Pass:
    """Run every command once between calibration samples; then check their outputs."""
    done, walls, cal = [], [], [calibrate()]
    for cmd in WORKLOADS[workload]:
        start = time.perf_counter()
        try:
            res = run_child(cmd.setup, trace, cmd.args(seed), deadline - start)
        except subprocess.TimeoutExpired:
            res = None
        walls.append(time.perf_counter() - start)
        cal.append(calibrate())
        done.append((cmd, res))
    outcomes = [
        judge(cmd, seed, res.returncode, res.stdout, res.stderr, reference) if res else Outcome(False, f"{cmd.key}: timed out")
        for cmd, res in done
    ]
    speeds = [2 * CAL_NOMINAL_S / (a + b) for a, b in zip(cal, cal[1:])]
    return Pass(walls, speeds, outcomes)


def repeat_passes(workload, seed, trace, reference, seconds, min_passes, deadline) -> list:
    """At least `min_passes` passes, then more while one more fits in `seconds`.

    A pass is started only if the slowest one so far would still end before
    the deadline.
    """
    passes = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        walls = [p.wall for p in passes]
        if passes and now + max(walls) > deadline:
            break
        if len(passes) >= min_passes and now - start + statistics.median(walls) > seconds:
            break
        passes.append(run_pass(workload, seed, trace, reference, deadline))
        if not all(o.ok for o in passes[-1].outcomes):
            break
    return passes


# ---------------------------------------------------------------------------
# environment record


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload: str, seed: int, trace: int, seconds: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list) -> dict:
    """Medians over passes of calibrated times (see `calibrate`)."""
    outcomes = [o for p in passes for o in p.outcomes]
    ok = sum(o.ok for o in outcomes)
    return {
        "wall_s": {"value": statistics.median(p.scaled(p.walls) for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(p.scaled(o.setup_s for o in p.outcomes) for p in passes), "unit": "s"},
        "items_per_s": {
            "value": statistics.median(sum(o.items for o in p.outcomes) / p.scaled(p.walls) for p in passes),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": max(o.rss_mb for o in outcomes), "unit": "MB"},
        "ok_ratio": {"value": ok / len(outcomes), "unit": "ratio"},
    }


def _layer_metrics(outcomes: list, speeds: list, overhead_ratio: float) -> tuple:
    totals = spans.merge([o.stats["profile"] for o in outcomes], speeds)
    run = {
        "verify_cases": sum(o.verify_cases for o in outcomes),
        "out_bytes": sum(o.out_bytes for o in outcomes),
        "overhead_ratio": overhead_ratio,
    }
    return spans.layer_metrics(totals, set(outcomes[0].stats["traced"]), run)


def per_layer(commands: list, untraced: list, traced: list) -> tuple:
    """(metrics, absent, per-command counts, count mismatches) over the traced passes.

    Times are calibrated like the end-to-end ones.
    """
    base = statistics.median(p.scaled(p.walls) for p in untraced)
    per_pass = [_layer_metrics(p.outcomes, p.speeds, p.scaled(p.walls) / base) for p in traced]
    absent = per_pass[0][1]
    mismatched = [n for n in spans.COUNTS if len({json.dumps(m.get(n)) for m, _ in per_pass}) > 1]
    merged = {  # counts are equal in every pass (checked); times are medians
        name: {
            "value": spec["value"] if name in spans.COUNTS else statistics.median(m[name]["value"] for m, _ in per_pass),
            "unit": spec["unit"],
        }
        for name, spec in per_pass[0][0].items()
    }
    per_command = {}
    for cmd, outcome in zip(commands, traced[0].outcomes):
        counts, _ = _layer_metrics([outcome], [1.0], 0.0)
        per_command[cmd.key] = {n: counts[n]["value"] for n in spans.COUNTS if n in counts}
    return merged, absent, per_command, mismatched


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> tuple:
    """(environment record, result object) for one benchmark run."""
    reference = json.loads(REFERENCE.read_text())
    info = environment(workload, seed, trace, seconds)
    info["trace.overhead_ratio"] = None  # measured by --trace 1 runs only
    if trace:
        untraced = repeat_passes(workload, seed, False, reference, 0, 1, deadline)
        rest = seconds - sum(p.wall for p in untraced)
        traced = repeat_passes(workload, seed, True, reference, rest, 1, deadline)
        passes = untraced + traced
    else:
        passes = repeat_passes(workload, seed, False, reference, seconds, MIN_PASSES, deadline)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    failures = [o.reason for o in outcomes if not o.ok]
    if trace and not failures:
        metrics, absent, per_command, mismatched = per_layer(WORKLOADS[workload], untraced, traced)
        info["absent"] = absent
        info["trace.overhead_ratio"] = metrics["trace.overhead_ratio"]["value"]
        info["per_command_counts"] = per_command
        failures += [f"count {n} differs between traced passes" for n in mismatched]
    elif trace:
        metrics = {}
    else:
        metrics = end_to_end(passes)
    info.update(
        passes=len(passes),
        pass_wall_s=[p.wall for p in passes],
        pass_speed=[statistics.mean(p.speeds) for p in passes],
        pass_setup_s=[sum(o.setup_s for o in p.outcomes) for p in passes],
        fail_ratio=failed / len(outcomes),
        failures=failures[:10],
    )
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def warm_up() -> None:
    """Import the library once so the measured children find compiled bytecode."""
    res = run_child((2, 1, 2, 1), False, ["bound", "--p", "2", "--m", "2"], 60)
    if res.returncode != 0 or res.stdout != b"21/5\n":
        sys.stderr.write(res.stderr.decode(errors="replace"))
        raise SystemExit("perfbench: cannot run the drinfeld_towers CLI from src/ of this checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    warm_up()
    if ns.workload != "all":
        info, result = run_workload(ns.workload, ns.seed, ns.seconds, ns.trace, T_START + BUDGET_S)
        print(json.dumps({"perfbench": info}))
        print(json.dumps(result))
        return 0
    # every workload in turn, each with the fail ratio beside its metrics
    code = 0
    for name in WORKLOADS:
        info, result = run_workload(name, ns.seed, ns.seconds, ns.trace, time.perf_counter() + BUDGET_S)
        shown = {k: f"{v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()}
        shown["fail_ratio"] = f"{info['fail_ratio']:.6g} ratio"
        print(name, json.dumps(shown))
        code |= not result["correct"]
    return code


if __name__ == "__main__":
    sys.exit(main())
