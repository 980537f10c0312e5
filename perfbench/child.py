"""One drinfeld_towers CLI command in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py P,E,M,J 0|1 <cli arguments...>

Imports the library from `src/` of this checkout and builds the canonical
context `TowerParams(P, E, M, J).field(M)` with its element list; that much is
the set-up time. Then it runs the CLI, whose stdout passes through untouched.
With tracing on (second argument 1), every public function of the library is
wrapped before the set-up, so field builds are traced too. After the command
returns, the last stderr line is `@@perfbench <json>` with the set-up time,
the peak RSS and, when traced, the span totals. The exit code is the CLI's.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MARKER = "@@perfbench "


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec.

    `ru_maxrss` is not used where /proc exists: Linux carries the parent's
    peak over exec into it, so it would report the harness's memory.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    setup, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import drinfeld_towers
    import drinfeld_towers.cli

    if Path(drinfeld_towers.__file__).resolve().parent.parent != src:
        print(f"drinfeld_towers imported from outside {src}", file=sys.stderr)
        return 2
    prof, traced = None, []
    if trace:
        import spans

        prof = spans.Profile()
        traced = spans.install(drinfeld_towers, prof)
    p, e, m, j = (int(v) for v in setup.split(","))
    drinfeld_towers.TowerParams(p, e, m, j).field(m).all_elements()
    setup_s = time.perf_counter() - T0

    code = drinfeld_towers.cli.main(argv)
    sys.stdout.flush()
    stats = {
        "setup_s": setup_s,
        "max_rss_kb": peak_rss_kb(),
    }
    if prof is not None:
        stats["traced"] = traced
        stats["profile"] = prof.to_json()
    print(MARKER + json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
