"""Benchmark of the schurdefect toolkit: one command, three workloads.

    python3 schurbench/run.py --workload {filiform,classify,census}
                              --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It imports the program from ``src/``
unmodified, draws the workload's inputs from the seed, and repeats whole
rounds of the workload's operations (ops) until ``--seconds`` have passed.
Every op is timed on its own, next to a fixed reference loop timed just
before it (``reference_loop``), and its output is checked against the
benchmark's independent computation (``oracles``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the program's public functions (``spans``) and reports the per-layer
metrics instead, and writes the spans to ``schurbench/out/``.

It exits with code 2, printing no result, when the program's source is not
there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4        # extra set-ups, each in a fresh interpreter
PROBE_TIMEOUT_S = 60
REF_PER_S = 100         # reference loops per second of the op they precede
REF_MAX = 25            # at most this many before one op attempt

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def set_up(workload: str, seed: int):
    """Import the program from the checkout and generate the inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module("schurdefect")
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"schurdefect was imported from {api.__file__}, "
                          f"not from {SRC}")
    return api, WORKLOADS[workload](api, seed)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so that the import is measured."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


_REF_ROWS = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3)
              for j in range(6)] for i in range(6)]


def reference_loop() -> int:
    """A fixed piece of pure-Python work, about 1 ms: a 6 x 6 Fraction row
    reduction and a dictionary tally, the kinds of work the program does.
    It never calls the program, so a change to the program cannot move it;
    only the machine's speed at the moment does."""
    m = [row[:] for row in _REF_ROWS]
    rank = 0
    for c in range(len(m)):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    tally: dict[int, int] = {}
    for i in range(1000):
        tally[i % 97] = tally.get(i % 97, 0) + i
    return rank


def reference_time(count: int) -> float:
    """Median seconds of `count` reference loops run back to back."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def attempt(op) -> tuple[float, str | None, bool]:
    """Run one op: (seconds, problem or None, whether the output was wrong).
    The check runs outside the timed interval."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        return time.perf_counter() - t0, f"{op.label}: raised {exc!r}", False
    elapsed = time.perf_counter() - t0
    try:
        problem = op.check(out)
    except Exception as exc:  # an output the check cannot read is wrong
        problem = f"check raised {exc!r}"
    return elapsed, (f"{op.label}: {problem}" if problem else None), bool(problem)


def measure(ops, seconds: float) -> dict:
    """Whole rounds of `ops` until `seconds` have passed (at least one).

    Each op attempt is preceded by reference loops, about REF_PER_S per
    second of the op's previous attempt (1 to REF_MAX), so that they sample
    the machine's speed over a stretch comparable to the op's.
    samples[i] holds op i's seconds in each round and ratios[i] those
    seconds divided by the median reference loop just before."""
    samples: list[list[float]] = [[] for _ in ops]
    ratios: list[list[float]] = [[] for _ in ops]
    problems: list[str] = []
    wrong = 0
    start = time.perf_counter()
    while True:
        for op, times, rel in zip(ops, samples, ratios):
            count = min(REF_MAX, 1 + int(times[-1] * REF_PER_S)) if times else 1
            ref = reference_time(count)
            elapsed, problem, is_wrong = attempt(op)
            times.append(elapsed)
            rel.append(elapsed / ref)
            if problem:
                problems.append(problem)
                wrong += is_wrong
        if time.perf_counter() - start >= seconds:
            break
    return {"samples": samples, "ratios": ratios, "problems": problems,
            "wrong": wrong}


def op_costs(result: dict) -> list[float]:
    """Each op's cost in reference loops: the median over the run's rounds
    of its time divided by the reference loop timed just before it.

    On a shared host the machine's speed drifts by a third over minutes,
    and a run can fall wholly into a slow spell; an op's raw time follows
    the drift, but its ratio to a loop timed beside it does not."""
    return [statistics.median(rel) for rel in result["ratios"]]


def round_seconds(result: dict) -> float:
    """One round's raw time: the sum of each op's median seconds."""
    return sum(statistics.median(times) for times in result["samples"])


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, from Linux's
    VmHWM. getrusage's ru_maxrss is not used: across fork and exec it keeps
    the parent's resident size, so it would report the launcher's memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    costs = op_costs(result)
    p90 = (statistics.quantiles(costs, n=10, method="inclusive")[8]
           if len(costs) > 1 else costs[0])
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "round_ref": _metric(sum(costs), "ref"),
        "op_ref_p50": _metric(statistics.median(costs), "ref"),
        "op_ref_p90": _metric(p90, "ref"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="print the set-up time of this interpreter and exit")
    args = ap.parse_args(argv)

    if not (SRC / "schurdefect" / "__init__.py").is_file():
        print(f"schurbench: the program's source is missing ({SRC}/schurdefect); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    api, ops = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        tracer = spans.Tracer()
        tracer.install(api)
        result = measure(ops, args.seconds)
        rounds = len(result["samples"][0])
        metrics = tracer.per_layer(rounds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     workload=args.workload, seed=args.seed, rounds=rounds,
                     round_ref=sum(op_costs(result)),
                     round_s=round_seconds(result))
    else:
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        result = measure(ops, args.seconds)
        metrics = end_to_end(result, setup_samples)

    for problem in result["problems"][:10]:
        print(f"schurbench: {problem}", file=sys.stderr)
    print(f"schurbench: {len(result['samples'][0])} rounds; one round took "
          f"{round_seconds(result):.4f} s, the reference loop "
          f"{reference_time(25) * 1e3:.4f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": sum(len(times) for times in result["samples"]),
        "failed": len(result["problems"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
