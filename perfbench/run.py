#!/usr/bin/env python3
"""The microlie benchmark: time to verdict for ``verify``, latency of ``bracket``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-pair --seed 0 --seconds 35 --trace 0

Each workload is a closed loop of ``microlie.cli.main`` calls from one client
in this process, with no threads.  Inputs come from ``--seed``.  Every output
is checked; a call that fails its check, raises, or hits its time cap counts
as failed and enters the latency samples at the cap, never as a faster pass.

Times are calibrated: next to every call the run times a frozen reference
kernel (``reference/``), and a time is scaled by REF_NOMINAL_S over the
kernel's median time in that run, so that it reads as on a machine where the
kernel takes REF_NOMINAL_S.  The raw times are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
calls untraced and then traced (see ``tracer.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--write-spec``
writes ``BENCHMARK.json`` from the definitions below.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Kernel

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_SECONDS = 35
REF_NOMINAL_S = 0.02  # about the reference kernel's time on a quiet 2-CPU box
REF_EVERY_S = 0.4  # one kernel sample per this much call time, so slow calls get several
SETUP_IMPORTS = 11
TRACE_SHARE = 1 / 3  # share of --seconds spent on the untraced half of a traced run
RUN_BUDGET_S = 165.0  # a run must exit within 180 s

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("call_p50_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


class Exceeded(BaseException):
    """A call hit its time cap.  BaseException, so the harness cannot swallow it."""


def _on_alarm(signum, frame):
    raise Exceeded


@dataclass
class Outcome:
    status: str  # "ok" | "exceeded" | "error"
    seconds: float
    exit_code: int | None = None
    stdout: str = ""


def timed_call(main, argv: list[str], cap: float) -> Outcome:
    """Run ``main(argv)`` with stdout captured and a wall-clock cap."""
    buf = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exceeded:
        return Outcome("exceeded", cap)
    except Exception as exc:  # a crash is a failed call, reported below
        print(f"call {argv[:4]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return Outcome("error", cap)
    return Outcome("ok", time.perf_counter() - start, code, buf.getvalue())


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyWorkload:
    """One ``verify --suite all`` per call; an operation is a law.

    ``report_sha256`` is the SHA-256 of the JSON report for the default
    seed 0.  Reports for other seeds are compared after writing seed 0 into
    their ``seed`` field, the only byte that depends on the seed when every
    law passes.
    """

    groupoid: str
    trials: int
    laws: int
    report_sha256: str
    cap_s: float = 60.0

    @property
    def ops_per_call(self) -> int:
        return self.laws

    def call(self, seed: int, index: int) -> tuple[list[str], None]:
        argv = ["verify", "--suite", "all", "--groupoid", self.groupoid, "--format", "json"]
        return argv + ["--trials", str(self.trials), "--seed", str(seed * 1000 + index)], None

    def failures(self, outcome: Outcome, _expected) -> int:
        if outcome.status != "ok":
            return self.laws
        try:
            report = json.loads(outcome.stdout)
            failed = sum(case["status"] != "pass" for case in report["cases"])
        except (ValueError, KeyError, TypeError):
            return self.laws
        normalized = re.sub(r'^  "seed": -?\d+,$', '  "seed": 0,', outcome.stdout, count=1, flags=re.M)
        digest = hashlib.sha256(normalized.encode()).hexdigest()
        if outcome.exit_code != 0 or report.get("ok") is not True or digest != self.report_sha256:
            failed = max(failed, 1)
        return min(failed, self.laws)


_MONOMIALS = sorted(
    (e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3), key=lambda e: (sum(e), e)
)


def _component(rng: random.Random, terms: int) -> str:
    cubic = rng.choice([e for e in _MONOMIALS if sum(e) == 3])
    support = sorted([cubic] + rng.sample([e for e in _MONOMIALS if e != cubic], terms - 1))
    text = []
    for e in support:
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        factors = [str(abs(coeff))] + [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k]
        text.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    return " ".join(text).removeprefix("+ ")


@dataclass(frozen=True)
class BracketWorkload:
    """``bracket --groupoid pair:dim=3`` of two random degree-3 fields; an operation is a call.

    Each component has ``terms`` of the 20 monomials of degree <= 3, one of
    them cubic, with coefficients in +-{1, 2, 3}: the density of the
    harness's random fields, with the support size fixed so calls cost alike.
    """

    terms: int = 12
    cap_s: float = 30.0
    ops_per_call: int = 1

    def call(self, seed: int, index: int) -> tuple[list[str], tuple[str, str]]:
        rng = random.Random(f"bracket-cli|{seed}|{index}")
        x, y = ("; ".join(_component(rng, self.terms) for _ in range(3)) for _ in range(2))
        return ["bracket", "--groupoid", "pair:dim=3", "--x", x, "--y", y], (x, y)

    def failures(self, outcome: Outcome, fields: tuple[str, str]) -> int:
        from microlie.oracles import PolyVectorField, classical_vf_bracket
        from microlie.vfexpr import VectorFieldSyntaxError, parse_vector_field

        if outcome.status != "ok" or outcome.exit_code != 0:
            return 1
        x, y = (PolyVectorField(parse_vector_field(f, 3)) for f in fields)
        try:
            got = parse_vector_field(outcome.stdout.strip(), 3)
        except VectorFieldSyntaxError:
            return 1
        return int(got != classical_vf_bracket(x, y).components)


WORKLOADS = {
    "verify-pair": (
        "the CLI default groupoid and the acceptance-gate config; poly.compose over Weil coefficients dominates",
        VerifyWorkload(
            "pair:dim=2:deg=2", 3, 36, "6ce91d4f18a08d88769c000c806e77c6120a05f6d622a6d6bcc86bab79dab63c"
        ),
    ),
    "verify-gauge": (
        "gauge:base=4:k=3 computes Weil matrices and never touches poly: the bypass for any poly change",
        VerifyWorkload(
            "gauge:base=4:k=3", 3, 36, "dbfad4fe8e6724ae1112889496d979267b508e2bf6855ae6f85474c070d5f940"
        ),
    ),
    "bracket-cli": (
        "interactive bracket of dense degree-3 fields in dimension 3: few large compositions per request",
        BracketWorkload(),
    ),
}


# -- measurement ------------------------------------------------------------------


def import_microlie():
    """Import the working tree's package, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import microlie
    from microlie import cli

    if not Path(microlie.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"microlie imported from {microlie.__file__}, not from {SRC}")
    return cli


def setup_seconds(kernel: Kernel) -> tuple[float, float]:
    """Median time to import microlie.cli in a fresh interpreter (after one warm-up).

    Returns it with the median time of the reference kernel, run before each import.
    """
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import microlie.cli\n"
        "print(time.perf_counter() - start)\n"
        "print(microlie.cli.__file__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times, refs = [], []
    for _ in range(SETUP_IMPORTS + 1):
        refs.append(kernel.seconds())
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, path = child.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"fresh interpreter imported microlie from {path}")
        times.append(float(seconds))
    return statistics.median(times[1:]), statistics.median(refs[1:])


def run_calls(cli, kernel, calls, cap_s: float, seconds: float | None = None, budget_end: float | None = None):
    """Run ``calls`` ((argv, expected) pairs) in order, each under a wall-clock cap.

    Times the reference kernel before each call, once per REF_EVERY_S of the
    previous call's time.  Stops starting calls once ``seconds`` have passed.
    With ``budget_end`` the cap is the time left until then.  Returns
    (argv, expected, outcome, kernel times) tuples.
    """
    results = []
    start = time.perf_counter()
    last = 0.0
    for argv, expected in calls:
        refs = [kernel.seconds() for _ in range(max(1, round(last / REF_EVERY_S)))]
        cap = cap_s if budget_end is None else max(1.0, budget_end - time.perf_counter())
        outcome = timed_call(cli.main, argv, cap)
        results.append((argv, expected, outcome, refs))
        last = outcome.seconds
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return results


def check(workload, results) -> tuple[list[float], int, int]:
    """Check every output: (latency samples, operations attempted, operations failed).

    A failed call enters the samples at no less than its cap.
    """
    samples, failed = [], 0
    for _argv, expected, outcome, _refs in results:
        bad = workload.failures(outcome, expected)
        failed += bad
        samples.append(max(outcome.seconds, workload.cap_s) if bad else outcome.seconds)
    return samples, len(results) * workload.ops_per_call, failed


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(cli, workload, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    kernel = Kernel()
    setup, setup_ref = setup_seconds(kernel)
    calls = (workload.call(seed, index) for index in itertools.count())
    results = run_calls(cli, kernel, calls, workload.cap_s, seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples, attempted, failed = check(workload, results)
    p50, p75 = statistics.median(samples), percentile(samples, 0.75)
    ref = statistics.median(r for *_, refs in results for r in refs)
    metrics = {
        "setup_s": setup * REF_NOMINAL_S / setup_ref,
        "call_p50_s": p50 * REF_NOMINAL_S / ref,
        "peak_rss_mib": rss_mib,
    }
    # the highest percentile with at least 10 samples beyond it, when there is one
    tail_q = (len(samples) - 10) / len(samples)
    tail_note = (
        f"tail: p{100 * tail_q:.0f} of {len(samples)} calls, raw {percentile(samples, tail_q):.6g} s"
        if tail_q >= 0.5
        else f"tail: too few calls ({len(samples)}) for a percentile with 10 samples beyond it"
    )
    notes = [
        f"setup_s: median of {SETUP_IMPORTS} fresh imports of microlie.cli, raw {setup:.6g} s,"
        f" reference kernel {setup_ref * 1e3:.4g} ms",
        f"call_p50_s: median of {len(samples)} calls, raw {p50:.6g} s, reference kernel {ref * 1e3:.4g} ms",
        f"p75: {p75 * REF_NOMINAL_S / ref:.6g} s, raw {p75:.6g} s",
        tail_note,
        f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)",
    ]
    return metrics, attempted, failed, notes


def measure_traced(cli, workload, seed: int, seconds: float, label: str) -> tuple[dict, int, int, list[str]]:
    """Run calls untraced for a share of ``seconds``, then the same calls traced."""
    from tracer import Tracer

    started = time.perf_counter()
    calls = (workload.call(seed, index) for index in itertools.count())
    kernel = Kernel()
    plain = run_calls(cli, kernel, calls, workload.cap_s, seconds * TRACE_SHARE)
    tracer = Tracer()
    tracer.install()
    again = [(argv, expected) for argv, expected, *_ in plain]
    traced = run_calls(cli, kernel, again, workload.cap_s, budget_end=started + RUN_BUDGET_S)
    ratio = sum(r[2].seconds for r in traced) / sum(r[2].seconds for r in plain)
    tracer.check_complete()  # again, for names bound while the calls ran
    metrics = tracer.metrics(overhead_ratio=ratio)  # before the checks, which run traced code
    _, attempted, failed = check(workload, plain + traced)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{label}.json"
    trace_file.write_text(json.dumps(tracer.record()))
    notes = [
        f"traced {len(traced)} calls; spans and counters in {trace_file.relative_to(ROOT)}",
        f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)",
    ]
    return metrics, attempted, failed, notes


UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}


def write_spec() -> None:
    from tracer import PER_LAYER

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _w) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "microlie" / "cli.py").is_file():
        print(f"error: no microlie sources under {SRC}", file=sys.stderr)
        return 2
    cli = import_microlie()
    signal.signal(signal.SIGALRM, _on_alarm)
    _why, workload = WORKLOADS[args.workload]
    if args.trace:
        from tracer import PER_LAYER

        label = f"{args.workload}-seed{args.seed}"
        metrics, attempted, failed, notes = measure_traced(cli, workload, args.seed, args.seconds, label)
        units = {name: unit for name, unit, _b in PER_LAYER}
    else:
        metrics, attempted, failed, notes = measure(cli, workload, args.seed, args.seconds)
        units = UNITS
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
