#!/usr/bin/env python3
"""Seeded end-to-end benchmark of eqdesign's check, witness, design and verify.

Run from the repository root:

    python3 bench/run.py --workload markov-design --seed 0 --seconds 24 --trace 0

Workloads: markov-design, nfg-design, markov-closed-form, cli (README.md says
why each exists).  The run builds its inputs from ``--seed``, times whole
passes over one operation plan in a closed loop with a single caller for
about ``--seconds`` seconds, checks every output after the loop, and prints
a summary followed by one JSON line.  With ``--trace 0`` the JSON carries the
end-to-end metrics; with ``--trace 1`` every operation also runs a second
time with the layer tracer installed, and the JSON carries the per-layer
metrics.  Per-operation rows (and spans, when traced) are written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("markov-design", "nfg-design", "markov-closed-form", "cli")
# Enough operations per run that at least ten latencies lie beyond p90.
MIN_OPS = 110
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Run in a fresh interpreter; prints how long importing eqdesign took.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import eqdesign, eqdesign.io; "
    "print(time.perf_counter() - start)"
)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)


class DeadlineExceeded(Exception):
    """Raised by SIGALRM when an operation runs past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Record:
    index: int
    latency: float
    key: object
    error: Optional[str]
    wrong: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


class Outputs:
    """Distinct outputs per operation, kept for the checks after the loop.

    A record keeps only a digest of its output, so memory stays flat over a
    run however many passes it makes; repeated identical outputs are stored
    and checked once.
    """

    def __init__(self, fingerprint) -> None:
        self.fingerprint = fingerprint
        self.pending: dict = {}

    def add(self, index, out):
        key = (index, self.fingerprint(out))
        self.pending.setdefault(key, out)
        return key


def run_op(index, op, deadline, outputs, tracer=None, op_id=None) -> Record:
    """Run one operation under an in-process SIGALRM deadline, traced when a
    tracer is given."""
    scope = tracer.activate(op_id) if tracer is not None else contextlib.nullcontext()
    out = error = None
    with scope:
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            error = "deadline"
        except Exception as exc:  # the operation failed; record why and go on
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    if error is not None:
        return Record(index, deadline if error == "deadline" else latency, None, error)
    return Record(index, latency, outputs.add(index, out), None)


def measure(plan, seconds, deadline, min_ops, outputs, tracer=None):
    """Closed loop over whole passes of ``plan``.

    Timed wall time is the sum of operation latencies.  The loop stops once
    ``min_ops`` operations ran and another pass would end past ``seconds``.
    With a tracer, each operation runs twice in a row, untraced and then
    traced, so both runs see the same machine state; the host's speed drifts
    by tens of percent over seconds, which would swamp a comparison of two
    separate phases.  Returns untraced records and time, traced records and
    time, and the number of passes.
    """
    records: list[Record] = []
    traced: list[Record] = []
    wall = traced_wall = 0.0
    done = 0
    while True:
        for index, op in enumerate(plan):
            rec = run_op(index, op, deadline, outputs)
            records.append(rec)
            wall += rec.latency
            if tracer is not None:
                rec = run_op(index, op, deadline, outputs, tracer, len(traced))
                traced.append(rec)
                traced_wall += rec.latency
        done += 1
        spent = wall + traced_wall
        if len(records) >= min_ops and spent * (done + 1) / done > seconds:
            break
    return records, wall, traced, traced_wall, done


def check_records(plan, records, outputs) -> None:
    """Check each distinct output once and mark every record that has it."""
    verdicts: dict = {}
    for key, out in outputs.pending.items():
        try:
            verdicts[key] = plan[key[0]].check(out)
        except Exception as exc:  # a malformed output fails its check
            verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
    for rec in records:
        if rec.error is None:
            rec.wrong = verdicts[rec.key]


def end_to_end(records, wall, setup_s, rss_kb) -> dict:
    lat = [1e3 * r.latency for r in records]
    ok = sum(r.ok for r in records)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok / wall,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "ok_share": ok / len(records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def op_report(plan, records, outputs, highs_status) -> list[dict]:
    """One row per planned operation: outcome, latency, program size, pivots,
    and the HiGHS re-solve of the same program (LP operations only)."""
    by_op: dict = {}
    for rec in records:
        by_op.setdefault(rec.index, []).append(rec)
    rows = []
    for index, op in enumerate(plan):
        mine = by_op.get(index, [])
        if op.program is not None:
            highs_status(op)
        last = mine[-1] if mine else None
        out = outputs.pending.get(last.key) if last is not None else None
        outcome = None
        if last is not None:
            outcome = last.error or last.wrong or getattr(
                getattr(out, "status", None), "value", "ok"
            )
        rows.append(
            {
                "op": op.name,
                "runs": len(mine),
                "failed": sum(not r.ok for r in mine),
                "latency_ms": statistics.median(1e3 * r.latency for r in mine)
                if mine
                else None,
                "outcome": outcome,
                "pivots": getattr(out, "iterations", None),
                **op.info,
            }
        )
    return rows


def bare_import_ms(ctx) -> float:
    """Median wall time of a child that only imports ``eqdesign.cli``."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import eqdesign.cli"],
            env=ctx.env(),
            cwd=ctx.root,
            check=True,
        )
        walls.append(1e3 * (time.perf_counter() - start))
    return statistics.median(walls)


def import_seconds(own: float) -> float:
    """Median import time of ``eqdesign``: this process's own import and
    ``IMPORT_REPEATS - 1`` fresh children, one at a time, timed the same way.
    A single import varies by tens of percent from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times = [own]
    for _ in range(IMPORT_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny plans and no operation minimum, for the benchmark's tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "eqdesign")):
        print(f"error: no eqdesign sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import eqdesign  # noqa: F401  (timed: import is part of set-up)
    import eqdesign.io  # noqa: F401

    import_s = time.perf_counter() - start

    import spans
    import workloads as wl

    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        return _run(args, workdir, import_s, wl, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, import_s, wl, spans) -> int:
    name, seed, smoke = args.workload, args.seed, args.smoke
    ctx = wl.CliContext(root=ROOT, workdir=workdir)
    prepare = {
        "markov-design": lambda: wl.plan_markov_design(seed, workdir, smoke),
        "nfg-design": lambda: wl.plan_nfg_design(seed, workdir, smoke),
        "markov-closed-form": lambda: wl.write_closed_form(seed, workdir, smoke),
        "cli": lambda: wl.write_cli(seed, workdir, smoke),
    }[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = prepare()
        setup_times.append(time.perf_counter() - start)
    prepare_s = statistics.median(setup_times)
    if name == "markov-closed-form":
        plan = wl.plan_closed_form(state, workdir)
    elif name == "cli":
        plan = wl.plan_cli(state, ctx, smoke)
    else:
        plan = state

    deadline = wl.DEADLINE[name]
    min_ops = 1 if smoke else MIN_OPS
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    outputs = Outputs(wl.fingerprint)
    tracer = spans.Tracer() if args.trace else None
    ctx.tracer = tracer
    records, wall, traced, traced_wall, passes = measure(
        plan, args.seconds, deadline, 1 if args.trace else min_ops, outputs, tracer
    )
    rss_kb = resource.getrusage(who).ru_maxrss
    # The import children run after peak RSS is read, so that cli's figure
    # covers its CLI children only.
    setup_s = import_seconds(import_s) + prepare_s
    all_records = records + traced
    if args.trace:
        import_ms = bare_import_ms(ctx) if name == "cli" else 0.0
        metrics = spans.layer_metrics(
            tracer.spans, passes, import_ms, traced_wall / wall - 1.0
        )
    check_records(plan, all_records, outputs)
    e2e = end_to_end(records, wall, setup_s, rss_kb)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}")
    report = op_report(plan, all_records, outputs, wl.highs_status)
    with open(stem + ".ops.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if args.trace:
        tracer.dump(stem + ".spans.json")

    attempted = len(all_records)
    failed = sum(not r.ok for r in all_records)
    wrong = sum(r.wrong is not None for r in all_records)
    _summary(name, seed, records, wall, passes, e2e, all_records, plan)
    _pinned_table(report)
    if args.trace:
        for metric, entry in metrics.items():
            print(f"  {metric:<24} {entry['value']:>14.4f} {entry['unit']}")
    result = {
        # Wrong outputs make the run incorrect; deadlines and raised errors
        # are failures but not wrong answers.
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if args.trace else e2e,
    }
    print(json.dumps(result))
    return 0


def _summary(name, seed, records, wall, passes, e2e, all_records, plan) -> None:
    lat = sorted(r.latency for r in records)
    p90 = e2e["op_p90_ms"]["value"] / 1e3
    print(
        f"{name} seed {seed}: {len(records)} operations in {passes} pass(es), "
        f"{wall:.2f} s timed, {sum(x > p90 for x in lat)} latencies beyond p90"
    )
    for metric, entry in e2e.items():
        print(f"  {metric:<24} {entry['value']:>14.4f} {entry['unit']}")
    failed = sum(not r.ok for r in records)
    print(f"  {'failed_share':<24} {failed / len(records):>14.4f} share")
    reasons: dict = {}
    for rec in all_records:
        if not rec.ok:
            key = (plan[rec.index].name, rec.error or f"wrong: {rec.wrong}")
            reasons[key] = reasons.get(key, 0) + 1
    for (op_name, why), count in sorted(reasons.items()):
        print(f"  failed x{count}: {op_name}: {why}")


def _pinned_table(report) -> None:
    """The pinned design programs beside their HiGHS re-solve, as in the
    ROADMAP baseline table."""
    rows = [row for row in report if "#pinned" in row["op"]]
    if rows:
        print("  pinned programs: vars x rows, in-package ms, pivots, outcome | HiGHS")
    for row in rows:
        print(
            f"    {row['op']:<36} {row['vars']:>5} x {row['rows']:<5}"
            f" {row['latency_ms']:9.1f} ms {row['pivots'] or '-':>6}"
            f" {row['outcome']:<9} | {row['highs_status']}"
            f" {row['highs_objective'] if row['highs_objective'] is not None else '-'}"
            f" {1e3 * row['highs_s']:.1f} ms"
        )


if __name__ == "__main__":
    sys.exit(main())
