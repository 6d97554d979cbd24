#!/usr/bin/env python3
"""Search benchmark for legendre_pairs.

    python3 bench/run.py --workload dfs_scan_l45 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
process, one thread, closed loop: each search starts when the previous one
has returned.  A run sets the workload up, then repeats its pass of searches
while another pass still fits in ``--seconds`` (at least one pass), and checks
every output outside the timed region.  The first pass gets the full check;
later passes must reproduce its counts and digests exactly.

Every timing is host-adjusted: fixed work like the library's (the gauge: a
pure-Python loop and small numpy FFTs) is timed around each search and after
each set-up, and the wall time is scaled to a host on which the gauge takes
``GAUGE_REF_MS``.  A 2-vCPU VM on a shared host changes speed by up to 2x
for stretches of seconds to minutes, with CPU time tracking wall time, so raw
times of identical runs spread too far to bound.  Raw times stay in the
record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the same searches, requires them to give the
same counts, and reports the per-layer metrics (per pass) and the tracing
overhead: the drop in nodes per second from the untraced to the traced
passes.  The last line of standard output is the result object; the full
record goes to ``.bench_out/`` in the checkout.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the checkout has no
``src/legendre_pairs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Request, pairs_digest

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5  # this process plus SETUP_SAMPLES - 1 fresh ones
GAUGE_LOOPS = 30_000
# ±1 sequences of length 85, the shape psd_vector sees on orbit_sample_l85
GAUGE_SEQS = tuple(tuple(random.Random(i).choice((-1, 1)) for _ in range(85))
                   for i in range(256))
GAUGE_REF_MS = 10.0  # gauge time of the nominal host that adjusted times refer to
ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter


@dataclass
class Outcome:
    label: str
    engine: str
    wall_s: float
    adj_s: float  # wall_s on the nominal host
    nodes: int
    pairs: int
    digest: str
    problems: List[str]


def run_pass(requests: List[Request], reference: Optional[List[Outcome]] = None,
             tracer: Optional[Tracer] = None) -> List[Outcome]:
    """Run every request once; check fully, or against ``reference`` counts."""
    out = []
    gauge_before = gauge_ms()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request += 1
        start = clock()
        res = req.search()
        wall = clock() - start
        gauge_after = gauge_ms()
        o = Outcome(req.label, req.engine, wall, adjusted(wall, gauge_before, gauge_after),
                    res.nodes_visited, len(res.pairs), pairs_digest(res.pairs), [])
        gauge_before = gauge_after
        if reference is None:
            o.problems = req.check(res)
        else:
            ref = reference[i]
            if (o.nodes, o.pairs, o.digest) != (ref.nodes, ref.pairs, ref.digest):
                o.problems = [f"counts differ from the first pass: nodes {o.nodes} vs "
                              f"{ref.nodes}, pairs {o.pairs} vs {ref.pairs}"]
        out.append(o)
    return out


def run_for(requests: List[Request], seconds: float,
            between: Callable[[], None] = lambda: None) -> List[List[Outcome]]:
    """Repeat whole passes while one more is expected to end within ``seconds``;
    ``between`` runs after each pass."""
    passes: List[List[Outcome]] = []
    start = clock()
    while True:
        began = clock()
        passes.append(run_pass(requests, passes[0] if passes else None))
        between()
        if clock() - start + (clock() - began) > seconds:
            return passes


def gauge_ms() -> float:
    """One timing, in ms, of fixed work like the library's: a pure-Python loop
    and small numpy FFTs.  It tracks the host's current speed."""
    import numpy as np

    start = clock()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i % 7
    for seq in GAUGE_SEQS:
        np.abs(np.fft.fft(np.asarray(seq, dtype=float))) ** 2
    return 1e3 * (clock() - start)


def adjusted(wall: float, gauge_before: float, gauge_after: float) -> float:
    """``wall`` scaled to the nominal host, by the gauge timed around it."""
    return wall * 2 * GAUGE_REF_MS / (gauge_before + gauge_after)


def rate(outcomes: List[Outcome]) -> float:
    """Median over searches of nodes_visited per adjusted second.  (A selection
    is a node of orbit_search.)"""
    return statistics.median(o.nodes / o.adj_s for o in outcomes)


def search_time(passes: List[List[Outcome]]) -> float:
    """Median over a pass's searches of each search's median adjusted time."""
    return statistics.median(statistics.median(p[i].adj_s for p in passes)
                             for i in range(len(passes[0])))


def tail(walls: List[float]) -> Optional[dict]:
    """The highest percentile of adjusted search time with at least ten
    searches beyond it."""
    k = len(walls) - 10
    if k < 1:
        return None
    return {"percentile": math.floor(100 * k / len(walls)),
            "value_s": sorted(walls)[k - 1], "searches": len(walls)}


def timed_setup(setup: Callable[[int], List[Request]], seed: int) -> tuple:
    """Run ``setup(seed)``; return its requests and its adjusted time.  The
    gauge runs only after set-up, because its first call imports numpy and
    set-up time counts that import."""
    start = clock()
    requests = setup(seed)
    wall = clock() - start
    return requests, adjusted(wall, gauge_ms(), gauge_ms())


def calibration_ms() -> float:
    """Best of three gauge timings."""
    return min(gauge_ms() for _ in range(3))


def host_record() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "legendre_pairs").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_probe(args) -> float:
    """Adjusted set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return float(subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                check=True).stdout.split()[-1])


def summary(passes: List[List[Outcome]]) -> dict:
    return {
        "passes": len(passes),
        "first_pass": [asdict(o) for o in passes[0]],
        "walls_s": [[o.wall_s for o in p] for p in passes],
        "adjusted_s": [[o.adj_s for o in p] for p in passes],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, requests, setup_first: float) -> tuple:
    setups = [setup_first]

    def probe() -> None:
        # spread over the run, so that one fast or slow stretch of the host
        # does not set every sample
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(args))

    passes = run_for(requests, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        probe()
    outs = [o for p in passes for o in p]
    failed = sum(1 for o in outs if o.problems)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "nodes_per_s": metric(rate(outs), "1/s"),
        "search_p50_s": metric(search_time(passes), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "verified_ratio": metric((len(outs) - failed) / len(outs), "ratio"),
    }
    record = {
        "setup_samples_s": setups,
        "tail": tail([o.adj_s for o in outs]),
        "pairs_per_s": sum(o.pairs for o in outs) / sum(o.wall_s for o in outs),
        **summary(passes),
    }
    return outs, metrics, record, None


def per_layer(args, requests, tracer: Tracer) -> tuple:
    """Alternate untraced and traced passes of the same searches while another
    pair of passes fits in ``--seconds`` (at least one pair)."""
    untraced: List[List[Outcome]] = []
    traced: List[List[Outcome]] = []
    start = clock()
    while True:
        began = clock()
        untraced.append(run_pass(requests, untraced[0] if untraced else None))
        with tracer.installed():
            traced.append(run_pass(requests, untraced[0], tracer))
        if clock() - start + (clock() - began) > args.seconds:
            break
    work = {}
    for o in traced[0]:
        nodes, pairs = work.get(o.engine, (0, 0))
        work[o.engine] = (nodes + o.nodes, pairs + o.pairs)
    layers = layer_metrics(tracer.spans, work, len(traced))
    metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    u = [o for p in untraced for o in p]
    t = [o for p in traced for o in p]
    metrics["trace.overhead_pct"] = metric(100 * (1 - rate(t) / rate(u)), "%")
    record = {"untraced": summary(untraced), "traced": summary(traced)}
    return u + t, metrics, record, tracer.spans


def write_spans(path: Path, spans) -> None:
    t0 = min((s[4] for s in spans), default=0.0)
    rows = [[sid, parent, req, name, round(1e6 * (start - t0), 1), round(1e6 * (end - start), 1)]
            for sid, parent, req, name, start, end in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["span", "parent", "request", "layer", "start_us", "duration_us"],
                   "spans": rows}, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it and exit")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "legendre_pairs" / "__init__.py").is_file():
        print(f"error: no legendre_pairs package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup = WORKLOADS[args.workload]

    if args.setup_only:
        print(timed_setup(setup, args.seed)[1])
        return 0

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            requests = setup(args.seed)
        calib_before = calibration_ms()
        outs, metrics, record, spans = per_layer(args, requests, tracer)
    else:
        requests, setup_first = timed_setup(setup, args.seed)
        calib_before = calibration_ms()
        outs, metrics, record, spans = end_to_end(args, requests, setup_first)

    calib_after = calibration_ms()

    failed = [o for o in outs if o.problems]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(),
              "calibration_ms": [calib_before, calib_after], "metrics": metrics,
              "failures": [{"label": o.label, "problems": o.problems} for o in failed],
              **record}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        write_spans(out_dir / f"{stem}.spans.json", spans)

    for o in failed:
        print(f"FAILED {args.workload} {o.label}: {'; '.join(o.problems)}", file=sys.stderr)
    if not args.trace:
        t = record["tail"]
        print(f"adjusted search time p{t['percentile']} = {t['value_s']:.4f} s over {t['searches']} searches"
              if t else f"no percentile has ten searches beyond it ({len(outs)} searches)",
              file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(outs), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
