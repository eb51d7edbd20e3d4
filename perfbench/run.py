"""cellform benchmark: one workload, one seed, timed passes in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  Single process, closed loop with one client: each pass is a fresh
``worker.py`` interpreter that sets up, runs its ops one after another and
checks every output.  Passes repeat until the next one would end after
``--seconds``, and at least three times.  With ``--trace 1`` each repetition
is an untraced and a traced pass with the same inputs, in alternating order.

Workloads (BENCHMARK.json says why each is there):
  enumerate      enumerate_convergent(10), then add_configuration for each of
                 the 771 classes in a seeded order, then one save.
  conj1_cold     verify_conjecture1 at p=7 for each of the 105 classes of N=9,
                 seeded order, one shared catalog that starts empty.
  catalog_mixed  200 seeded coeffs requests, each opening a fresh Catalog on a
                 catalog pre-filled with the 900 classes of N=5..10 and terms
                 0..8 for N<=9; 20 of them ask for 1-2 more terms.
  congruences    seven ops: verify_thm1(4,1301), verify_thm2(401),
                 verify_beukers(999), lemma_suite(p) for odd p<=97,
                 gamma_eta12_pointcount(2999), the hyper command at p=97 and
                 the order-4 fit of sigma8, as one fixed script (the seed is
                 recorded but changes nothing).

End-to-end metrics (--trace 0), from the untraced passes:
  wall_s       timed phase of one pass (all ops, back to back), median
  op_p50_ms    median over ops of each op's mean latency over the passes
               (every pass of a run has the same ops)
  op_tail_ms   over the latencies of every op of every pass, the highest
               percentile that leaves 10 of a pass's ops beyond it, or the
               maximum when a pass has fewer than 11 ops; the percentile is
               fixed by the op count and printed
  The host switches between a fast and a slow speed, up to 1.7x apart, in
  spells of a fraction of a second to minutes.  The pooled median of
  sub-millisecond ops jumps between the two speeds, while the median of
  per-op means moves smoothly with the share of time spent in each; the
  pooled tail was the steadiest tail measured.  A per-op minimum over
  passes was tried and spread most of all.
  setup_s      imports and input generation of a pass, median; catalog_mixed
               adds its once-per-run catalog fill
  peak_rss_mb  peak resident memory of the pass process (getrusage), median
Failed ops (an op raises or its output differs from the reference) are
reported as ``failed`` out of ``attempted``; fail_ratio is printed above the
result line.

Per-layer metrics (--trace 1) are medians over the traced passes (see
tracer.py), plus ``trace.overhead_s``: the number of spans a traced pass
records times the cost of one wrapper, timed on a wrapped no-op in the same
process, plus the time its counters took.  Traced minus untraced wall_s is
written to result.json as well; it is noisier than the overhead itself.
Every run also writes its passes, machine record, stage table and spans
under ``.perfbench_runs/<workload>-trace<0|1>/`` in the checkout.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS

WORKLOADS = ("enumerate", "conj1_cold", "catalog_mixed", "congruences")
END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170  # a run must end within 180 s
MIN_PASSES = 3  # untraced passes, and pairs of a traced run: a median of three rejects one slow pass


def tail_index(n_ops: int) -> int:
    """Index into sorted latencies with 10 ops beyond it; the maximum below 11 ops."""
    return n_ops - 11 if n_ops > 10 else n_ops - 1


def tail_percentile(n_ops: int) -> float:
    return 100.0 * (tail_index(n_ops) + 1) / n_ops


def op_stats(passes: list[dict]) -> tuple[float, float]:
    """p50 over per-op means and tail over every op sample, in ms.

    Every pass has the same ops, so the tail rank scales with the pass count
    and the tail stays at the percentile its op count fixes.
    """
    per_op = [statistics.fmean(lat) for lat in zip(*(p["latency_s"] for p in passes))]
    pooled = sorted(lat for p in passes for lat in p["latency_s"])
    rank = (tail_index(len(per_op)) + 1) * len(passes) - 1
    return 1e3 * statistics.median(per_op), 1e3 * pooled[rank]


class Runner:
    def __init__(self, seed: int, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.started = time.perf_counter()
        self.count = 0
        src = str(ROOT / "src")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else src,
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def child(self, workload: str, trace: int, fill: Path | None = None) -> dict:
        """Run one worker pass with its own cache and temp directory."""
        self.count += 1
        work = self.out_dir / f"pass{self.count}"
        work.mkdir()
        out = self.out_dir / f"pass{self.count}.json"
        env = dict(self.env, CELLFORM_CACHE_DIR=str(work / "cache"), XDG_CACHE_HOME=str(work / "xdg"), TMPDIR=str(work))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(self.seed),
               "--trace", str(trace), "--work-dir", str(work), "--out", str(out)]
        if fill is not None:
            cmd += ["--fill", str(fill)]
        budget = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(budget, 1))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"pass {self.count} of {workload} did not end within the time limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"pass {self.count} of {workload} exited with code {proc.returncode}")
        if workload != "fill":
            shutil.rmtree(work)
        return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cellform benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cellform" / "__init__.py").is_file():
        print(f"no cellform sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(args.seed, out_dir)

    fill_s, fill = 0.0, None
    if args.workload == "catalog_mixed":
        fill_s = runner.child("fill", 0)["setup_s"]
        fill = out_dir / f"pass{runner.count}" / "catalog.json"

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        # A traced run makes pairs of passes and alternates which goes first.
        pair = (0, 1) if len(traced) % 2 == 0 else (1, 0)
        for trace in pair if args.trace else (0,):
            (traced if trace else plain).append(runner.child(args.workload, trace, fill))
        last = time.perf_counter() - t
        if len(plain) >= MIN_PASSES and time.perf_counter() - start + last > args.seconds:
            break
    if fill is not None:
        shutil.rmtree(fill.parent)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [p["problems"] for p in passes if p["problems"]]
    digests_agree = len({p["digest"] for p in passes}) == 1
    correct = not problems and digests_agree

    med = statistics.median
    n_ops = plain[0]["attempted"]
    op_p50_ms, op_tail_ms = op_stats(plain)
    e2e = {
        "wall_s": med(p["wall_s"] for p in plain),
        "op_p50_ms": op_p50_ms,
        "op_tail_ms": op_tail_ms,
        "setup_s": fill_s + med(p["setup_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": plain[0]["machine"],
        "passes": len(plain),
        "ops_per_pass": n_ops,
        "tail_percentile": tail_percentile(n_ops),
        "fill_s": fill_s,
        "end_to_end": e2e,
        "fail_ratio": failed / attempted,
        "digests_agree": digests_agree,
        "problems": problems[:5],
        "per_pass": [{k: p[k] for k in ("trace", "setup_s", "wall_s", "peak_rss_mb", "attempted", "failed")}
                     for p in passes],
    }
    print(f"{args.workload} seed={args.seed}: {len(plain)} passes of {n_ops} ops; "
          f"op_tail_ms is p{tail_percentile(n_ops):.2f}; fail_ratio={failed}/{attempted}")
    print("machine: " + json.dumps(plain[0]["machine"], sort_keys=True))
    for message in problems[:3]:
        print("problem: " + json.dumps(message)[:500], file=sys.stderr)
    if not digests_agree:
        print("problem: passes of one seed gave different outputs", file=sys.stderr)

    if args.trace:
        layers = {name: med(p["layers"][name] for p in traced) for name in LAYER_METRICS}
        layers["trace.overhead_s"] = med(p["overhead_s"] for p in traced)
        report["traced_minus_untraced_wall_s"] = med(p["wall_s"] for p in traced) - e2e["wall_s"]
        report["traced_passes"] = len(traced)
        stages = traced[0]["stages"]
        wall = traced[0]["wall_s"]
        ranked = sorted(stages.items(), key=lambda kv: -kv[1][1])
        report["stages"] = {k: {"incl_s": v[0], "self_s": v[1], "calls": v[2]} for k, v in ranked}
        report["dominant_stage"] = ranked[0][0]
        report["per_layer"] = layers
        print(f"dominant stage: {ranked[0][0]} ({100 * ranked[0][1][1] / wall:.0f}% self time)")
        for label, (incl, self_s, calls) in ranked[:8]:
            print(f"  {label:40s} self {self_s:8.3f} s {100 * self_s / wall:5.1f}%  incl {incl:8.3f} s  calls {calls}")
        metrics = {name: {"value": value, "unit": LAYER_METRICS.get(name, "s")} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    (out_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
