"""Alternating parent/change pairs of benchmark runs, written to BENCH_<label>.json.

    python3 benchmarks/bench.py --parent ../parent --label NAME [--seconds 30]
        [--seed 0] [--trace] [WORKLOAD=PAIRS ...]

``--parent`` is a checkout to compare against (``git clone`` of the parent
commit); the change is the checkout holding this script.  Both sides'
``src/`` and ``perfbench/`` are copied into one fresh temporary directory and
run from there, so neither side runs from a working tree with its own run
files and bytecode caches.  Each pair runs a workload once in each, the
parent first in even pairs, so a drift in the host's speed falls on both.
The perfbench workloads run ``perfbench/run.py --trace 0``.  With
``--trace``, each perfbench workload then runs ``perfbench/run.py --trace 1``
once on each side, after its pairs, and the file keeps those per-layer
metrics (``catalog.load.s`` and the rest, see ``perfbench/tracer.py``) under
the workload's ``layers: {parent, change}``; the medians and every other
end-to-end figure still come from the untraced pairs alone.  The CLI
workloads run one command in a fresh interpreter from each side's copied
``src/`` and record its wall time, its peak RSS and, where it writes an
``--out`` file, that file's size as ``out_bytes``; a run fails if it exits
nonzero:

- ``cli_enumerate_n11`` runs ``cellform enumerate --n 11 --out X``: a
  catalog of the 7028 N=11 classes and their duals, with no terms and no
  model.
- ``cli_enumerate_n12`` runs ``cellform enumerate --n 12 --out X``: the same
  for the 72,823 N=12 classes, where canonical keys are most of the run.
- ``cli_conj1_n10_p5`` runs ``cellform verify conj1 --n 10 --p 5 --out X`` on
  an empty ``--cache-dir`` (all 771 classes pass).
- ``cli_fit_sigma8`` runs ``cellform fit --sequence sigma8 --terms 120
  --order 4 --degree 15``, which writes no ``--out`` file.
- ``cli_thm2_p999`` runs ``cellform verify thm2 --pmax 999 --out X`` on an
  empty ``--cache-dir``.
- ``cli_modform_p1999`` runs ``cellform modform --pmax 1999``, which writes
  no ``--out`` file: eta products to q^1999 and a Legendre trace table at
  every odd prime up to 1999.
- ``cli_hyper_p397`` runs ``cellform hyper --p 397 --out X``: a Greene sum,
  a point count and a truncated sum mod p^2 for each lambda = 2..396.

A run fails unless its ``--out`` file (rows, or the catalog), or its stdout
where it writes none, has the sha256 in ``CLI_DIGESTS``.

Every child runs in a session of its own.  A SIGTERM to this script (or
Ctrl-C) kills the running child's whole process group, ``run.py``'s worker
included, and the temporary directory is removed on the way out.

WORKLOAD=PAIRS sets a pair count (default: 3 of each workload).  The file
keeps every pair's metrics and failed ops, the medians, the parent's
interquartile range, the pairs in which the change was lower, each side's
sha256 of ``src/`` and line count of ``src/cellform`` (as ``wc -l``) and the
machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("enumerate", "conj1_cold", "catalog_mixed", "congruences")
CLI_WORKLOADS = {  # {out} and {cache} stand for the run's --out file and an empty cache dir
    "cli_enumerate_n11": ["enumerate", "--n", "11", "--out", "{out}"],
    "cli_enumerate_n12": ["enumerate", "--n", "12", "--out", "{out}"],
    "cli_conj1_n10_p5": ["verify", "conj1", "--n", "10", "--p", "5", "--out", "{out}", "--cache-dir", "{cache}"],
    "cli_fit_sigma8": ["fit", "--sequence", "sigma8", "--terms", "120", "--order", "4", "--degree", "15"],
    "cli_thm2_p999": ["verify", "thm2", "--pmax", "999", "--out", "{out}", "--cache-dir", "{cache}"],
    "cli_modform_p1999": ["modform", "--pmax", "1999"],
    "cli_hyper_p397": ["hyper", "--p", "397", "--out", "{out}"],
}
CLI_DIGESTS = {  # sha256 of a correct run's --out file, or of its stdout where it writes none
    "cli_enumerate_n11": "c12505e7750c1478bbb395a93ac8e4a92a542851a861047e35f45d9ef4c52faf",
    "cli_enumerate_n12": "380f4b328a89afecd98ce524a5bfeb6f6329b7699a80ba0f613cb4982da06ad3",
    "cli_conj1_n10_p5": "66687ab8250cf8621fd5dbdd0b583524bab9dd0bf7e4e7f3311307f67824bffa",
    "cli_fit_sigma8": "8d7578b12d46a8669ab773608c8f262decb2b7c5dec7d6e95b4b2234f31f9d0f",
    "cli_thm2_p999": "8baa48889343a003c7a1a24d1f8c8123e693d71617264dc544fcc53b1e56310b",
    "cli_modform_p1999": "37d8878f3ceb574753238c5c9b11793d2b8e8196877a26575fcf535009b21be5",
    "cli_hyper_p397": "f20e48cf736b66d143001d97e8565806dcdb332806e68dbca82b91920d27e753",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def src_lines(root: Path) -> int:
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "cellform").rglob("*.py"))


def staged(root: Path, dest: Path) -> Path:
    """dest holding a copy of root's src/ and perfbench/, bytecode caches left out."""
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@contextmanager
def child(cmd: list[str], **kwargs):
    """cmd started in a session of its own; if the caller is left by an
    exception (SIGTERM becomes SystemExit in main), the child's whole process
    group is killed and reaped before the exception goes on."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        yield proc
    except BaseException:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the group is named by its leader's pid
        proc.wait()
        raise


def run(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with child(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        stdout, stderr = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, stdout, stderr)
    out = stdout.splitlines()
    line = json.loads(out[-1])
    machine = json.loads(next(s for s in out if s.startswith("machine: "))[len("machine: "):])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return {"metrics": metrics, "attempted": line["attempted"], "failed": line["failed"]}, machine


def run_cli(root: Path, workload: str, out: Path) -> dict:
    """The workload's cellform command with the package of root; its --out
    file, if it writes one, is OUT."""
    args = CLI_WORKLOADS[workload]
    cmd = [sys.executable, "-m", "cellform.cli",
           *(a.format(out=out, cache=out.with_suffix(".cache")) for a in args)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    with child(cmd, cwd=out.parent, env=env, stdout=subprocess.PIPE, text=True) as proc:
        printed = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    metrics = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}
    if "{out}" in args:
        ok = proc.returncode == 0 and out.exists() and sha256(out.read_bytes()) == CLI_DIGESTS[workload]
        metrics["out_bytes"] = out.stat().st_size if out.exists() else 0
    else:
        ok = proc.returncode == 0 and sha256(printed.encode()) == CLI_DIGESTS[workload]
    return {"metrics": metrics, "attempted": 1, "failed": int(not ok)}


def run_pair(sides: dict, workload: str, first: str, seed: int, seconds: float, report: dict) -> dict:
    pair = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in (first, "change" if first == "parent" else "parent"):
            if workload in CLI_WORKLOADS:
                pair[side] = run_cli(sides[side], workload, Path(tmp) / f"{side}.json")
            else:
                pair[side], report["machine"] = run(sides[side], workload, seed, seconds)
            print(workload, side, json.dumps(pair[side]), flush=True)
    return pair


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true", help="also one traced run per side of each perfbench workload")
    ap.add_argument("pairs", nargs="*", help="WORKLOAD=PAIRS")
    args = ap.parse_args(argv)
    counts = dict.fromkeys(WORKLOADS + tuple(CLI_WORKLOADS), 3) if not args.pairs else {
        w: int(n) for w, n in (item.split("=") for item in args.pairs)}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    report = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "src_sha256": {side: src_digest(root) for side, root in checkouts.items()},
              "src_lines": {side: src_lines(root) for side, root in checkouts.items()}, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: staged(root, Path(tmp, side)) for side, root in checkouts.items()}
        for workload, n in counts.items():
            pairs = [run_pair(sides, workload, "parent" if i % 2 == 0 else "change", args.seed,
                              args.seconds, report) for i in range(n)]
            summary = {"pairs": pairs, "median": {}, "parent_iqr": {}, "change_better": {}}
            for metric in pairs[0]["parent"]["metrics"]:  # each lower is better
                values = {side: [p[side]["metrics"][metric] for p in pairs] for side in sides}
                summary["median"][metric] = {side: statistics.median(v) for side, v in values.items()}
                q = statistics.quantiles(values["parent"], n=4) if n > 1 else [0, 0, 0]
                summary["parent_iqr"][metric] = q[2] - q[0]
                summary["change_better"][metric] = sum(c < p for p, c in zip(values["parent"], values["change"]))
            if args.trace and workload in WORKLOADS:
                summary["layers"] = {}
                for side in ("parent", "change"):
                    summary["layers"][side] = run(sides[side], workload, args.seed, args.seconds, 1)[0]["metrics"]
                    print(workload, side, "layers", json.dumps(summary["layers"][side]), flush=True)
            report["workloads"][workload] = summary
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
