"""One pass of one benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, so module memos and catalog files
never carry from one pass to the next:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --work-dir DIR --out FILE [--fill FILE]

``--workload fill`` builds the pre-filled catalog that ``catalog_mixed``
copies into each pass.  A pass runs set-up (imports and input generation,
timed as ``setup_s``), then its ops one after another, each timed from
outside, then checks every op's output against ``reference.json``.  It
writes one JSON object to ``--out``.  With ``--trace 1`` the tracer wraps
the package's public functions first and the pass also writes its spans.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SHA256 = "a18da80d6fdd05367ca19fca8b28845efde95222d5384a36e1fdca0ab914da14"

import cellform
from cellform import catalog, cli, configurations, congruences, ctengine, kernels
from cellform import modforms, recfit, sequences
from cellform._primes import odd_primes_in

from tracer import Tracer, dump_spans, layer_metrics, stage_table


def load_reference() -> dict:
    raw = (HERE / "reference.json").read_bytes()
    if hashlib.sha256(raw).hexdigest() != REFERENCE_SHA256:
        raise SystemExit("perfbench/reference.json does not match its recorded sha256")
    return json.loads(raw)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Pass:
    """Times ops one after another and keeps their results for checking."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.ops: list[tuple[str, tuple, object]] = []  # (kind, args, result)
        self.latency: list[float] = []
        self.errors: dict[int, str] = {}

    def op(self, kind: str, fn, *args):
        i = len(self.ops)
        if self.tracer:
            self.tracer.begin_op(i, kind)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises counts as failed
            result = None
            self.errors[i] = f"{type(exc).__name__}: {exc}"
        self.latency.append(time.perf_counter() - start)
        if self.tracer:
            self.tracer.end_op()
        self.ops.append((kind, args, result))
        return result


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(seed, work) -> None, run(p: Pass), and
# check(p: Pass, ref) -> {op index: message} plus a digest of its outputs.
# Functions are looked up through their modules at call time, so the traced
# pass sees the same calls as the untraced one.
# ---------------------------------------------------------------------------

class Enumerate:
    """cellform enumerate --n 10, with classes added in a seeded order."""

    N = 10

    def setup(self, seed, work):
        self.rng = random.Random(seed)
        self.catalog = catalog.Catalog(work / "catalog.json")

    def _add(self, config):
        self.catalog.add_configuration(config, True, ctengine.linear_form_model(config).factors)

    def run(self, p):
        result = p.op("enumerate", configurations.enumerate_convergent, self.N)
        configs = list(result.configurations) if result else []
        self.rng.shuffle(configs)
        for config in configs:
            p.op("add", self._add, config)
        p.op("save", self.catalog.save)

    def check(self, p, ref):
        want = ref["enumerate_n10"]
        saved = catalog.Catalog(self.catalog.path).entries
        bad = {}
        for i, (kind, args, result) in enumerate(p.ops):
            if i in p.errors:
                continue
            if kind == "enumerate":
                keys = sorted(configurations.format_configuration(c) for c in result.configurations)
                got = (result.count, result.count_dual_identified, _digest(keys))
                if got != (want["classes"], want["dual_identified"], want["sorted_sha256"]):
                    bad[i] = f"enumeration gave {got[:2]}, digest {got[2][:12]}"
            elif kind == "add":
                key = configurations.format_configuration(args[0])
                entry = saved.get(key)
                if entry is None or len(entry.intervals) != self.N - 2:
                    bad[i] = f"{key} missing or malformed in the saved catalog"
                elif entry.dual not in saved or saved[entry.dual].dual != key:
                    bad[i] = f"dual of {key} is not an involution in the saved catalog"
            elif kind == "save" and len(saved) != want["classes"]:
                bad[i] = f"saved catalog holds {len(saved)} entries"
        return bad, [hashlib.sha256(Path(self.catalog.path).read_bytes()).hexdigest()]


class Conj1Cold:
    """cellform verify conj1 --n 9 --p 7 on an empty catalog, seeded class order."""

    P = 7

    def setup(self, seed, work):
        self.catalog = catalog.Catalog(work / "catalog.json")
        self.configs = list(configurations.enumerate_convergent(9).configurations)
        random.Random(seed).shuffle(self.configs)

    def run(self, p):
        for config in self.configs:
            p.op("verify", congruences.verify_conjecture1, config, self.P, 1, 1, self.catalog)

    def check(self, p, ref):
        stored = catalog.Catalog(self.catalog.path)
        modulus = self.P**3
        bad = {}
        if len(p.ops) != 105:
            bad[-1] = f"{len(p.ops)} classes at N=9, expected 105"
        for i, (kind, args, case) in enumerate(p.ops):
            if i in p.errors:
                continue
            key = configurations.format_configuration(args[0])
            terms = [int(t) for t in ref["terms"][key]]
            if not case.passed or (case.lhs, case.rhs) != (terms[self.P] % modulus, terms[1] % modulus):
                bad[i] = f"verdict for {key}: {case.to_json()}"
            elif stored.get_terms(key) != terms[: self.P + 1]:
                bad[i] = f"stored terms for {key} differ from the reference"
        lines = [json.dumps(case and case.to_json(), sort_keys=True) for _, _, case in p.ops]
        return bad, lines


class CatalogMixed:
    """A seeded stream of cellform coeffs requests against a pre-filled catalog.

    REQUESTS requests, MISSES of them at seeded positions asking for one or two
    terms beyond the stored 0..8 of a class not asked before (a sweep plus a
    store); the rest ask for n_max in 0..8 and are served from the catalog.
    """

    REQUESTS = 200
    MISSES = 20
    STORED = 8

    def setup(self, seed, work, fill):
        self.path = work / "catalog.json"
        shutil.copyfile(fill, self.path)
        classes = sorted(load_reference()["terms"])
        rng = random.Random(seed)
        miss_at = set(rng.sample(range(self.REQUESTS), self.MISSES))
        miss_classes = rng.sample(classes, self.MISSES)
        self.requests = []
        for i in range(self.REQUESTS):
            if i in miss_at:
                self.requests.append((miss_classes.pop(), self.STORED + rng.choice((1, 2))))
            else:
                self.requests.append((rng.choice(classes), rng.randrange(self.STORED + 1)))

    def _coeffs(self, sigma, n_max):
        config = configurations.parse_configuration(sigma)
        return ctengine.leading_coefficients(config, n_max, catalog.Catalog(self.path)).terms

    def run(self, p):
        for sigma, n_max in self.requests:
            p.op("coeffs", self._coeffs, sigma, n_max)

    def check(self, p, ref):
        bad = {}
        for i, (kind, (sigma, n_max), terms) in enumerate(p.ops):
            if i not in p.errors and [str(t) for t in terms] != ref["terms"][sigma][: n_max + 1]:
                bad[i] = f"coeffs {sigma} --terms {n_max} differ from the reference"
        return bad, [f"{sigma}:{terms}" for _, (sigma, _), terms in p.ops]


def fill_catalog(path) -> None:
    """All 900 classes of N=5..10 with terms 0..8 for N<=9, via the public API.

    Terms are stored before the 771 size-10 classes are added, so each store
    rewrites a small file; the saved catalog is the same either way.
    """
    cat = catalog.Catalog(path)
    by_size = {n: configurations.enumerate_convergent(n).configurations for n in range(5, 11)}
    for n in range(5, 10):
        for config in by_size[n]:
            ctengine.leading_coefficients(config, CatalogMixed.STORED, cat)
    for n in range(5, 11):
        for config in by_size[n]:
            cat.add_configuration(config, True, ctengine.linear_form_model(config).factors)
    cat.save()


class Congruences:
    """The closed-form, modular and hypergeometric checks as one fixed script.

    Each op is one CLI command's calls (lemma_suite for every odd p <= 97 is
    ``verify lemmas --pmax 97``).  The order is fixed, not seeded: lemma_suite
    and the hyper command share the harmonic-number memo, so whichever runs
    first pays for filling it.
    """

    POINTCOUNT_2999 = -416629224
    CASES = {"thm1": 210, "thm2": 78, "beukers": 167}

    def setup(self, seed, work):
        self.hyper_out = str(work / "hyper.jsonl")
        self.plan = [
            ("thm1", congruences.verify_thm1, 4, 1301),
            ("thm2", congruences.verify_thm2, 401),
            ("beukers", congruences.verify_beukers, 999),
            ("lemmas", self._lemmas),
            ("pointcount", modforms.gamma_eta12_pointcount, 2999),
            ("hyper", cli.main, ["hyper", "--p", "97", "--out", self.hyper_out]),
            ("fit", self._fit),
        ]

    @staticmethod
    def _lemmas():
        return {q: sequences.lemma_suite(q) for q in odd_primes_in(3, 98)}

    @staticmethod
    def _fit():
        seq = [sequences.a_sigma8(n) for n in range(121)]
        rec = recfit.fit(seq, 4, 15)
        return rec, recfit.check_self_duality_symmetry(rec)

    def run(self, p):
        for kind, fn, *args in self.plan:
            p.op(kind, fn, *args)

    def check(self, p, ref):
        bad = {}
        lines = []
        for i, (kind, args, result) in enumerate(p.ops):
            if i in p.errors:
                continue
            if kind in self.CASES:
                ok = result.all_pass and result.total == self.CASES[kind]
                lines.append(f"{kind}:{[c.to_json() for c in result.cases]}")
            elif kind == "lemmas":
                ok = len(result) == 24 and all(
                    len(suite) == 11 and all(v is True or (v is None and q == 3) for v in suite.values())
                    for q, suite in result.items()
                )
                lines.append(f"lemmas:{[sorted(suite.items()) for suite in result.values()]}")
            elif kind == "pointcount":
                ok = result == self.POINTCOUNT_2999
                lines.append(f"pointcount:{result}")
            elif kind == "hyper":
                rows = [json.loads(line) for line in Path(self.hyper_out).read_text().splitlines()]
                ok = result == 0 and len(rows) == 96 and all(r["pass"] for r in rows)
                lines.append(f"hyper:{rows}")
            else:
                rec, symmetric = result
                ok = (rec.order, rec.degree, symmetric) == (4, 15, True)
                lines.append(f"fit:{rec.coefficients}:{symmetric}")
            if not ok:
                bad[i] = f"{kind} {args} gave a wrong result"
        return bad, lines


WORKLOADS = {
    "enumerate": Enumerate,
    "conj1_cold": Conj1Cold,
    "catalog_mixed": CatalogMixed,
    "congruences": Congruences,
}


def machine_record() -> dict:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cellform": cellform.__version__,
        "use_numba": bool(kernels.USE_NUMBA),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "fill"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--fill", help="pre-filled catalog for catalog_mixed")
    args = ap.parse_args(argv)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    if args.workload == "fill":
        fill_catalog(work / "catalog.json")
        out = {"setup_s": time.perf_counter() - T0}
        Path(args.out).write_text(json.dumps(out))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload]()
    if args.workload == "catalog_mixed":
        workload.setup(args.seed, work, args.fill)
    else:
        workload.setup(args.seed, work)
    setup_s = time.perf_counter() - T0

    p = Pass(tracer)
    if tracer:
        tracer.reset()
    start = time.perf_counter()
    workload.run(p)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = list(tracer.spans) if tracer else None
    overhead_s = tracer.overhead_s() if tracer else None

    ref = load_reference()
    bad = {}
    try:
        mismatches, lines = workload.check(p, ref)
        bad.update(mismatches)
    except Exception:  # a check that cannot run marks the whole pass wrong
        bad[-1] = traceback.format_exc()
        lines = []
    for i, msg in p.errors.items():
        bad[i] = msg
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_s": p.latency,
        "attempted": len(p.ops),
        "failed": len([i for i in bad if i >= 0]),
        "problems": {str(i): msg for i, msg in sorted(bad.items())[:20]},
        "digest": _digest(lines),
        "machine": machine_record(),
    }
    if spans is not None:
        out["layers"] = layer_metrics(spans)
        out["overhead_s"] = overhead_s
        out["stages"] = stage_table(spans)
        dump_spans(spans, Path(args.out).with_suffix(".spans.jsonl"))
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
