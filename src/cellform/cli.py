"""Command-line surface: enumeration, coefficients, verification, tables.

Verification output is one JSON object per line ({id, params, lhs, rhs,
modulus, pass}) or CSV rows with --format csv.  The exit code is 0 only when
every requested check passes; otherwise a machine-readable failure list goes
to stderr (exit 1).  Input the library rejects exits 2 with one stderr line.
When --out is given, a run manifest (command, parameters, engine version,
wall time, output checksum) is written next to the output file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from ._primes import _phi, odd_primes_in
from .catalog import Catalog
from .configurations import enumerate_convergent, format_configuration, parse_configuration
from .congruences import (
    verify_ahlgren,
    verify_beukers,
    verify_conjecture1,
    verify_coster,
    verify_thm1,
    verify_thm2,
)
from .ctengine import leading_coefficients
from .ffhyper import (
    hyp2f1_from_trace,
    hyp_greene,
    truncated_2f1_mod_p2,
    truncated_2f1_reference,
)
from .kernels import legendre_traces
from .modforms import ETA6_4Z, ETA12_2Z, eta_qexp, gamma_cm, gamma_eta12_pointcount
from .recfit import check_self_duality_symmetry, fit
from .sequences import a_sigma8, apery_a, apery_b, lemma_suite


def _emit_rows(args, rows: list[dict]) -> int:
    """Write finished rows to stdout or --out as JSON lines or CSV (header
    from every row's keys, first seen first; a row's missing keys are empty
    cells) and return the exit code: 1 when a row failed, after
    listing the failed rows on stderr as {"failures": [...]}, else 0.

    The output is opened only after every row is computed, so input that a
    command rejects leaves an existing report alone.
    """
    if args.format == "csv":
        header = list(dict.fromkeys(key for row in rows for key in row))
        lines = [",".join(header)] if header else []
        lines += [",".join(_csv_cell(row.get(key, "")) for key in header) for row in rows]
    else:
        lines = [json.dumps(row, sort_keys=True) for row in rows]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    failures = [r for r in rows if r.get("pass") is False]
    if failures:
        json.dump({"failures": failures}, sys.stderr)
        sys.stderr.write("\n")
    return 1 if failures else 0


def _csv_cell(v) -> str:
    s = json.dumps(v) if isinstance(v, dict) else str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _write_manifest(out_path: str, command: str, params: dict, wall: float) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "engine_version": f"cellform {__version__} / {Catalog.ENGINE_VERSION}",
        "wall_time_s": round(wall, 3),
        "output_sha256": hashlib.sha256(Path(out_path).read_bytes()).hexdigest(),
    }
    Path(out_path + ".manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def _open_catalog(args) -> Catalog:
    """The catalog in --cache-dir, $CELLFORM_CACHE_DIR, $XDG_CACHE_HOME/cellform
    or ~/.cache/cellform, the first one set; an empty value counts as unset,
    and so does a relative $XDG_CACHE_HOME (the XDG Base Directory rule)."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = args.cache_dir or os.environ.get("CELLFORM_CACHE_DIR") or Path(
        xdg if os.path.isabs(xdg) else Path.home() / ".cache") / "cellform"
    return Catalog(Path(base) / "catalog.json")


def _compact(catalog: Catalog) -> None:
    """Fold this command's journal lines into the snapshot, once per command."""
    if catalog.unsaved:
        catalog.save()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    result = enumerate_convergent(args.n)
    catalog = Catalog(args.out) if args.out else _open_catalog(args)
    for config, dual_config in zip(result.configurations, result.duals):
        catalog.add_configuration(config, True, dual_config=dual_config)
    catalog.save()
    print(
        f"N={args.n}: {result.count} convergent configurations "
        f"({result.count_dual_identified} up to duality) -> {catalog.path}"
    )
    return 0


def cmd_coeffs(args) -> int:
    config = parse_configuration(args.sigma)
    catalog = _open_catalog(args)
    record = leading_coefficients(config, args.terms, catalog)
    _compact(catalog)
    print(", ".join(str(t) for t in record.terms))
    return 0


_SEQUENCES = {"a": apery_a, "b": apery_b, "sigma8": a_sigma8}


def cmd_fit(args) -> int:
    if args.sequence:
        seq = [_SEQUENCES[args.sequence](n) for n in range(args.terms + 1)]
        label = args.sequence
    else:
        config = parse_configuration(args.sigma)
        catalog = _open_catalog(args)
        seq = leading_coefficients(config, args.terms, catalog).terms
        _compact(catalog)
        label = format_configuration(config)
    rec = fit(seq, args.order, args.degree)
    if rec is None:
        print(f"{label}: no recurrence of order {args.order}, degree {args.degree}")
        return 1
    print(f"{label}: order {rec.order}, degree {rec.degree}")
    for j, poly in enumerate(rec.coefficients):
        print(f"  p_{j}: [{', '.join(str(c) for c in poly)}]")
    if rec.order == 4:
        print(f"  self-duality symmetry: {check_self_duality_symmetry(rec)}")
    return 0


def cmd_modform(args) -> int:
    eta6 = eta_qexp(ETA6_4Z, args.pmax)
    eta12 = eta_qexp(ETA12_2Z, args.pmax)
    rows = []
    for p in odd_primes_in(3, args.pmax + 1):
        cm3 = gamma_cm(3, p)
        pc6 = gamma_eta12_pointcount(p)
        rows.append(
            {
                "p": p,
                "gamma3_cm": str(cm3),
                "gamma3_eta": str(eta6[p]),
                "gamma6_pointcount": str(pc6),
                "gamma6_eta": str(eta12[p]),
                "pass": cm3 == eta6[p] and pc6 == eta12[p],
            }
        )
    return _emit_rows(args, rows)


def cmd_hyper(args) -> int:
    p = args.p
    rows = []
    exact = {lam: hyp2f1_from_trace(p, int(a)) for lam, a in enumerate(legendre_traces(p), start=2)}
    for lam in range(2, p):
        greene = hyp_greene(p, 1, lam)
        transform_ok = exact[lam] == _phi(p, lam) * exact[pow(lam, -1, p)]
        truncated_ok = truncated_2f1_mod_p2(p, lam) == truncated_2f1_reference(p, lam)
        rows.append(
            {
                "p": p,
                "lambda": lam,
                "greene": str(greene),
                "pointcount": str(exact[lam]),
                "transformation": transform_ok,
                "truncated_mod_p2": truncated_ok,
                "pass": greene == exact[lam] and transform_ok and truncated_ok,
            }
        )
    special = hyp_greene(p, 1, 1) * p == -_phi(p, -1)
    rows.append({"p": p, "lambda": 1, "special_value": special, "pass": special})
    return _emit_rows(args, rows)


def _thm1_rows(args) -> list[dict]:
    ls = range(1, args.l + 1) if args.all_l else [args.l]
    return [case.to_json() for l in ls for case in verify_thm1(l, args.pmax).cases]


def _conj1_rows(args) -> list[dict]:
    catalog = _open_catalog(args)
    if args.sigma:
        configs = [parse_configuration(args.sigma)]
    elif args.n:
        configs = enumerate_convergent(args.n).configurations
    else:
        raise ValueError("conj1 needs --sigma or --n")
    rows = [verify_conjecture1(config, args.p, args.m, args.r, catalog).to_json() for config in configs]
    _compact(catalog)
    return rows


def _lemma_rows(args) -> list[dict]:
    return [
        {
            "id": "LEMMAS",
            "params": {"p": p, "check": name},
            "lhs": "",
            "rhs": "",
            "modulus": "",
            "pass": verdict,
        }
        for p in odd_primes_in(3, args.pmax + 1)
        for name, verdict in lemma_suite(p).items()
        if verdict is not None
    ]


# The statements of `cellform verify`; the parser takes its choices from the keys.
_STATEMENTS = {
    "thm1": _thm1_rows,
    "thm2": lambda args: [case.to_json() for case in verify_thm2(args.pmax).cases],
    "ahlgren": lambda args: [case.to_json() for case in verify_ahlgren(args.pmax).cases],
    "beukers": lambda args: [case.to_json() for case in verify_beukers(args.pmax).cases],
    "coster": lambda args: [verify_coster(which, args.p, args.m, args.r).to_json() for which in ("a", "b")],
    "conj1": _conj1_rows,
    "lemmas": _lemma_rows,
}


def cmd_verify(args) -> int:
    return _emit_rows(args, _STATEMENTS[args.statement](args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellform",
        description="Convergent configurations, leading coefficients, and their supercongruences.",
    )
    parser.add_argument("--version", action="version", version=f"cellform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache_dir=True, out=False, fmt=False):
        if cache_dir:
            p.add_argument("--cache-dir", help="override the catalog cache directory")
        if out:
            p.add_argument("--out", help="write output to this path (plus a run manifest)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("enumerate", help="enumerate convergent configurations")
    p.add_argument("--n", type=int, required=True)
    common(p.add_mutually_exclusive_group(), out=True)  # both choose where the catalog goes
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("coeffs", help="leading coefficients of a configuration")
    p.add_argument("--sigma", required=True, help="comma-separated permutation")
    p.add_argument("--terms", type=int, default=8, help="highest index n to compute")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run a congruence verification")
    p.add_argument("statement", choices=tuple(_STATEMENTS))
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--l", type=int, default=1, help="power of the zeta(2) sequence (thm1)")
    p.add_argument("--all-l", action="store_true", help="run every l from 1 to --l (thm1)")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    source = p.add_mutually_exclusive_group()  # conj1 checks that one is given
    source.add_argument("--n", type=int, help="enumerate configurations of this size (conj1)")
    source.add_argument("--sigma", help="single configuration (conj1)")
    common(p, out=True, fmt=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("modform", help="coefficient table with per-source agreement")
    p.add_argument("--pmax", type=int, default=50)
    common(p, cache_dir=False, out=True, fmt=True)
    p.set_defaults(func=cmd_modform)

    p = sub.add_parser("hyper", help="hypergeometric identity matrix at one prime")
    p.add_argument("--p", type=int, required=True)
    common(p, cache_dir=False, out=True, fmt=True)
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("fit", help="fit a polynomial-coefficient recurrence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sequence", choices=tuple(_SEQUENCES))
    source.add_argument("--sigma", help="configuration whose coefficients to fit")
    p.add_argument("--terms", type=int, default=120)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--degree", type=int, default=15)
    common(p)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:  # bad input or path; exit 1 stays reserved for failed checks
        print(f"cellform {args.command}: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "command", "out") and v is not None
        }
        _write_manifest(args.out, args.command, params, time.perf_counter() - start)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
