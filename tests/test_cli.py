import csv
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cellform.cli import main
from cellform.configurations import parse_configuration
from cellform.ctengine import best_model


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_writes_catalog(tmp_path, capsys):
    out = tmp_path / "n5.json"
    code, stdout, _ = run_main(["enumerate", "--n", "5", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 1
    assert "1 convergent" in stdout
    manifest = json.loads((tmp_path / "n5.json.manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_enumerate_n7_count(tmp_path, capsys):
    out = tmp_path / "n7.json"
    code, stdout, _ = run_main(["enumerate", "--n", "7", "--out", str(out)], capsys)
    assert code == 0
    assert len(json.loads(out.read_text())["entries"]) == 5


def test_enumerate_stores_the_duals_of_the_enumeration(tmp_path, capsys, monkeypatch):
    # Each class's dual used to be canonicalized again in Python when stored.
    import cellform.configurations as configurations

    dual = configurations.dual

    def no_dual(config):
        raise AssertionError("dual() recomputed for an enumerated class")

    monkeypatch.setattr(configurations, "dual", no_dual)
    out = tmp_path / "n8.json"
    assert run_main(["enumerate", "--n", "8", "--out", str(out)], capsys)[0] == 0
    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 17
    assert all(e["dual"] == str(dual(parse_configuration(k))) for k, e in entries.items())


def test_enumerate_n9_count(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    code, _, _ = run_main(["enumerate", "--n", "9", "--out", str(out)], capsys)
    assert code == 0
    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 105
    assert all(len(e["intervals"]) == 7 for e in entries.values())
    # intervals is the best model, whether or not terms were ever computed
    for key, e in entries.items():
        assert e["intervals"] == [list(iv) for iv in best_model(parse_configuration(key)).factors]
    computed = sorted(entries)[:3]
    for key in computed:
        argv = ["coeffs", "--sigma", key, "--terms", "2", "--cache-dir", str(tmp_path)]
        assert run_main(argv, capsys)[0] == 0
    after = json.loads(out.read_text())["entries"]
    assert all(len(after[key]["terms"]) == 3 for key in computed)
    assert {k: e["intervals"] for k, e in after.items()} == {k: e["intervals"] for k, e in entries.items()}


def test_coeffs_sigma8(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["coeffs", "--sigma", "8,3,6,1,4,7,2,5", "--terms", "5", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert stdout.strip() == "1, 33, 8929, 4124193, 2435948001, 1657775448033"


def test_coeffs_sigma5_small(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["coeffs", "--sigma", "1,3,5,2,4", "--terms", "1", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    assert stdout.strip() == "1, 3"

    code, stdout, _ = run_main(
        ["coeffs", "--sigma", "1,3,5,2,4", "--terms", "0", "--cache-dir", str(tmp_path)], capsys
    )
    assert stdout.strip() == "1"


def test_verify_thm2_json_lines(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["verify", "thm2", "--pmax", "50", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    assert all(row["pass"] for row in rows)
    assert {row["params"]["p"] for row in rows} == {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    # emitted rows parse back to themselves (round-trip)
    assert [json.loads(json.dumps(r)) for r in rows] == rows


def test_verify_conj1_by_size(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["verify", "conj1", "--n", "7", "--p", "5", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    assert len(rows) == 5 and all(r["pass"] for r in rows)


def test_verify_conj1_compacts_the_catalog_once(tmp_path, capsys, monkeypatch):
    from cellform.catalog import Catalog

    saves = []
    save = Catalog.save
    monkeypatch.setattr(Catalog, "save", lambda self: saves.append(1) or save(self))
    argv = ["verify", "conj1", "--n", "7", "--p", "5", "--cache-dir", str(tmp_path)]
    assert run_main(argv, capsys)[0] == 0
    assert len(saves) == 1
    # The file on disk is a complete snapshot once the command returns.
    assert (tmp_path / "catalog.json.journal").read_bytes() == b""
    entries = json.loads((tmp_path / "catalog.json").read_text())["entries"]
    assert len(entries) == 5 and all(len(e["terms"]) == 6 for e in entries.values())
    assert run_main(argv, capsys)[0] == 0
    assert len(saves) == 1  # served from the catalog: nothing stored, nothing saved


def test_rejected_verify_input_keeps_the_report(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out.write_text("x\n")
    code, _, err = run_main(["verify", "thm1", "--l", "0", "--out", str(out)], capsys)
    assert code == 2
    assert "l must be >= 1" in err
    assert out.read_bytes() == b"x\n"


def test_rejected_hyper_input_keeps_the_report(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out.write_text("keep\n")
    code, _, err = run_main(["hyper", "--p", "9", "--out", str(out)], capsys)
    assert code == 2
    assert "p must be an odd prime, got 9" in err
    assert out.read_bytes() == b"keep\n"


def test_verify_lemmas(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["verify", "lemmas", "--pmax", "20", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    assert all(r["pass"] for r in rows)


def test_verify_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    import cellform.cli as cli
    from cellform.congruences import CongruenceCase, CongruenceReport

    def fake_thm2(p_max):
        return CongruenceReport([CongruenceCase("THM2", (("p", 3),), 1, 2, 9)])

    monkeypatch.setattr(cli, "verify_thm2", fake_thm2)
    code, stdout, stderr = run_main(
        ["verify", "thm2", "--pmax", "3", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 1
    failures = json.loads(stderr)
    assert failures["failures"][0]["id"] == "THM2"


@pytest.mark.parametrize(
    "patch, argv, key, failed",
    [
        (("gamma_cm", lambda k, p: 0), ["modform", "--pmax", "13"], "p", [5, 13]),
        (("hyp_greene", lambda p, n, x: Fraction(0)), ["hyper", "--p", "7"], "lambda", [3, 5, 1]),
    ],
    ids=["modform", "hyper"],
)
def test_row_commands_list_their_failures(capsys, monkeypatch, patch, argv, key, failed):
    import cellform.cli as cli

    monkeypatch.setattr(cli, *patch)
    code, stdout, stderr = run_main(argv, capsys)
    assert code == 1
    failures = json.loads(stderr)["failures"]
    assert failures == [row for row in map(json.loads, stdout.splitlines()) if not row["pass"]]
    assert [row[key] for row in failures] == failed


# Digests of stdout, fixed when these outputs were last known right; a change
# to any of them is a change of output and must be explained.
PINNED_OUTPUTS = {
    "hyper --p 97": "455dc1a3afc8d4753857dfc258edc7424acaa103029a55fd746232a1397f370c",
    "hyper --p 13 --format csv": "c5a56fdce8b64a40a086a61420535f3b9b65653f4e1a5b1e5a56ee82a4fe24b1",
    "verify lemmas --pmax 97": "266677085180c196dc835baad9a6d1c1e74562ad15f8bb52802c9c486b73afa6",
    "modform --pmax 200": "e135c7d7b824a70675033ceb0798a4c912ac863f04f311b59d0afd99ca505015",
    "verify thm2 --pmax 199": "6eab54ab1ca10bdd02c6f7da82d61ae9a20020a4a8255bc4c3a40676b93b02f6",
    "verify beukers --pmax 299": "b2a0c85ea3a3d1afb791310cec6f64fa3eb5fd735fd7aa5db8593d818108d317",
    "verify coster --p 5 --m 1 --r 2": "54ed6cd5831ebc5a7f462532f466c92cfd00a20361f9920b3f9d5b744e8df009",
    "verify conj1 --n 7 --p 5": "e2d185d6ce91265b39243588e49136e4fb44c860acd0288fb1a244e4eaafe338",
    "coeffs --sigma 8,3,6,1,4,7,2,5 --terms 12":
        "3deed6b31340d20c16b69a2e952c48d4927618955c5456501c78225318c295e8",
    "coeffs --sigma 1,3,5,7,2,8,4,9,6 --terms 14":
        "2f38cb18376c980a0c34c8e398785a480cfbf8f5e6607fdc60dbf3699a74e37a",
    "verify thm1 --pmax 499 --l 4 --all-l":
        "ca5b963de3f49d6cce357443ab800cc91abb76e254b345a63ec16db2f963c80e",
    "verify ahlgren --pmax 299": "91009ce1a8b7abedaa9aa0e54097caa49a7a2a3c265759a0682e5253ce742856",
    "fit --sequence sigma8 --terms 120 --order 4 --degree 15":
        "8d7578b12d46a8669ab773608c8f262decb2b7c5dec7d6e95b4b2234f31f9d0f",
}


def test_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CELLFORM_CACHE_DIR", str(tmp_path))
    digests = {}
    for command in PINNED_OUTPUTS:
        code, stdout, _ = run_main(command.split(), capsys)
        assert code == 0, command
        digests[command] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == PINNED_OUTPUTS


def test_modform_table_csv(capsys):
    code, stdout, _ = run_main(["modform", "--pmax", "30", "--format", "csv"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("p,gamma3_cm")
    assert all(line.endswith("True") for line in lines[1:])


def test_hyper_identity_matrix(capsys):
    code, stdout, _ = run_main(["hyper", "--p", "13"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    assert len(rows) == 12  # lambda = 2..12 plus the special value row
    assert all(r["pass"] for r in rows)
    # 2F1(lambda) = -a(13, lambda) / 13 by both routes, as exact fractions.
    expected = ["-6/13", "2/13", "2/13", "2/13", "-2/13", "6/13",
                "-2/13", "2/13", "2/13", "2/13", "-6/13"]
    assert [r["greene"] for r in rows[:-1]] == expected
    assert [r["pointcount"] for r in rows[:-1]] == expected
    assert rows[-1] == {"p": 13, "lambda": 1, "special_value": True, "pass": True}


def test_hyper_csv_puts_each_value_under_its_own_column(capsys):
    # The special-value row has other keys than the table rows before it.
    code, stdout, _ = run_main(["hyper", "--p", "7", "--format", "csv"], capsys)
    assert code == 0
    special = list(csv.DictReader(io.StringIO(stdout)))[-1]
    assert (special["lambda"], special["special_value"], special["pass"]) == ("1", "True", "True")
    assert special["greene"] == special["pointcount"] == ""


def test_hyper_evaluates_each_2f1_and_the_residue_tables_once(capsys, monkeypatch):
    import cellform.cli as cli
    import cellform.ffhyper as ffhyper

    calls = {"legendre_traces": 0, "hyp2f1_exact": 0, "_binomial_pair_residues": 0,
             "_harmonic_window_residues": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "legendre_traces")
    for name in ("hyp2f1_exact", "_binomial_pair_residues", "_harmonic_window_residues"):
        counted(ffhyper, name)
    ffhyper._truncation_residues.cache_clear()
    code, _, _ = run_main(["hyper", "--p", "13"], capsys)
    assert code == 0
    # The table reads every trace from one kernel call; the reference evaluates
    # each lambda = 2..12 once by legendre_trace's own point count.
    assert calls == {"legendre_traces": 1, "hyp2f1_exact": 11, "_binomial_pair_residues": 1,
                     "_harmonic_window_residues": 1}


def test_hyper_rows_fail_when_the_trace_kernel_is_wrong(capsys, monkeypatch):
    # The Greene sums and the truncated reference do not read the kernel, so
    # a wrong trace table must fail every lambda row.
    import cellform.cli as cli

    kernel = cli.legendre_traces
    monkeypatch.setattr(cli, "legendre_traces", lambda p: kernel(p) + 1)
    code, stdout, stderr = run_main(["hyper", "--p", "13"], capsys)
    assert code == 1
    failed = [row["lambda"] for row in json.loads(stderr)["failures"]]
    assert failed == list(range(2, 13))


def test_fit_subcommand(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["fit", "--sequence", "a", "--terms", "40", "--order", "2", "--degree", "2"], capsys
    )
    assert code == 0
    assert "order 2, degree 2" in stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit"], "one of the arguments --sequence --sigma is required"),
        (["fit", "--sequence", "a", "--sigma", "1,3,5,2,4"], "not allowed with argument"),
    ],
    ids=["neither", "both"],
)
def test_fit_needs_exactly_one_source(argv, message, capsys):
    # Exit 2 like any argument error; both sources used to drop --sigma silently.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_conj1_takes_sigma_or_n_not_both(tmp_path, monkeypatch, capsys):
    # Both options used to verify --sigma alone and drop --n silently.
    import cellform.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a sweep ran before the options were rejected")

    monkeypatch.setattr(cli, "verify_conjecture1", no_work)
    monkeypatch.setattr(cli, "enumerate_convergent", no_work)
    argv = ["verify", "conj1", "--sigma", "1,3,5,2,4", "--n", "7", "--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "catalog.json").exists()


def test_enumerate_takes_out_or_cache_dir_not_both(tmp_path, monkeypatch, capsys):
    # Both options used to write --out alone and drop --cache-dir silently,
    # while the manifest still listed it.
    import cellform.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("enumeration ran before the options were rejected")

    monkeypatch.setattr(cli, "enumerate_convergent", no_work)
    out, cache = tmp_path / "a.json", tmp_path / "other"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "7", "--out", str(out), "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_sigma8_via_cli(capsys):
    code, stdout, _ = run_main(
        ["fit", "--sequence", "sigma8", "--terms", "120", "--order", "4", "--degree", "15"],
        capsys,
    )
    assert code == 0
    assert "order 4, degree 15" in stdout
    assert "self-duality symmetry: True" in stdout


@pytest.mark.usefixtures("checkout_env")
def test_cli_entrypoint_subprocess(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "cellform.cli", "verify", "ahlgren", "--pmax", "30",
         "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert all(json.loads(line)["pass"] for line in out.stdout.strip().splitlines())


def test_verify_out_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, _, _ = run_main(
        ["verify", "beukers", "--pmax", "30", "--out", str(out), "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert all(r["pass"] for r in rows)
    manifest = json.loads((tmp_path / "report.jsonl.manifest.json").read_text())
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["parameters"]["pmax"] == 30


def test_cache_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CELLFORM_CACHE_DIR", str(tmp_path / "envcache"))
    code, stdout, _ = run_main(["coeffs", "--sigma", "1,3,5,2,4", "--terms", "2"], capsys)
    assert code == 0 and stdout.strip() == "1, 3, 19"
    assert (tmp_path / "envcache" / "catalog.json").exists()


def coeffs_with_xdg_cache_home(value, tmp_path, monkeypatch, capsys):
    """Run coeffs with XDG_CACHE_HOME=value from an empty working directory;
    the catalog must land in ~/.cache/cellform and nothing in that directory."""
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    monkeypatch.delenv("CELLFORM_CACHE_DIR", raising=False)
    monkeypatch.chdir(work)
    code, stdout, _ = run_main(["coeffs", "--sigma", "1,3,5,2,4", "--terms", "2"], capsys)
    assert code == 0 and stdout.strip() == "1, 3, 19"
    assert (home / ".cache" / "cellform" / "catalog.json").exists()
    assert list(work.iterdir()) == []


def test_empty_xdg_cache_home_counts_as_unset(tmp_path, monkeypatch, capsys):
    # An empty XDG_CACHE_HOME used to put the catalog in ./cellform/.
    coeffs_with_xdg_cache_home("", tmp_path, monkeypatch, capsys)


def test_relative_xdg_cache_home_counts_as_unset(tmp_path, monkeypatch, capsys):
    # A relative one used to put it in ./relcache/cellform/.
    coeffs_with_xdg_cache_home("relcache", tmp_path, monkeypatch, capsys)


def test_verify_thm1_all_l_concatenates_single_l(tmp_path, capsys):
    base = ["verify", "thm1", "--pmax", "60", "--cache-dir", str(tmp_path)]
    code, all_out, _ = run_main(base + ["--l", "3", "--all-l"], capsys)
    assert code == 0
    singles = []
    for l in ("1", "2", "3"):
        code, out, _ = run_main(base + ["--l", l], capsys)
        assert code == 0
        singles.append(out)
    assert all_out == "".join(singles)


def test_verify_jobs_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--all-l", "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--sigma", "1,3,5,2,4", "--terms", "2"],
        ["fit", "--sequence", "a", "--terms", "40", "--order", "2", "--degree", "2"],
    ],
)
def test_out_rejected_where_nothing_is_written(argv, tmp_path, monkeypatch, capsys):
    # coeffs and fit print to stdout only; an --out path was never written, so
    # hashing it for the manifest crashed after the result was printed.
    import cellform.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computation ran before the option was rejected")

    monkeypatch.setattr(cli, "leading_coefficients", no_work)
    monkeypatch.setattr(cli, "fit", no_work)
    out = tmp_path / "result.txt"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["hyper", "--p", "5"], ["modform", "--pmax", "10"]])
def test_cache_dir_rejected_where_no_catalog_is_opened(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


@pytest.mark.usefixtures("checkout_env")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["hyper", "--p", "9"], "cellform hyper: error: p must be an odd prime, got 9"),
        (["verify", "thm1", "--l", "0"], "cellform verify: error: l must be >= 1"),
        (
            ["verify", "conj1", "--cache-dir", "."],
            "cellform verify: error: conj1 needs --sigma or --n",
        ),
        (
            ["coeffs", "--sigma", "1,3,5,2,4", "--terms", "-1", "--cache-dir", "."],
            "cellform coeffs: error: the term count must be nonnegative, got -1",
        ),
        (
            ["verify", "thm1", "--pmax", "7", "--out", "missing/rows.jsonl"],
            "cellform verify: error: [Errno 2] No such file or directory: 'missing/rows.jsonl'",
        ),
    ],
    ids=["hyper_p9", "verify_thm1_l0", "verify_conj1_no_source", "coeffs_negative_terms", "out_in_missing_dir"],
)
def test_bad_input_exits_2_with_one_line(argv, message, tmp_path):
    # Exit 1 means a disproved congruence; rejected input must not look like one.
    out = subprocess.run(
        [sys.executable, "-m", "cellform.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert out.returncode == 2
    assert out.stderr.splitlines() == [message]
    assert out.stdout == ""


def _readme_commands() -> list[list[str]]:
    """The argv of each line of the sh block under '## Command line' in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "cellform"]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CELLFORM_CACHE_DIR", str(tmp_path / "cache"))
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
