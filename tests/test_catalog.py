"""Opening a catalog indexes its snapshot lines; each entry is parsed when read."""
import hashlib
import json
import os
import shutil
import warnings

import pytest

from cellform.catalog import Catalog, CatalogEntry
from cellform.configurations import canonical_configuration, enumerate_convergent, format_configuration
from cellform.ctengine import best_model, leading_coefficients

SIGMA5 = format_configuration(canonical_configuration((1, 3, 5, 2, 4)))
ENTRY5 = {"n_points": 5, "convergent": True, "intervals": [[1, 1], [1, 2], [2, 3]],
          "terms": ["1", "3", "19"], "dual": SIGMA5}
SIGMA6 = (1, 5, 3, 6, 2, 4)
SIGMA7 = (1, 3, 7, 5, 2, 6, 4)


@pytest.fixture(scope="module")
def saved_n8(tmp_path_factory):
    """All 17 classes of N=8 with terms 0..3 in the snapshot, then two journal
    lines: one extends a snapshot entry, one adds a class of N=7."""
    path = tmp_path_factory.mktemp("n8") / "catalog.json"
    catalog = Catalog(path)
    configs = enumerate_convergent(8).configurations
    for config in configs:
        leading_coefficients(config, 3, catalog)
    catalog.save()
    leading_coefficients(configs[0], 4, catalog)
    leading_coefficients(enumerate_convergent(7).configurations[0], 2, catalog)
    assert len(catalog.journal.read_bytes().splitlines()) == 2
    return path, [format_configuration(c) for c in configs]


@pytest.fixture
def n8(saved_n8, tmp_path):
    src, keys = saved_n8
    path = tmp_path / "catalog.json"
    shutil.copyfile(src, path)
    shutil.copyfile(src.with_name("catalog.json.journal"), tmp_path / "catalog.json.journal")
    return path, keys


@pytest.fixture
def parses(monkeypatch):
    """The sigmas CatalogEntry.from_json is called for, in order."""
    calls, original = [], CatalogEntry.from_json

    def counting(cls, sigma, data):
        calls.append(sigma)
        return original(sigma, data)

    monkeypatch.setattr(CatalogEntry, "from_json", classmethod(counting))
    return calls


def write_snapshot(path, lines):
    """A snapshot with the given entry lines under a matching sha256."""
    body = (",\n".join(lines) + "\n}}\n" if lines else "}}\n").encode()
    head = '{"engine":"%s","sha256":"%s","entries":{\n' % (Catalog.ENGINE_VERSION, hashlib.sha256(body).hexdigest())
    path.write_bytes(head.encode() + body)


def eager(path):
    """The catalog as a whole-file parse reads it, journal overlaid."""
    entries = {s: CatalogEntry.from_json(s, e) for s, e in json.loads(path.read_bytes())["entries"].items()}
    journal = path.with_name(path.name + ".journal")
    for line in journal.read_bytes().splitlines() if journal.exists() else []:
        record = json.loads(line)
        entries[record["sigma"]] = CatalogEntry.from_json(record["sigma"], record["entry"])
    return entries


def test_get_terms_parses_one_snapshot_entry(n8, parses):
    path, keys = n8
    catalog = Catalog(path)
    assert len(parses) == 2  # the journal lines, replayed at open
    assert len(catalog.get_terms(keys[1])) == 4
    assert parses[2:] == [keys[1]]
    assert len(catalog.get_terms(keys[1])) == 4
    assert len(catalog.get_terms(keys[0])) == 5  # from the journal, already built
    assert parses[2:] == [keys[1]]


def test_adding_a_stored_class_parses_nothing(n8, parses):
    path, keys = n8
    catalog = Catalog(path)
    config = enumerate_convergent(8).configurations[2]
    catalog.add_configuration(config, True, best_model(config).factors)
    assert len(parses) == 2
    assert not catalog.unsaved


def test_entries_equal_the_whole_file_parse(n8):
    path, keys = n8
    catalog = Catalog(path)
    assert catalog.get_terms(keys[3]) is not None  # one entry built before the rest
    want = eager(path)
    assert len(want) == 18
    assert list(catalog.entries) == list(want)
    for sigma, entry in want.items():
        assert catalog.entries[sigma] == entry, sigma


def test_save_of_an_unchanged_catalog_writes_the_same_entries(n8):
    path, _ = n8
    want = eager(path)
    Catalog(path).save()
    assert path.with_name("catalog.json.journal").read_bytes() == b""
    assert json.loads(path.read_bytes())["entries"] == {s: e.to_json() for s, e in want.items()}
    before = path.read_bytes()
    Catalog(path).save()
    assert path.read_bytes() == before


def test_save_keeps_newer_terms_that_another_instance_saved(tmp_path):
    # A stale in-memory copy of an entry must never overwrite newer terms on disk.
    path = tmp_path / "catalog.json"
    x, y = enumerate_convergent(7).configurations[:2]
    key = format_configuration(x)
    seed = Catalog(path)
    leading_coefficients(x, 2, seed)
    seed.save()
    a = Catalog(path)
    assert len(a.get_terms(key)) == 3  # A holds J(0..2) of X
    b = Catalog(path)
    leading_coefficients(x, 5, b)
    b.save()
    a.add_configuration(y, True, best_model(y).factors)
    a.save()
    entries = json.loads(path.read_bytes())["entries"]
    assert entries[key]["terms"] == [str(t) for t in b.get_terms(key)]
    assert len(entries[key]["terms"]) == 6
    assert format_configuration(y) in entries


@pytest.mark.parametrize(
    "lines",
    [
        ['"%s":%s' % (SIGMA5, json.dumps(ENTRY5)), "garbage"],
        ['"1,3\\u0035,2,4":%s' % json.dumps(ENTRY5)],  # a key with a backslash
        ['"1,3\\"5,2,4":%s' % json.dumps(ENTRY5)],  # a key with a quote
        ['"%s":%s,' % (SIGMA5, json.dumps(ENTRY5))],  # a comma after the last entry
        ['"%s":%s\n"1,2":{}' % (SIGMA5, json.dumps(ENTRY5))],  # no comma between entries
    ],
    ids=["not_a_key", "backslash_in_key", "quote_in_key", "trailing_comma", "missing_comma"],
)
def test_malformed_snapshot_line_raises_at_open(tmp_path, lines):
    path = tmp_path / "catalog.json"
    write_snapshot(path, lines)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: "):
        Catalog(path)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "entry",
    [
        json.dumps(ENTRY5).replace(",", ",,", 1),  # braces as they should be, not valid JSON
        json.dumps({k: v for k, v in ENTRY5.items() if k != "n_points"}),
        json.dumps({k: v for k, v in ENTRY5.items() if k != "convergent"}),
        json.dumps({**ENTRY5, "terms": ["2", "3"]}),
        json.dumps({**ENTRY5, "intervals": [[1, 1]]}),
    ],
    ids=["bad_json", "no_n_points", "no_convergent", "terms_start_with_2", "wrong_interval_count"],
)
def test_malformed_entry_raises_when_read_and_at_save(tmp_path, entry):
    path = tmp_path / "catalog.json"
    other = format_configuration(canonical_configuration((1, 5, 3, 6, 2, 4)))
    write_snapshot(path, ['"%s":%s' % (SIGMA5, entry)])
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration((1, 5, 3, 6, 2, 4)), 2, catalog)  # one journal line
    before = path.read_bytes(), catalog.journal.read_bytes()
    assert Catalog(path).get_terms(other) == [1, 5, 73]  # other entries still serve
    match = r"corrupt catalog .*catalog\.json: .*" + SIGMA5
    with pytest.raises(ValueError, match=match):
        Catalog(path).get_terms(SIGMA5)
    with pytest.raises(ValueError, match=match):
        Catalog(path).entries
    with pytest.raises(ValueError, match=match):
        catalog.save()
    assert (path.read_bytes(), catalog.journal.read_bytes()) == before


def test_snapshot_without_its_closing_line_raises_at_open(tmp_path):
    # The sha256 matches the body, but the body stops before its }} line.
    path = tmp_path / "catalog.json"
    body = ('"%s":%s\n' % (SIGMA5, json.dumps(ENTRY5))).encode()
    head = '{"engine":"%s","sha256":"%s","entries":{\n' % (Catalog.ENGINE_VERSION, hashlib.sha256(body).hexdigest())
    path.write_bytes(head.encode() + body)
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: .*\}\} line"):
        Catalog(path)
    assert path.read_bytes() == head.encode() + body


def test_failed_snapshot_replace_keeps_snapshot_and_journal(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 2, catalog)
    catalog.save()
    leading_coefficients(canonical_configuration(SIGMA6), 2, catalog)  # one journal line
    before = path.read_bytes(), catalog.journal.read_bytes()

    def fail(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no space left"):
        catalog.save()
    monkeypatch.undo()
    assert (path.read_bytes(), catalog.journal.read_bytes()) == before
    assert not list(tmp_path.glob(".catalog-*.json"))
    assert Catalog(path).get_terms(format_configuration(canonical_configuration(SIGMA6))) == [1, 5, 73]


def test_duplicate_keys_resolve_as_json_loads(tmp_path):
    path = tmp_path / "catalog.json"
    last = {**ENTRY5, "terms": ["1", "3", "19", "147"]}
    write_snapshot(path, ['"%s":%s' % (SIGMA5, json.dumps(e)) for e in (ENTRY5, last)])
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19, 147]
    assert Catalog(path).entries == eager(path) == {SIGMA5: CatalogEntry.from_json(SIGMA5, last)}


def test_empty_snapshot_opens_empty(tmp_path):
    path = tmp_path / "catalog.json"
    Catalog(path).save()
    assert path.read_bytes().endswith(b'"entries":{\n}}\n')
    assert Catalog(path).entries == {}


def test_legacy_snapshot_with_bad_terms_raises(tmp_path):
    # Snapshots without a sha256 are parsed whole at open, and validated.
    path = tmp_path / "catalog.json"
    entry = {**ENTRY5, "terms": ["2", "3", "19"]}
    path.write_text(json.dumps({"engine": Catalog.ENGINE_VERSION, "entries": {SIGMA5: entry}}, indent=1))
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: .*" + SIGMA5 + " must start with 1"):
        Catalog(path)


def test_journal_entry_with_bad_interval_count_raises(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    data = {**ENTRY5, "intervals": [[1, 2]]}
    digest = hashlib.sha256(json.dumps([SIGMA5, data], separators=(",", ":")).encode()).hexdigest()
    record = {"engine": Catalog.ENGINE_VERSION, "sigma": SIGMA5, "entry": data, "sha256": digest}
    catalog.journal.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json\.journal: .*" + SIGMA5):
        Catalog(path)


def test_catalog_store_appends_one_journal_line(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 3, catalog)
    leading_coefficients(canonical_configuration(SIGMA6), 3, catalog)
    assert not path.exists()  # stores never rewrite the snapshot
    assert len(catalog.journal.read_bytes().splitlines()) == 2
    catalog.save()
    assert catalog.journal.read_bytes() == b""
    assert len(json.loads(path.read_text())["entries"]) == 2


def test_torn_journal_line_is_dropped_with_a_warning(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 3, catalog)
    line = catalog.journal.read_bytes()
    with open(catalog.journal, "ab") as fh:
        fh.write(line[: len(line) // 2])  # a crash in the middle of an append
    with pytest.warns(UserWarning, match="torn"):
        reopened = Catalog(path)
    assert list(reopened.entries) == [format_configuration(canonical_configuration(SIGMA5))]
    with pytest.warns(UserWarning, match="torn"):
        leading_coefficients(canonical_configuration(SIGMA6), 3, reopened)
    # The next append cut the torn tail first, so the journal is whole again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(Catalog(path).entries) == 2


def test_engine_bump_ignores_journal_lines(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 3, catalog)
    catalog.save()
    leading_coefficients(canonical_configuration(SIGMA6), 3, catalog)  # journal only
    monkeypatch.setattr(Catalog, "ENGINE_VERSION", "cellform-ct-TEST")
    fresh = Catalog(path)
    assert fresh.entries == {}
    leading_coefficients(canonical_configuration(SIGMA7), 2, fresh)
    fresh.save()
    assert list(Catalog(path).entries) == [format_configuration(canonical_configuration(SIGMA7))]
