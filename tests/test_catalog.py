"""Opening a catalog indexes its snapshot lines, each entry parsed when read,
and replays its journal, each line checked once per process."""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import cellform.catalog as catalog_module
from cellform.catalog import _LINE, Catalog, CatalogEntry
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


def journal_record(sigma, entry, engine=Catalog.ENGINE_VERSION):
    """One journal line as store writes it, under the given engine version."""
    digest = hashlib.sha256(json.dumps([sigma, entry], separators=(",", ":")).encode()).hexdigest()
    return json.dumps({"engine": engine, "sigma": sigma, "entry": entry, "sha256": digest},
                      separators=(",", ":")) + "\n"


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


def test_every_open_checks_the_sha256(tmp_path):
    # A line index kept from an earlier open never stands in for the check.
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 2, catalog)
    catalog.save()
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19]
    edited = path.read_bytes().replace(b'"19"', b'"20"')
    path.write_bytes(edited)  # the header keeps the old sha256
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: .*sha256"):
        Catalog(path)
    assert path.read_bytes() == edited


def test_reopening_unchanged_bytes_indexes_them_once(tmp_path, monkeypatch):
    path, other = tmp_path / "catalog.json", tmp_path / "other.json"
    write_snapshot(path, ['"%s":%s' % (SIGMA5, json.dumps(ENTRY5))])
    write_snapshot(other, ['"%s":%s' % (SIGMA5, json.dumps({**ENTRY5, "terms": ["1", "3"]}))])
    Catalog(other)  # whatever an earlier open indexed, the next body is new
    calls = []

    class Counting:
        def findall(self, lines):
            calls.append(lines)
            return _LINE.findall(lines)

    monkeypatch.setattr("cellform.catalog._LINE", Counting())
    first, second = Catalog(path), Catalog(path)
    assert len(calls) == 1
    assert first.get_terms(SIGMA5) == second.get_terms(SIGMA5) == [1, 3, 19]
    assert Catalog(other).get_terms(SIGMA5) == [1, 3]
    assert len(calls) == 2


def test_malformed_snapshot_raises_on_every_open(tmp_path):
    # Only an index that passed every check is kept for the next open.
    path = tmp_path / "catalog.json"
    write_snapshot(path, ['"%s":%s\n"1,2":{}' % (SIGMA5, json.dumps(ENTRY5))])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: .*entry line"):
            Catalog(path)


def test_poisoned_entries_never_reach_another_open(tmp_path):
    path = tmp_path / "catalog.json"
    write_snapshot(path, ['"%s":%s' % (SIGMA5, json.dumps(ENTRY5))])
    a = Catalog(path)
    a.entries[SIGMA5].terms[1] = "999"
    assert a.get_terms(SIGMA5) == [1, 999, 19]
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19]


def test_an_open_after_another_save_serves_the_new_terms(tmp_path):
    path = tmp_path / "catalog.json"
    config = canonical_configuration(SIGMA5)
    first = Catalog(path)
    leading_coefficients(config, 2, first)
    first.save()
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19]
    other = Catalog(path)
    leading_coefficients(config, 4, other)
    other.save()
    assert other.journal.read_bytes() == b""  # the new terms are in the snapshot alone
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19, 147, 1251]


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


@pytest.mark.parametrize("field", ["n_points", "convergent", "entry"])
def test_journal_line_without_a_field_raises_naming_the_sigma(tmp_path, field):
    path = tmp_path / "catalog.json"
    record = json.loads(journal_record(SIGMA5, {k: v for k, v in ENTRY5.items() if k != field}))
    if field == "entry":
        del record["entry"]
    path.with_name("catalog.json.journal").write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json\.journal: KeyError: .* at " + SIGMA5):
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


def test_corrupt_catalog_raises_and_keeps_file(tmp_path):
    # Loading a broken file as an empty catalog would let the next save
    # overwrite whatever the user had.
    path = tmp_path / "catalog.json"
    path.write_text("{")
    with pytest.raises(ValueError, match="catalog.json"):
        Catalog(path)
    assert path.read_bytes() == b"{"


def test_catalog_reads_old_indented_snapshot(tmp_path):
    # Catalogs written before the journal carry no digest and are indented.
    path = tmp_path / "catalog.json"
    key = format_configuration(canonical_configuration(SIGMA5))
    entry = {"n_points": 5, "convergent": True, "intervals": [[1, 1], [1, 2], [2, 3]],
             "terms": ["1", "3", "19"], "dual": key}
    path.write_text(json.dumps({"engine": Catalog.ENGINE_VERSION, "entries": {key: entry}}, indent=1))
    assert Catalog(path).get_terms(key) == [1, 3, 19]


def test_opening_a_missing_catalog_creates_no_file(tmp_path):
    catalog = Catalog(tmp_path / "sub" / "catalog.json")
    assert catalog.entries == {}
    assert list(tmp_path.iterdir()) == []


def test_catalog_version_bump_invalidates(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 3, catalog)
    monkeypatch.setattr(Catalog, "ENGINE_VERSION", "cellform-ct-TEST")
    fresh = Catalog(path)
    assert fresh.entries == {}


def test_catalog_write_is_atomic_and_roundtrips(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    record = leading_coefficients(canonical_configuration(SIGMA6), 3, catalog)
    again = Catalog(path)
    key = format_configuration(record.config)
    assert again.get_terms(key) == record.terms
    assert not list(tmp_path.glob(".catalog-*"))  # no temp files left behind


def test_edited_snapshot_term_raises_naming_the_file(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 3, catalog)
    catalog.save()
    edited = path.read_text().replace('"19"', '"20"')
    assert edited != path.read_text()
    path.write_text(edited)
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json: .*sha256"):
        Catalog(path)
    assert path.read_text() == edited


_WRITER = """
import sys
from cellform.catalog import Catalog
from cellform.configurations import enumerate_convergent
from cellform.ctengine import leading_coefficients

path, part = sys.argv[1], int(sys.argv[2])
for config in enumerate_convergent(8).configurations[part::3]:
    catalog = Catalog(path)
    leading_coefficients(config, 2, catalog)
    catalog.save()
"""


@pytest.mark.usefixtures("checkout_env")
def test_writer_processes_lose_no_class(tmp_path):
    # More writers than cores, each compacting after every store.
    path = tmp_path / "catalog.json"
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(part)], stderr=subprocess.PIPE)
        for part in range(3)
    ]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err.decode()
    configs = enumerate_convergent(8).configurations
    stored = Catalog(path)
    for config in configs:
        assert len(stored.get_terms(format_configuration(config))) == 3, config
    assert len(json.loads(path.read_text())["entries"]) == len(configs) == 17


def test_interleaved_instances_lose_no_entry(tmp_path):
    path = tmp_path / "catalog.json"
    configs = enumerate_convergent(7).configurations
    keys = [format_configuration(c) for c in configs]
    a, b = Catalog(path), Catalog(path)
    leading_coefficients(configs[0], 2, a)
    leading_coefficients(configs[1], 2, b)
    a.save()
    assert a.get_terms(keys[1]) is not None  # the compaction read b's store
    leading_coefficients(configs[2], 2, b)
    a.add_configuration(configs[3], True, best_model(configs[3]).factors)
    b.add_configuration(configs[4], True, best_model(configs[4]).factors)
    b.add_configuration(configs[0], True, best_model(configs[0]).factors)  # present in b: no-op
    b.save()
    a.save()
    merged = Catalog(path)
    assert sorted(merged.entries) == sorted(keys)
    assert all(len(merged.get_terms(k)) == 3 for k in keys[:3])
    assert a.entries.keys() == merged.entries.keys()


def test_edited_journal_term_raises_naming_the_sigma(tmp_path):
    path = tmp_path / "catalog.json"
    config = canonical_configuration(SIGMA5)
    leading_coefficients(config, 3, Catalog(path))
    journal = path.with_name("catalog.json.journal")
    text = journal.read_text()
    assert '"19"' in text
    journal.write_text(text.replace('"19"', '"20"'))
    key = format_configuration(config)
    with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json\.journal: .*" + key):
        Catalog(path)


def test_same_length_edit_after_a_replayed_open_raises(tmp_path):
    # The replayed journal is matched by its bytes, not by its path or size.
    path = tmp_path / "catalog.json"
    leading_coefficients(canonical_configuration(SIGMA5), 3, Catalog(path))
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19, 147]
    journal = path.with_name("catalog.json.journal")
    edited = journal.read_bytes().replace(b'"19"', b'"20"')
    assert len(edited) == journal.stat().st_size
    journal.write_bytes(edited)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"corrupt catalog .*catalog\.json\.journal: .*" + SIGMA5):
            Catalog(path)


def test_open_after_a_compaction_and_one_store_sees_the_new_entry(tmp_path):
    path = tmp_path / "catalog.json"
    leading_coefficients(canonical_configuration(SIGMA5), 3, Catalog(path))
    assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19, 147]  # the journal line is replayed
    other = Catalog(path)
    other.save()  # the journal is truncated
    sigma6 = format_configuration(canonical_configuration(SIGMA6))
    leading_coefficients(canonical_configuration(SIGMA6), 2, other)
    assert other.journal.read_bytes().count(b"\n") == 1
    reopened = Catalog(path)
    assert reopened.entries == eager(path)
    assert sorted(reopened.entries) == sorted([SIGMA5, sigma6])
    assert reopened.get_terms(sigma6) == [1, 5, 73]
    assert reopened.get_terms(SIGMA5) == [1, 3, 19, 147]


def test_torn_last_line_warns_on_every_open_and_is_never_kept(tmp_path):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 2, catalog)
    line = catalog.journal.read_bytes()
    with open(catalog.journal, "ab") as fh:
        fh.write(line[: len(line) // 2])  # a crash in the middle of an append
    for _ in range(2):
        with pytest.warns(UserWarning, match="torn"):
            assert list(Catalog(path).entries) == [SIGMA5]
    # The next append cuts the torn tail and writes the whole line, so the
    # journal now starts with every byte an open saw, torn tail included.
    with pytest.warns(UserWarning, match="torn"):
        catalog.store(canonical_configuration(SIGMA5), catalog.entries[SIGMA5].intervals, [1, 3, 19])
    assert catalog.journal.read_bytes() == line + line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Catalog(path).get_terms(SIGMA5) == [1, 3, 19]


def test_reopening_an_unchanged_journal_digests_each_line_once(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    catalog = Catalog(path)
    leading_coefficients(canonical_configuration(SIGMA5), 2, catalog)
    leading_coefficients(canonical_configuration(SIGMA6), 2, catalog)
    calls = []

    def counting(sigma, data, original=catalog_module._entry_digest):
        calls.append(sigma)
        return original(sigma, data)

    monkeypatch.setattr(catalog_module, "_entry_digest", counting)
    monkeypatch.setattr(catalog_module, "_replayed", ("", b"", ()))  # no earlier test's lines
    opened = [Catalog(path) for _ in range(4)]
    sigma6 = format_configuration(canonical_configuration(SIGMA6))
    assert calls == [SIGMA5, sigma6]
    assert all(c.get_terms(sigma6) == [1, 5, 73] for c in opened)
    opened[0].entries[sigma6].terms[1] = "999"  # each open holds entries of its own
    assert [c.get_terms(sigma6)[1] for c in opened] == [999, 5, 5, 5]
    leading_coefficients(canonical_configuration(SIGMA7), 2, catalog)
    Catalog(path)
    assert calls[2:] == [format_configuration(canonical_configuration(SIGMA7))] * 2  # store, then open


def test_other_engine_lines_stay_skipped_on_every_open(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    sigma6 = format_configuration(canonical_configuration(SIGMA6))
    entry6 = {"n_points": 6, "convergent": True, "intervals": [[1, 1], [1, 2], [2, 3], [3, 4]],
              "terms": ["1", "5"], "dual": sigma6}
    path.with_name("catalog.json.journal").write_text(
        journal_record(sigma6, entry6, engine="cellform-ct-0") + journal_record(SIGMA5, ENTRY5))
    for _ in range(2):
        assert list(Catalog(path).entries) == [SIGMA5]
    monkeypatch.setattr(Catalog, "ENGINE_VERSION", "cellform-ct-0")
    for _ in range(2):
        assert list(Catalog(path).entries) == [sigma6]
