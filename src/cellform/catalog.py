"""Persistent catalog of configurations and their cached coefficient terms.

A catalog is a snapshot file plus an append-only journal beside it.  The
snapshot is one JSON object mapping canonical configuration strings to their
point count, convergence flag, interval model, dual's canonical string and
computed terms (held as decimal strings so files stay portable and
diff-able), written one entry per line under a header that carries the
engine version and a sha256 of the lines below it.

- ``store`` appends one JSON line (engine, sigma, entry, sha256 of the entry)
  to ``<snapshot>.journal`` under an exclusive ``flock``; nothing else is
  written.
- Loading checks the snapshot's sha256, indexes its entry lines by sigma
  and replays the journal under a shared lock on the journal, which is
  truncated in place and never replaced, so a compaction cannot slip between
  the two reads.  An entry line is parsed and validated when it is first read
  (``entries`` and ``save`` read them all); older snapshots without a sha256
  are parsed whole.
- The line index of the last snapshot body indexed is kept for the process,
  under that body's sha256: one slot holding one snapshot's line bytes, never
  the entries built from them.  Every open still reads the snapshot and checks
  its sha256, hashing the bytes read in place; when it matches the slot, the
  open copies the index instead of rebuilding it and copies no snapshot bytes,
  and only an index that passed every check fills the slot.  On the 900-entry
  catalog an open plus one ``get_terms`` takes about 0.2-0.3 ms when the slot
  matches and 0.7-1.5 ms when it does not.
- The journal bytes last replayed are kept for the process the same way, in
  one slot, whole lines only, with the (sigma, entry data) records of the
  lines that passed the engine test, their sha256 and validation.  An open
  whose journal starts with those very bytes (compared byte for byte) builds
  fresh entries from the records and parses and digest-checks only the lines
  after them; any other journal is replayed whole.  A torn last line is never
  kept, and a bad line raises and leaves the slot as it was.  Each journal
  line then costs about 3 us per open once its bytes were checked, against
  about 20 us for one replayed and digested: with 20 journal lines, an open
  plus one ``get_terms`` of the 900-entry catalog takes 0.29-0.33 ms, against
  0.63-0.69 ms when every line is replayed.
- ``save`` compacts under the exclusive lock: it re-reads both files, adds
  each entry this instance holds that they lack, replaces the snapshot
  atomically (temp file and rename) and truncates the journal.  Another
  process's stores and compactions are never lost or overwritten.

``intervals`` is the model an entry's stored terms were swept with (``store``
writes both), else ``[]``.  An older catalog or a library caller's
``add_configuration`` may leave a model beside no terms; no command reads it.

A torn last journal line, left by a crash during an append, is dropped with a
warning.  A digest mismatch or a malformed file raises, naming the file (and
the sigma for a journal line, or for a snapshot entry when it is read).  A
version bump invalidates cached terms wholesale, journal lines included.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .configurations import dual, format_configuration


@dataclass
class CatalogEntry:
    sigma: str
    n_points: int
    convergent: bool
    intervals: list[tuple[int, int]] = field(default_factory=list)
    terms: list[str] = field(default_factory=list)
    dual: str = ""

    def __post_init__(self) -> None:
        # Entries built by _put and read from disk alike.
        if self.terms and self.terms[0] != "1":
            raise ValueError(f"terms for {self.sigma} must start with 1")
        if self.intervals and len(self.intervals) != self.n_points - 2:
            raise ValueError(f"interval count for {self.sigma} must be N-2")

    def to_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "convergent": self.convergent,
            "intervals": [list(iv) for iv in self.intervals],
            "terms": list(self.terms),
            "dual": self.dual,
        }

    @classmethod
    def from_json(cls, sigma: str, data: dict) -> "CatalogEntry":
        return cls(
            sigma=sigma,
            n_points=int(data["n_points"]),
            convergent=bool(data["convergent"]),
            intervals=[tuple(iv) for iv in data.get("intervals", [])],
            terms=[str(t) for t in data.get("terms", [])],
            dual=data.get("dual", ""),
        )


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _entry_digest(sigma: str, data: dict) -> str:
    return hashlib.sha256(_dumps([sigma, data]).encode()).hexdigest()


# The header and entry lines exactly as _write_snapshot writes them.
_HEADER = re.compile(rb'\{"engine":"[^"\\]*","sha256":"[0-9a-f]{64}","entries":\{\n')
_LINE = re.compile(rb'^"([^"\\\x00-\x1f]*)":(\{.*\}),$', re.M)
# The line index of the snapshot body last indexed in this process, under
# the body's sha256: raw line bytes only, never the entries built from them.
_indexed: tuple[str, dict[str, bytes]] = ("", {})
# The journal bytes last replayed in this process, whole lines only, under the
# engine version they were replayed for, with the (sigma, entry data) records
# of the lines that passed every check; entries are built anew on each open.
_replayed: tuple[str, bytes, tuple[tuple[str, dict], ...]] = ("", b"", ())


class Catalog:
    """Snapshot plus append-only journal; see the module docstring."""

    ENGINE_VERSION = "cellform-ct-1"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.journal = self.path.with_name(self.path.name + ".journal")
        self._changed = False  # entries stored or added since load or save
        try:
            fd = os.open(self.journal, os.O_RDONLY)
        except FileNotFoundError:
            # Nothing was ever stored or saved through a journal here, so no
            # compaction can be under way: the snapshot alone is the catalog.
            self._entries = self._read_snapshot()
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            self._entries = self._read(fd)
        finally:
            os.close(fd)

    @property
    def entries(self) -> dict[str, CatalogEntry]:
        """Every entry, parsing the snapshot lines not read yet."""
        for sigma in self._entries:
            self._built(self._entries, sigma)
        return self._entries

    @property
    def unsaved(self) -> bool:
        """True when this instance changed entries since it loaded or saved."""
        return self._changed

    # -- reading -----------------------------------------------------------
    # Anything malformed raises naming the file: starting empty instead would
    # let the next save overwrite it.

    def _read_snapshot(self) -> dict[str, CatalogEntry | bytes]:
        """Entries, or the raw JSON of each line of a snapshot with a sha256."""
        global _indexed
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        try:
            head = _HEADER.match(raw)
            # A header of ours parses closed on its own; other files whole.
            data = json.loads(raw[: head.end()] + b"}}") if head else json.loads(raw)
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            if data.get("engine") != self.ENGINE_VERSION:
                return {}  # stale engine: start fresh, the next save overwrites
            # No copy of the snapshot when the slot matches: two at every open
            # let malloc hand the heap top back after each open and fault it in
            # again at the next, about 45 page faults per open of 158 KB.
            signed = memoryview(raw)[raw.find(b"\n") + 1 :]  # the bytes the sha256 covers
            if "sha256" in data and hashlib.sha256(signed).hexdigest() != data["sha256"]:
                raise ValueError("entries do not match their sha256")
            if not head:
                return {sigma: CatalogEntry.from_json(sigma, e) for sigma, e in data.get("entries", {}).items()}
            digest, index = _indexed  # one read: another thread may replace the slot
            if digest == data["sha256"]:  # these very bytes passed the checks below
                return dict(index)
            body = raw[head.end() :]
            if body == b"}}\n":
                return {}
            if not body.endswith(b"\n}}\n"):
                raise ValueError("entries do not end with a }} line")
            lines = body[:-4] + b","  # every entry line but the last ends with a comma
            pairs = _LINE.findall(lines)
            if len(pairs) != lines.count(b"\n") + 1:
                raise ValueError("an entry line is not \"<sigma>\":{...}")
            index = {sigma.decode(): entry for sigma, entry in pairs}
            _indexed = (data["sha256"], index)
            return dict(index)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt catalog {self.path}: {type(exc).__name__}: {exc}") from exc

    def _built(self, entries: dict[str, CatalogEntry | bytes], sigma: str) -> CatalogEntry | None:
        """entries[sigma], first parsed in place if it is still a snapshot line."""
        entry = entries.get(sigma)
        if isinstance(entry, bytes):
            try:
                entry = entries[sigma] = CatalogEntry.from_json(sigma, json.loads(entry))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"corrupt catalog {self.path}: {type(exc).__name__}: {exc} at {sigma}") from exc
        return entry

    def _read(self, fd: int) -> dict[str, CatalogEntry | bytes]:
        """Snapshot overlaid with the journal; the caller holds a lock on fd."""
        global _replayed
        entries = self._read_snapshot()
        raw = os.pread(fd, os.fstat(fd).st_size, 0)
        whole = raw.rfind(b"\n") + 1  # a torn last line is never replayed nor kept
        if whole < len(raw):
            warnings.warn(f"catalog {self.journal}: dropped a torn last line")
        engine, done, records = _replayed  # one read: another thread may replace the slot
        if engine != self.ENGINE_VERSION or not raw.startswith(done):
            done, records = b"", ()
        for sigma, data in records:  # these very bytes passed the checks below
            entries[sigma] = CatalogEntry.from_json(sigma, data)
        records = list(records)
        for line in raw[len(done) : whole].split(b"\n")[:-1]:
            sigma = None
            try:
                record = json.loads(line)
                if record["engine"] != self.ENGINE_VERSION:
                    continue
                sigma = record["sigma"]
                data = record["entry"]
                if _entry_digest(sigma, data) != record["sha256"]:
                    raise ValueError("entry does not match its sha256")
                entries[sigma] = CatalogEntry.from_json(sigma, data)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                at = "" if sigma is None else f" at {sigma}"
                raise ValueError(f"corrupt catalog {self.journal}: {type(exc).__name__}: {exc}{at}") from exc
            records.append((sigma, data))
        _replayed = (self.ENGINE_VERSION, raw[:whole], tuple(records))
        return entries

    # -- writing -----------------------------------------------------------

    def _lock(self) -> int:
        """Open (creating) the journal for appending and lock it exclusively."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.journal, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        fcntl.flock(fd, fcntl.LOCK_EX)
        return fd

    def store(self, config, intervals, terms: list[int]) -> None:
        entry = self._put(config, True, intervals, terms)
        data = entry.to_json()
        line = _dumps(
            {"engine": self.ENGINE_VERSION, "sigma": entry.sigma, "entry": data,
             "sha256": _entry_digest(entry.sigma, data)}
        )
        fd = self._lock()
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if end and os.pread(fd, 1, end - 1) != b"\n":
                # A crash left a torn line; appending to it would make a
                # complete line that cannot be trusted.
                warnings.warn(f"catalog {self.journal}: dropped a torn last line")
                os.ftruncate(fd, os.pread(fd, end, 0).rfind(b"\n") + 1)
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)
        self._changed = True

    def save(self) -> None:
        """Compact: merge every entry this instance holds into the on-disk
        catalog, keeping the disk's entry where both hold a sigma.  Within one
        engine version no compaction drops an entry, so only this instance's
        additions are new; after a rewrite under another engine version this
        instance writes back everything it holds."""
        fd = self._lock()
        try:
            entries = self._read(fd)
            for sigma, entry in self._entries.items():
                entries.setdefault(sigma, entry)
            for sigma in entries:
                self._built(entries, sigma)  # a malformed line raises before anything is written
            self._write_snapshot(entries, os.fstat(fd).st_mode & 0o777)
            os.ftruncate(fd, 0)
        finally:
            os.close(fd)
        self._entries = entries
        self._changed = False

    def _write_snapshot(self, entries: dict[str, CatalogEntry], mode: int) -> None:
        """Replace the snapshot atomically, with the journal's file mode
        (mkstemp alone would leave it 0600)."""
        body = ",\n".join(
            f"{_dumps(sigma)}:{_dumps(entry.to_json())}" for sigma, entry in sorted(entries.items())
        )
        body = (body + "\n}}\n" if body else "}}\n").encode()
        header = '{"engine":%s,"sha256":"%s","entries":{\n' % (
            _dumps(self.ENGINE_VERSION),
            hashlib.sha256(body).hexdigest(),
        )
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".catalog-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), mode)
                fh.write(header.encode() + body)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- entries -----------------------------------------------------------

    def get_terms(self, sigma: str) -> list[int] | None:
        entry = self._built(self._entries, sigma)
        if entry is None or not entry.terms:
            return None
        return [int(t) for t in entry.terms]

    def _put(self, config, convergent: bool, intervals, terms=(), dual_config=None) -> CatalogEntry:
        """Build, validate and insert the entry of config, its dual included
        (computed here unless the caller already has it)."""
        entry = CatalogEntry(
            sigma=format_configuration(config),
            n_points=config.n_points,
            convergent=convergent,
            intervals=[tuple(iv) for iv in intervals],
            terms=[str(t) for t in terms],
            dual=format_configuration(dual(config) if dual_config is None else dual_config),
        )
        self._entries[entry.sigma] = entry
        return entry

    def add_configuration(self, config, convergent: bool, intervals=(), dual_config=None) -> None:
        if format_configuration(config) not in self._entries:
            self._put(config, convergent, intervals, dual_config=dual_config)
            self._changed = True
