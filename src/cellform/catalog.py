"""Persistent catalog of configurations and their cached coefficient terms.

One JSON file maps canonical configuration strings to their point count,
convergence flag, interval model, dual's canonical string, and computed terms
(held as decimal strings so files stay portable and diff-able).  Writes go
through a temp file and an atomic rename, so concurrent readers see either
the old or the new catalog, never a torn one.  A version bump invalidates
cached terms wholesale; a malformed file raises instead, naming its path.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ENV_CACHE_DIR = "CELLFORM_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "cellform"


@dataclass
class CatalogEntry:
    sigma: str
    n_points: int
    convergent: bool
    intervals: list[tuple[int, int]] = field(default_factory=list)
    terms: list[str] = field(default_factory=list)
    dual: str = ""

    def validate(self) -> None:
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


class Catalog:
    """Single-file JSON catalog with atomic replacement on write."""

    ENGINE_VERSION = "cellform-ct-1"

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = default_cache_dir() / "catalog.json"
        self.path = Path(path)
        self.entries: dict[str, CatalogEntry] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = json.loads(self.path.read_text())
        except json.JSONDecodeError as exc:
            # Starting empty here would let the next save overwrite the file.
            raise ValueError(f"corrupt catalog {self.path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"corrupt catalog {self.path}: not a JSON object")
        if data.get("engine") != self.ENGINE_VERSION:
            return  # stale engine: start fresh, the next save overwrites
        try:
            for sigma, entry in data.get("entries", {}).items():
                self.entries[sigma] = CatalogEntry.from_json(sigma, entry)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt catalog {self.path}: {type(exc).__name__}: {exc}") from exc

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "engine": self.ENGINE_VERSION,
            "entries": {k: v.to_json() for k, v in sorted(self.entries.items())},
        }
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".catalog-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_terms(self, sigma: str) -> list[int] | None:
        entry = self.entries.get(sigma)
        if entry is None or not entry.terms:
            return None
        return [int(t) for t in entry.terms]

    def _put(self, config, convergent: bool, intervals, terms=()) -> None:
        """Build, validate and insert the entry of config, its dual included."""
        from .configurations import dual, format_configuration

        entry = CatalogEntry(
            sigma=format_configuration(config),
            n_points=config.n_points,
            convergent=convergent,
            intervals=[tuple(iv) for iv in intervals],
            terms=[str(t) for t in terms],
            dual=format_configuration(dual(config)),
        )
        entry.validate()
        self.entries[entry.sigma] = entry

    def store(self, config, intervals, terms: list[int]) -> None:
        self._put(config, True, intervals, terms)
        self.save()

    def add_configuration(self, config, convergent: bool, intervals=()) -> None:
        from .configurations import format_configuration

        if format_configuration(config) not in self.entries:
            self._put(config, convergent, intervals)
