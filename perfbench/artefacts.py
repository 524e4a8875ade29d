"""The four files an ``oocgen construct`` run writes, and their hashes."""

from __future__ import annotations

import hashlib
from pathlib import Path

ARTEFACTS = ("ooc", "oos.json", "code.json", "report.json")


def artefact_paths(prefix):
    return [Path(f"{prefix}.{ext}") for ext in ARTEFACTS]


def artefact_hashes(prefix):
    """sha256 of each artefact written with ``prefix``; None if missing."""
    return [hashlib.sha256(path.read_bytes()).hexdigest()
            if path.is_file() else None for path in artefact_paths(prefix)]
