"""The result store: one immutable JSON file per cell, keyed by fingerprint.

Every finished cell — a matrix summary from
:class:`~repro.experiments.runner.MatrixRunner` or the service's worker
shard — lives at ``<root>/<fingerprint>.json`` and holds its
coordinates and summary (``{"benchmark", "technique", "seed", "scale",
"summary"}``).

The key is :func:`~repro.experiments.runner.cell_fingerprint` of the
complete per-cell machine config, so a result produced under another
config is never found, let alone served.  A cell is a pure function of
its key: writing it twice writes the same bytes, so concurrent writers
need no lock and there is nothing to merge.  Each write goes through
:func:`atomic_write`, so a reader sees the old file or the new one,
never a torn one; a file damaged some other way (a truncated copy, a
full disk) reads as a miss with a warning, and the next write of that
cell replaces it.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
from pathlib import Path
from typing import Any

log = logging.getLogger("repro.store")

#: What a key looks like: a cell's hex digest.  :meth:`ResultStore.get`
#: takes keys from request paths; anything else (``..``, a file name)
#: names no cell.
FINGERPRINT = re.compile(r"[0-9a-f]{16}")


#: Temp-file serials: with the pid, they name every temp file apart.
_TEMP_SERIALS = itertools.count()


def atomic_write(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step.

    The text goes to a temp file of its own in the same directory,
    which :func:`os.replace` then moves over ``path``: a reader or a
    crash sees the old content or the new, and two writers of one path
    never share a temp file.  The temp file is created as
    ``open(path, "w")`` creates a file, mode ``0o666`` less the umask,
    so ``path`` ends with the mode a plain write gives it.
    """
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_TEMP_SERIALS)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # left by a dead process that had this pid
            pass
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """The content-addressed cell store described in the module docstring.

    Holds no state but its root, so it needs no lock and any number of
    stores (in any number of processes) may share one directory.
    Constructing one touches no file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The stored document for ``fingerprint``, or None.

        A missing file is a miss; so is a damaged one (not JSON, not an
        object), with a warning.
        """
        if not FINGERPRINT.fullmatch(fingerprint):
            return None
        path = self.root / f"{fingerprint}.json"
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            log.warning("result %s is damaged (%s); treating it as a miss",
                        path, exc)
            return None
        if not isinstance(doc, dict):
            log.warning("result %s is not an object; treating it as a miss",
                        path)
            return None
        return doc

    def store(self, fingerprint: str, doc: dict[str, Any]) -> None:
        """Write ``doc`` as the cell ``fingerprint`` (atomic, idempotent)."""
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.root / f"{fingerprint}.json",
            json.dumps(doc, indent=1, sort_keys=True),
        )
