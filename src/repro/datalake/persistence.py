"""Catalog & platform persistence: survive restarts *and* crashes.

A real data platform runs for months; detection bookkeeping must
outlive the process.  These helpers serialise the mutable state of a
:class:`~repro.datalake.catalog.DataLakeCatalog` — detection records,
quarantine entries and the accumulated clean-inventory ids — to JSON,
and extend to full platform checkpoints (catalog + ENLD's ``P̃`` matrix
and inventory split + scheduler counters + model weights via
:mod:`repro.nn.serialize`).  Dataset payloads (the arrays) are *not*
serialised; they live in the lake itself and are re-registered on
restart.

Crash safety rests on two mechanisms:

- every file is written **atomically** (temp file in the target
  directory, then :func:`os.replace`), so a kill mid-write leaves the
  previous checkpoint intact, never a torn one;
- the platform appends one line per submission to a **journal**
  (JSON-lines, fsync'd), so after a crash the operator can diff the
  journal against the last checkpoint and re-submit the tail.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import IO, Callable, Dict, List

import numpy as np

from .catalog import (DataLakeCatalog, DetectionRecord, ModelVersion,
                      QuarantineRecord)

# v2 added the quarantine section; v3 adds the content-addressed model
# version lineage and the per-record ``model_version`` tag.  Older
# states still load — missing sections default to empty/None.
_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)

#: File names inside a platform checkpoint directory.
PLATFORM_STATE_FILE = "platform.json"
MODEL_WEIGHTS_FILE = "model.npz"


# ----------------------------------------------------------------------
# Atomic file primitives
# ----------------------------------------------------------------------
def _atomic_write(path: str, suffix: str, mode: str,
                  write: Callable[[IO], None]) -> None:
    """Run ``write`` on a temp file beside ``path``, fsync, then
    :func:`os.replace` it over ``path`` (atomic on POSIX)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=suffix)
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, payload: Dict) -> None:
    """Write JSON via temp-file + :func:`os.replace` (atomic on POSIX)."""
    _atomic_write(path, ".tmp", "w",
                  lambda fh: json.dump(payload, fh, indent=2))


def atomic_write_npz(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` archive atomically (temp file + rename)."""
    _atomic_write(path, ".tmp.npz", "wb", lambda fh: np.savez(fh, **arrays))


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write raw bytes atomically (temp file + rename)."""
    _atomic_write(path, ".tmp", "wb", lambda fh: fh.write(payload))


# ----------------------------------------------------------------------
# Catalog state
# ----------------------------------------------------------------------
def catalog_state(catalog: DataLakeCatalog) -> Dict:
    """Extract the serialisable state of a catalog."""
    records = []
    for name in catalog.processed_names:
        record = catalog.get_detection(name)
        records.append({
            "dataset_name": record.dataset_name,
            "clean_ids": [int(i) for i in record.clean_ids],
            "noisy_ids": [int(i) for i in record.noisy_ids],
            "process_seconds": record.process_seconds,
            "detector": record.detector,
            "model_version": record.model_version,
        })
    quarantined = []
    for name in catalog.quarantined_names:
        q = catalog.get_quarantine(name)
        quarantined.append({
            "dataset_name": q.dataset_name,
            "reasons": list(q.reasons),
            "num_samples": int(q.num_samples),
        })
    return {
        "version": _FORMAT_VERSION,
        "records": records,
        "quarantined": quarantined,
        "clean_inventory_ids": [int(i) for i in
                                catalog.clean_inventory_ids],
        "model_versions": [v.to_dict() for v in catalog.versions],
    }


def save_catalog(catalog: DataLakeCatalog, path: str) -> None:
    """Atomically write the catalog's detection state to ``path``."""
    atomic_write_json(path, catalog_state(catalog))


def restore_catalog_state(catalog: DataLakeCatalog, state: Dict,
                          strict: bool = True) -> int:
    """Restore an in-memory state dict into ``catalog`` transactionally.

    All records are staged and validated first; the catalog is only
    mutated once every stored record has been checked, so a failure in
    strict mode leaves the catalog exactly as it was (no partial
    restore).  Returns the number of detection records restored.
    """
    if state.get("version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported catalog state version {state.get('version')!r}")
    # Stage: build every record and validate its arrival is known.
    staged: List[DetectionRecord] = []
    known = set(catalog.arrival_names)
    for item in state["records"]:
        record = DetectionRecord(
            dataset_name=item["dataset_name"],
            clean_ids=np.asarray(item["clean_ids"], dtype=np.int64),
            noisy_ids=np.asarray(item["noisy_ids"], dtype=np.int64),
            process_seconds=item["process_seconds"],
            detector=item.get("detector", "enld"),
            model_version=item.get("model_version"),
        )
        if record.dataset_name not in known:
            if strict:
                raise KeyError(
                    f"cannot restore detection for unknown dataset "
                    f"{record.dataset_name!r}; register the arrival first "
                    f"or pass strict=False")
            continue
        staged.append(record)
    quarantined = [QuarantineRecord(dataset_name=item["dataset_name"],
                                    reasons=list(item["reasons"]),
                                    num_samples=int(item["num_samples"]))
                   for item in state.get("quarantined", [])]
    versions = [ModelVersion.from_dict(item)
                for item in state.get("model_versions", [])]
    # Commit: nothing above mutated the catalog.
    for record in staged:
        catalog.record_detection(record)
    for q in quarantined:
        catalog.quarantine_arrival(q)
    catalog.add_clean_inventory_ids(
        np.asarray(state["clean_inventory_ids"], dtype=np.int64))
    for version in versions:
        catalog.register_model_version(version)
    return len(staged)


def load_catalog_state(catalog: DataLakeCatalog, path: str,
                       strict: bool = True) -> int:
    """Restore detection records into ``catalog`` from ``path``.

    Arrivals referenced by stored records must already be registered
    (they come from the lake); with ``strict=False`` unknown datasets
    are skipped instead of raising.  The restore is transactional: in
    strict mode a validation failure leaves the catalog untouched.
    Returns the number of records restored.
    """
    with open(path) as fh:
        state = json.load(fh)
    return restore_catalog_state(catalog, state, strict=strict)


# ----------------------------------------------------------------------
# Per-submission journal (JSON lines, append-only, fsync'd)
# ----------------------------------------------------------------------
def append_journal(path: str, entry: Dict) -> None:
    """Append one JSON line to the submission journal, durably."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_journal(path: str) -> List[Dict]:
    """All journal entries in order; missing file reads as empty.

    A torn final line (the process died mid-append) is tolerated and
    dropped — everything before it is intact by construction.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return entries
