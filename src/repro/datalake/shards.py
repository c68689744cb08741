"""Sharded inventory storage for production-scale lakes (DESIGN.md §14).

The monolithic :class:`~repro.nn.data.LabeledDataset` inventory is fine
at paper scale but a dead end for the ROADMAP north star: millions of
samples, continuously growing through clean-pool absorption, served to
concurrent detection workers.  :class:`ShardedInventory` partitions the
inventory into **per-class feature shards** — rows are grouped by
observed label, then hash-partitioned over a fixed number of buckets
per class — so that

- inventory growth appends to the few touched shards instead of
  rebuilding a monolithic array (``add``/``merge`` are per-shard and
  incremental);
- a label-restricted view (the detector's ``I' = I_c ∩ label(D)``)
  touches only the shards of those classes;
- shard payloads can live outside the Python heap: ``memmap`` backing
  stores features in :class:`numpy.memmap` files, ``shm`` backing in
  :class:`multiprocessing.shared_memory.SharedMemory` segments that
  process-pool workers can attach to without copying.

The facade presents the exact views the rest of the system consumes
today: :meth:`ShardedInventory.as_dataset` reconstructs the insertion
order bit-for-bit, so an :class:`~repro.core.enld.ENLD` initialised
from a sharded inventory behaves identically to one initialised from
the source dataset, and :class:`~repro.index.classindex.ClassFeatureIndex`
/ the facade backends build over the same arrays.

Checkpoints are generation-versioned: :meth:`ShardedInventory.save`
writes every shard payload under a fresh generation tag (each file
itself temp + ``os.replace`` via :mod:`repro.datalake.persistence`),
atomically replaces the manifest last, and only then prunes older
generations.  A crash at any point — including mid-flush, the
``shard_flush`` chaos stage — leaves the previous manifest pointing at
the previous generation's untouched files, so
:meth:`ShardedInventory.load` round-trips bit-identically.

Thread safety: every shard owns a lock; mutating operations take the
shard lock, readers snapshot under it.  The inventory lock guards the
insertion log, shard creation and the first-add shape/dtype handshake;
it is never held while a shard lock is taken (and vice versa).  The
only nesting is the checkpoint lock serializing :meth:`save`, which
sits strictly above both — so the lock order stays acyclic.  A
deadlock would hang the racing-thread tests in
``tests/test_sharded_inventory.py`` (``test_concurrent_saves_are_serialized``,
``test_concurrent_adds_are_linearizable``); DESIGN.md §9.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.data import LabeledDataset
from ..obs import incr, observe, trace_span
from .persistence import atomic_write_json, atomic_write_npz

#: Supported shard payload backings.
SHARD_BACKINGS = ("memory", "memmap", "shm")

#: Manifest format version (bump on layout changes).
_MANIFEST_VERSION = 1

#: Manifest file name inside a checkpoint directory.
MANIFEST_FILE = "shards.json"

#: Fibonacci multiplier spreading sequential sample ids over buckets.
_HASH_MULTIPLIER = np.uint64(0x9E3779B1)
_HASH_MASK = np.uint64(0xFFFFFFFF)

#: Label value accepted for rows without an observed label
#: (mirrors :data:`repro.noise.injector.MISSING_LABEL`); such rows go
#: to a dedicated per-bucket group after the real classes.
_MISSING = -1


def bucket_of(ids: np.ndarray, buckets: int) -> np.ndarray:
    """Deterministic hash bucket of each sample id (vectorised)."""
    h = (np.asarray(ids, dtype=np.int64).astype(np.uint64)
         * _HASH_MULTIPLIER) & _HASH_MASK
    return (h % np.uint64(buckets)).astype(np.int64)


@dataclass(frozen=True)
class ShardKey:
    """Identity of one shard: observed class x hash bucket."""

    label: int
    bucket: int


class _Shard:
    """One growable per-class shard (rows of a single label x bucket).

    The payload (``x``) grows by capacity doubling; depending on the
    inventory backing it lives on the heap, in a ``numpy.memmap`` file
    or in a shared-memory segment.  ``y``/``true_y``/``ids`` are small
    (one int per row) and always stay on the heap.
    """

    def __init__(self, index: int, sample_shape: Tuple[int, ...],
                 dtype: np.dtype, backing: str,
                 directory: Optional[str]) -> None:
        self.index = index
        self.sample_shape = sample_shape
        self.dtype = dtype
        self.backing = backing
        self.directory = directory
        self._lock = threading.Lock()
        # Payload and bookkeeping arrays; ``_count`` rows are live.
        self._x: Optional[np.ndarray] = None      # repro: guarded-by(_lock)
        self._y: Optional[np.ndarray] = None      # repro: guarded-by(_lock)
        self._true_y: Optional[np.ndarray] = None  # repro: guarded-by(_lock)
        self._ids: Optional[np.ndarray] = None    # repro: guarded-by(_lock)
        self._count: int = 0                      # repro: guarded-by(_lock)
        self._shm: Optional[shared_memory.SharedMemory] = None  # repro: guarded-by(_lock)
        self._memmap_path: Optional[str] = None   # repro: guarded-by(_lock)
        self._memmap_gen: int = 0                 # repro: guarded-by(_lock)

    # -- storage ------------------------------------------------------
    def _allocate(self, capacity: int
                  ) -> Tuple[np.ndarray,
                             Optional[shared_memory.SharedMemory],
                             Optional[str]]:
        """A fresh payload array of ``capacity`` rows on the backing.

        Returns the array, the shared-memory segment backing it and the
        memmap file path backing it (each ``None`` on other backings)
        so the caller can swap state under its lock and release the
        previous segment/file afterwards.  Called with the shard lock
        held, after the caller advanced the memmap generation counter.
        """
        shape = (capacity, *self.sample_shape)
        if self.backing == "memmap":
            assert self.directory is not None
            os.makedirs(self.directory, exist_ok=True)
            # Every growth maps a *distinct* file: mode "w+" truncates
            # its target, and truncating the file backing the live
            # array would zero the rows the caller is about to copy
            # out of it.
            path = os.path.join(
                self.directory,
                f"live_shard_{self.index:04d}.m{self._memmap_gen}.dat")
            return (np.memmap(path, dtype=self.dtype, mode="w+",
                              shape=shape), None, path)
        if self.backing == "shm":
            nbytes = int(np.prod(shape)) * self.dtype.itemsize
            segment = shared_memory.SharedMemory(
                create=True, size=max(nbytes, 1))
            array: np.ndarray = np.ndarray(shape, dtype=self.dtype,
                                           buffer=segment.buf)
            return array, segment, None
        return np.empty(shape, dtype=self.dtype), None, None

    # -- mutation -----------------------------------------------------
    def append(self, x: np.ndarray, y: np.ndarray,
               true_y: Optional[np.ndarray],
               ids: np.ndarray) -> Tuple[int, int]:
        """Append rows; returns ``(first_slot, count_after)``."""
        stale: Optional[shared_memory.SharedMemory] = None
        stale_path: Optional[str] = None
        with self._lock:
            first = self._count
            if first and ((true_y is None) != (self._true_y is None)):
                raise ValueError(
                    f"shard {self.index}: ground-truth presence must be "
                    f"consistent across appends")
            need = first + len(x)
            have = 0 if self._x is None else len(self._x)
            if need > have:
                capacity = max(need, max(have, 8) * 2)
                self._memmap_gen += 1
                fresh, segment, path = self._allocate(capacity)
                if self._x is not None and first:
                    fresh[:first] = self._x[:first]
                self._x = fresh
                if segment is not None:
                    stale = self._shm
                    self._shm = segment
                if path is not None:
                    stale_path = self._memmap_path
                    self._memmap_path = path
                fresh_y = np.empty(capacity, dtype=np.int64)
                fresh_ids = np.empty(capacity, dtype=np.int64)
                if first:
                    assert self._y is not None and self._ids is not None
                    fresh_y[:first] = self._y[:first]
                    fresh_ids[:first] = self._ids[:first]
                self._y = fresh_y
                self._ids = fresh_ids
                if true_y is not None:
                    fresh_true = np.empty(capacity, dtype=np.int64)
                    if first and self._true_y is not None:
                        fresh_true[:first] = self._true_y[:first]
                    self._true_y = fresh_true
            assert self._x is not None
            assert self._y is not None and self._ids is not None
            self._x[first:need] = x
            self._y[first:need] = y
            self._ids[first:need] = ids
            if true_y is not None:
                assert self._true_y is not None
                self._true_y[first:need] = true_y
            self._count = need
        if stale is not None:
            stale.close()
            stale.unlink()
        if stale_path is not None:
            # The live array moved to the fresh file above; outstanding
            # snapshot views keep the old mapping readable until they
            # are dropped (POSIX unlink semantics), so the stale file
            # can go immediately.
            os.remove(stale_path)
        return first, need

    # -- read ---------------------------------------------------------
    def snapshot(self, rows: Optional[int] = None
                 ) -> Tuple[np.ndarray, np.ndarray,
                            Optional[np.ndarray], np.ndarray]:
        """Live-row views ``(x, y, true_y, ids)``, optionally truncated
        to the first ``rows`` rows (a consistent earlier prefix)."""
        with self._lock:
            n = self._count if rows is None else min(rows, self._count)
            if n == 0:
                shape = (0, *self.sample_shape)
                return (np.empty(shape, dtype=self.dtype),
                        np.empty(0, dtype=np.int64), None,
                        np.empty(0, dtype=np.int64))
            assert self._x is not None
            assert self._y is not None and self._ids is not None
            true_y = (None if self._true_y is None
                      else self._true_y[:n])
            return self._x[:n], self._y[:n], true_y, self._ids[:n]

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def close(self) -> None:
        """Release backing resources (shared-memory segments)."""
        with self._lock:
            self._x = None
            segment = self._shm
            self._shm = None
        if segment is not None:
            segment.close()
            segment.unlink()


class ShardedInventory:
    """Hash-partitioned, per-class inventory store with incremental add.

    Parameters
    ----------
    num_classes:
        Number of observed classes; rows carry labels in
        ``[0, num_classes)`` or ``MISSING_LABEL``.
    buckets_per_class:
        Hash buckets each class is spread over; total shard count is
        ``(num_classes + 1) * buckets_per_class`` (one extra group for
        missing-label rows).
    backing:
        ``"memory"`` (heap arrays), ``"memmap"`` (payloads in
        ``numpy.memmap`` files under ``directory``) or ``"shm"``
        (payloads in shared-memory segments; call :meth:`close` when
        done to unlink them).
    directory:
        Required for ``memmap`` backing; ignored otherwise.
    """

    def __init__(self, num_classes: int, buckets_per_class: int = 4,
                 backing: str = "memory",
                 directory: Optional[str] = None,
                 name: str = "sharded-inventory") -> None:
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        if buckets_per_class < 1:
            raise ValueError("buckets_per_class must be positive")
        if backing not in SHARD_BACKINGS:
            raise ValueError(f"backing must be one of {SHARD_BACKINGS}, "
                             f"got {backing!r}")
        if backing == "memmap" and directory is None:
            raise ValueError("memmap backing requires a directory")
        self.num_classes = num_classes
        self.buckets_per_class = buckets_per_class
        self.backing = backing
        self.directory = directory
        self.name = name
        self._shards: List[Optional[_Shard]] = (  # repro: guarded-by(_lock)
            [None] * ((num_classes + 1) * buckets_per_class))
        self._sample_shape: Optional[Tuple[int, ...]] = None  # repro: guarded-by(_lock)
        self._dtype: Optional[np.dtype] = None  # repro: guarded-by(_lock)
        self._lock = threading.Lock()
        # Serializes save(): held for a whole checkpoint so concurrent
        # saves cannot share a generation or prune each other's files.
        self._ckpt_lock = threading.Lock()
        # Insertion log: (shard index, slot) per appended row, in add
        # order, so as_dataset() replays the source order bit-for-bit.
        self._order_shard: List[np.ndarray] = []  # repro: guarded-by(_lock)
        self._order_slot: List[np.ndarray] = []   # repro: guarded-by(_lock)
        self._total: int = 0                      # repro: guarded-by(_lock)
        self._save_gen: int = 0                   # repro: guarded-by(_lock)

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: LabeledDataset,
                     num_classes: Optional[int] = None,
                     buckets_per_class: int = 4,
                     backing: str = "memory",
                     directory: Optional[str] = None) -> "ShardedInventory":
        """Partition an existing dataset into a sharded inventory."""
        inventory = cls(
            num_classes or dataset.num_classes,
            buckets_per_class=buckets_per_class,
            backing=backing, directory=directory,
            name=dataset.name)
        inventory.add(dataset)
        return inventory

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return self._total

    @property
    def sample_shape(self) -> Optional[Tuple[int, ...]]:
        return self._sample_shape

    def shard_sizes(self) -> List[int]:
        """Live row count of every shard (empty shards report 0)."""
        return [0 if s is None else len(s) for s in self._shards]

    def shard_key(self, index: int) -> ShardKey:
        """``(label, bucket)`` identity of shard ``index``; the final
        label group holds missing-label rows."""
        label, bucket = divmod(index, self.buckets_per_class)
        return ShardKey(label=_MISSING if label == self.num_classes
                        else label, bucket=bucket)

    def _group_of(self, labels: np.ndarray) -> np.ndarray:
        """Class group of each row (missing labels -> the extra group)."""
        groups = np.asarray(labels, dtype=np.int64).copy()
        missing = groups == _MISSING
        bad = ~missing & ((groups < 0) | (groups >= self.num_classes))
        if bad.any():
            raise ValueError(
                f"labels outside [0, {self.num_classes}) ∪ {{{_MISSING}}}: "
                f"{sorted(set(int(v) for v in groups[bad]))[:5]}")
        groups[missing] = self.num_classes
        return groups

    def _shard_for(self, index: int) -> _Shard:
        # Check-then-create under the inventory lock: two adds racing
        # on a not-yet-created shard must agree on a single _Shard, or
        # the loser's appended rows would vanish while the insertion
        # log still references their (shard, slot) entries.
        with self._lock:
            shard = self._shards[index]
            if shard is None:
                assert (self._sample_shape is not None
                        and self._dtype is not None)
                shard = _Shard(index, self._sample_shape, self._dtype,
                               self.backing, self.directory)
                self._shards[index] = shard
        return shard

    # ------------------------------------------------------------------
    # Incremental growth
    # ------------------------------------------------------------------
    def add(self, dataset: LabeledDataset) -> None:
        """Append a dataset's rows, shard by shard (no full rebuild).

        Rows are routed to ``shard(label, hash(id))``; each touched
        shard is extended in place under its own lock, inside a
        ``shard_merge`` span so storms are debuggable from a trace.
        """
        if len(dataset) == 0:
            return
        x = np.asarray(dataset.x)
        shape = tuple(x.shape[1:])
        with self._lock:
            if self._sample_shape is None:
                self._sample_shape = shape
                self._dtype = np.dtype(x.dtype)
            elif shape != self._sample_shape:
                raise ValueError(
                    f"sample shape {shape} does not match inventory "
                    f"shape {self._sample_shape}")
        groups = self._group_of(dataset.y)
        buckets = bucket_of(dataset.ids, self.buckets_per_class)
        shard_index = groups * self.buckets_per_class + buckets
        order_shard = np.asarray(shard_index, dtype=np.int64)
        order_slot = np.empty(len(dataset), dtype=np.int64)
        for index in np.unique(shard_index):
            rows = np.nonzero(shard_index == index)[0]
            shard = self._shard_for(int(index))
            with trace_span("shard_merge"):
                first, count = shard.append(
                    x[rows], dataset.y[rows],
                    None if dataset.true_y is None
                    else dataset.true_y[rows],
                    dataset.ids[rows])
                order_slot[rows] = first + np.arange(len(rows))
                incr("shards.merges")
                observe("shards.shard_rows", count)
        with self._lock:
            self._order_shard.append(order_shard)
            self._order_slot.append(order_slot)
            self._total += len(dataset)

    def merge(self, other: "ShardedInventory") -> None:
        """Fold another sharded inventory in (its insertion order)."""
        if other.num_classes != self.num_classes:
            raise ValueError(
                f"cannot merge inventory with {other.num_classes} classes "
                f"into one with {self.num_classes}")
        self.add(other.as_dataset())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _order_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if not self._order_shard:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty
            return (np.concatenate(self._order_shard),
                    np.concatenate(self._order_slot))

    def as_dataset(self, name: Optional[str] = None) -> LabeledDataset:
        """The full inventory in insertion order (bit-identical to the
        concatenation of everything ever added)."""
        order_shard, order_slot = self._order_arrays()
        dataset = self.gather(order_shard, order_slot)
        return LabeledDataset(dataset.x, dataset.y, true_y=dataset.true_y,
                              ids=dataset.ids, name=name or self.name)

    def class_subset(self, classes: Sequence[int],
                     name: Optional[str] = None) -> LabeledDataset:
        """Rows of the given classes only — touches just their shards.

        Row order is the insertion order restricted to those classes,
        so the result equals ``as_dataset()`` filtered by label.
        """
        wanted = set(int(c) for c in classes)
        groups = [c for c in wanted if 0 <= c < self.num_classes]
        keep_shards: List[int] = []
        for group in sorted(groups):
            start = group * self.buckets_per_class
            keep_shards.extend(range(start, start + self.buckets_per_class))
        order_shard, order_slot = self._order_arrays()
        mask = np.isin(order_shard, keep_shards)
        dataset = self.gather(order_shard[mask], order_slot[mask])
        return LabeledDataset(dataset.x, dataset.y, true_y=dataset.true_y,
                              ids=dataset.ids,
                              name=name or f"{self.name}/classes")

    def gather(self, order_shard: np.ndarray,
               order_slot: np.ndarray) -> LabeledDataset:
        """Materialise explicit (shard, slot) rows in the given order."""
        n = len(order_shard)
        shape = self._sample_shape or ()
        dtype = self._dtype or np.dtype(float)
        x = np.empty((n, *shape), dtype=dtype)
        y = np.empty(n, dtype=np.int64)
        ids = np.empty(n, dtype=np.int64)
        true_parts: List[Tuple[np.ndarray, np.ndarray]] = []
        has_truth = True
        for index in np.unique(order_shard):
            shard = self._shards[int(index)]
            assert shard is not None
            sx, sy, st, sids = shard.snapshot()
            rows = np.nonzero(order_shard == index)[0]
            slots = order_slot[rows]
            x[rows] = sx[slots]
            y[rows] = sy[slots]
            ids[rows] = sids[slots]
            if st is None:
                has_truth = False
            else:
                true_parts.append((rows, st[slots]))
        true_y: Optional[np.ndarray] = None
        if has_truth and true_parts:
            true_y = np.empty(n, dtype=np.int64)
            for rows, values in true_parts:
                true_y[rows] = values
        return LabeledDataset(x=x, y=y, true_y=true_y, ids=ids,
                              name=self.name)

    # ------------------------------------------------------------------
    # Checkpoint / resume (generation-versioned, crash-safe)
    # ------------------------------------------------------------------
    def save(self, directory: str) -> str:
        """Write a crash-safe checkpoint; returns the manifest path.

        The insertion log is captured first (a consistent prefix under
        concurrent adds), every referenced shard prefix is written
        under a fresh generation tag, the manifest is atomically
        replaced last, and only then are older generations pruned.  A
        kill at any point — the ``shard_flush`` chaos stage fires as
        each shard starts flushing — leaves the previous
        manifest/payload pair fully intact.

        Saves are serialized on a dedicated checkpoint lock, and each
        reserves its generation number atomically before flushing, so
        concurrent callers can never collide on payload filenames or
        prune files another save's manifest is about to reference.
        """
        os.makedirs(directory, exist_ok=True)
        with self._ckpt_lock:
            return self._save_locked(directory)

    def _save_locked(self, directory: str) -> str:
        with self._lock:
            self._save_gen += 1
            generation = self._save_gen
        order_shard, order_slot = self._order_arrays()
        entries: List[dict] = []
        for index in np.unique(order_shard):
            shard = self._shards[int(index)]
            assert shard is not None
            rows = int(order_slot[order_shard == index].max()) + 1
            with trace_span("shard_flush"):
                sx, sy, st, sids = shard.snapshot(rows=rows)
                payload: Dict[str, np.ndarray] = {
                    "x": np.ascontiguousarray(sx),
                    "y": sy, "ids": sids}
                if st is not None:
                    payload["true_y"] = st
                filename = f"shard_{int(index):04d}.g{generation}.npz"
                atomic_write_npz(os.path.join(directory, filename),
                                 payload)
                incr("shards.flushes")
            entries.append({"index": int(index), "file": filename,
                            "rows": rows,
                            "has_true_y": st is not None})
        order_file = f"order.g{generation}.npz"
        atomic_write_npz(os.path.join(directory, order_file),
                         {"shard": order_shard, "slot": order_slot})
        manifest = {
            "version": _MANIFEST_VERSION,
            "generation": generation,
            "name": self.name,
            "num_classes": self.num_classes,
            "buckets_per_class": self.buckets_per_class,
            "backing": self.backing,
            "sample_shape": list(self._sample_shape or ()),
            "dtype": str(np.dtype(self._dtype or np.dtype(float))),
            "total": int(len(order_shard)),
            "order_file": order_file,
            "shards": entries,
        }
        path = os.path.join(directory, MANIFEST_FILE)
        atomic_write_json(path, manifest)
        self._prune_generations(directory, generation)
        return path

    @staticmethod
    def _prune_generations(directory: str, keep: int) -> None:
        """Drop payload files of generations older than ``keep``."""
        for entry in sorted(os.listdir(directory)):
            stem, ext = os.path.splitext(entry)
            if ext != ".npz" or ".g" not in stem:
                continue
            tag = stem.rsplit(".g", 1)[1]
            if tag.isdigit() and int(tag) < keep:
                os.remove(os.path.join(directory, entry))

    @classmethod
    def load(cls, directory: str,
             backing: str = "memory",
             live_directory: Optional[str] = None) -> "ShardedInventory":
        """Reconstruct the inventory a :meth:`save` checkpoint captured.

        ``backing`` selects the *live* backing of the loaded inventory
        (a memmap-backed store may be reloaded onto the heap and vice
        versa); payload bytes, insertion order and ids round-trip
        bit-identically either way.
        """
        import json

        with open(os.path.join(directory, MANIFEST_FILE)) as fh:
            manifest = json.load(fh)
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ValueError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')!r}")
        inventory = cls(
            int(manifest["num_classes"]),
            buckets_per_class=int(manifest["buckets_per_class"]),
            backing=backing, directory=live_directory,
            name=str(manifest["name"]))
        inventory._sample_shape = tuple(
            int(d) for d in manifest["sample_shape"])
        inventory._dtype = np.dtype(str(manifest["dtype"]))
        for entry in manifest["shards"]:
            with np.load(os.path.join(directory, entry["file"])) as data:
                shard = inventory._shard_for(int(entry["index"]))
                shard.append(data["x"], data["y"],
                             data["true_y"] if entry["has_true_y"] else None,
                             data["ids"])
        with np.load(os.path.join(directory,
                                  manifest["order_file"])) as data:
            order_shard = np.asarray(data["shard"], dtype=np.int64)
            order_slot = np.asarray(data["slot"], dtype=np.int64)
        with inventory._lock:
            inventory._order_shard = [order_shard]
            inventory._order_slot = [order_slot]
            inventory._total = int(manifest["total"])
            inventory._save_gen = int(manifest["generation"])
        return inventory

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release shard backings (unlink shared-memory segments)."""
        for shard in self._shards:
            if shard is not None:
                shard.close()

    def __enter__(self) -> "ShardedInventory":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
