"""Content-keyed cache of model inference outputs.

ENLD needs the general model's view of the inventory candidates —
softmax confidences ``M(x, θ)`` and penultimate features ``M̂(x, θ)``
— on every arriving dataset, though neither ``θ`` nor ``I_c`` changes
between arrivals.  :class:`FeatureCache` memoises forward passes
behind a content key:

    key = (digest of θ's weights, digest of the input array)

so a cache entry can never go stale: refreshing the model (Alg. 4)
changes the weight digest and subsequent lookups simply miss.  Eviction
is LRU with a small entry budget (each entry holds two arrays of the
input's row count).

Digests are BLAKE2b over the raw array bytes plus shape/dtype, which
makes the key portable across processes — the cache itself is
in-memory only, but the key scheme is safe to persist next to
checkpoints if a future PR wants warm starts.

Inference goes through :meth:`Classifier.predict_view`, the fused
single-forward path, so even a cache *miss* is cheaper than the
historical two-pass ``predict_proba`` + ``features`` sequence.
Returned arrays are marked read-only: they are shared across lookups.

Keys are *exact* array content: a subset of a cached input hashes as
its own entry.  ENLD does not look subsets up here, though.  It asks
the cache once per model version for the view of the whole ``I_c``
(``ENLD._candidate_view``), and every arrival slices its ``I'`` rows
out of that view — the paper's once-per-model inventory features
(§IV-D).  Slicing is a deliberate choice, not an
identity: BLAS gemm blocking varies with the row count, so rows of a
full-set forward may differ from a forward over the subset alone in
the last few ulps.  Measured on the three benchmark workloads, the
sliced ``I'`` rows were within 2.2e-15 of a direct ``I'`` forward, and
at seeds 1–10 no verdict flipped.  Hashing ``I_c`` on every arrival
would eat much of the saving (about 13 ms per lookup over a
16,200 x 36 pool), so the lookup happens once per version.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Tuple

import numpy as np

from ..obs import incr
from .layers import Module
from .models import INFER_BATCH_ROWS, Classifier

#: Default number of (probs, features) pairs kept per cache.
DEFAULT_MAX_ENTRIES = 8

CacheKey = Tuple[str, str]
ViewPair = Tuple[np.ndarray, np.ndarray]


def array_digest(arr: np.ndarray) -> str:
    """BLAKE2b content digest of an array (shape- and dtype-aware)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def weights_digest(model: Module) -> str:
    """Content digest of a model's parameters and buffers.

    Two models with identical state dicts (e.g. a model and its
    :func:`repro.nn.serialize.clone_module` clone) share a digest, so
    cached views survive the detector's defensive cloning.
    """
    h = hashlib.blake2b(digest_size=16)
    for name, value in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(array_digest(np.asarray(value)).encode())
    return h.hexdigest()


class FeatureCache:
    """LRU cache of fused model views keyed on (weights, data) content.

    Parameters
    ----------
    max_entries:
        LRU budget; ``0`` disables storage (every lookup misses) while
        keeping the API uniform.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, ViewPair]" = OrderedDict()  # repro: guarded-by(_lock)
        self.hits = 0  # repro: guarded-by(_lock)
        self.misses = 0  # repro: guarded-by(_lock)
        self.evictions = 0  # repro: guarded-by(_lock)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def view(self, model: Classifier, x: np.ndarray,
             batch_size: int = INFER_BATCH_ROWS) -> ViewPair:
        """``(probs, features)`` of ``model`` over ``x``, cached.

        A hit returns the stored arrays without touching the model; a
        miss runs one fused forward pass (`predict_view`) and stores
        the result.  Outputs are bit-identical either way.

        Thread-safe, so a cache may be shared between threads.  The
        (expensive) forward pass on a miss deliberately runs *outside*
        the lock — two threads missing on the same key
        compute twice and store the identical read-only result, which
        costs a duplicated forward but never blocks the hot path on a
        worker's inference.
        """
        key = (weights_digest(model), array_digest(x))
        with self._lock:
            pair = self._entries.get(key)
            if pair is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                incr("featurecache.hits")
                return pair
            self.misses += 1
        incr("featurecache.misses")
        probs, features = model.predict_view(x, batch_size=batch_size)
        probs.setflags(write=False)
        features.setflags(write=False)
        if self.max_entries:
            with self._lock:
                self._entries[key] = (probs, features)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    incr("featurecache.evictions")
        return probs, features

    def invalidate(self) -> None:
        """Drop every entry (e.g. to bound memory after a model swap)."""
        incr("featurecache.invalidations")
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for observability reports."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._entries)}
