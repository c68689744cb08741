"""Repo-specific invariant manifest for :mod:`repro.analysis`.

The rules in :mod:`repro.analysis.rules` are generic AST checks; this
module pins down *which* modules they apply to and which names are
exempt.  Scoping is expressed in **module keys** — the posix path from
the ``repro`` package directory down (``repro/datalake/stream.py``) —
so the checks behave identically regardless of where the checkout or
a test fixture tree lives.

Keeping the manifest in code (rather than ad-hoc comments) is the
point: when someone adds a new stage entry point or a new state file,
the diff that updates this manifest is the reviewable record that the
invariant was considered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

#: numpy.random attributes that *are* the Generator discipline.
#: Everything else (``seed``, ``rand``, ``shuffle``, ``RandomState``,
#: …) is legacy global-state API and banned outside the allowlist.
NP_RANDOM_ALLOWED: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "Philox",
})

#: Stage entry points that must open an obs span (or activate a
#: tracer) somewhere in their body: module key -> qualified names.
#: These are the public boundaries PR 1 promised to keep visible to
#: the tracer — and the seams PR 2's fault injector relies on.
TRACED_ENTRY_POINTS: Dict[str, FrozenSet[str]] = {
    "repro/core/enld.py": frozenset({
        "ENLD.initialize", "ENLD.detect", "ENLD.update_model",
    }),
    "repro/core/detector.py": frozenset({
        "FineGrainedDetector.detect",
    }),
    "repro/datalake/platform.py": frozenset({
        "NoisyLabelPlatform.submit",
        "NoisyLabelPlatform.checkpoint",
        "NoisyLabelPlatform.resume",
    }),
    "repro/datalake/ingest.py": frozenset({
        "IngestPipeline.run",
    }),
}

#: The module (by key) that owns the RNG stream-tag registry (REP801):
#: the one place integer tag literals are legal.
STREAM_TAG_REGISTRY_KEY = "repro/nn/rng.py"


@dataclass(frozen=True)
class AnalysisConfig:
    """Scoping knobs for the rule set (defaults match this repo)."""

    #: numpy.random members usable anywhere.
    np_random_allowed: FrozenSet[str] = NP_RANDOM_ALLOWED

    #: Module-key prefixes where even legacy RNG API is tolerated
    #: (none in the library; tests/benchmarks are simply not scanned).
    rng_exempt_prefixes: Tuple[str, ...] = ()

    #: Module-key prefix under atomic-write discipline …
    atomic_scope_prefixes: Tuple[str, ...] = ("repro/datalake/",)
    #: … except the module that *implements* the atomic helpers.
    atomic_exempt_keys: Tuple[str, ...] = (
        "repro/datalake/persistence.py",)

    #: Modules allowed to read wall clocks.  Everything else must go
    #: through :class:`repro.obs.Stopwatch` / the tracer so timing
    #: stays mockable and the work model stays the CI-gated quantity.
    wallclock_allowed_prefixes: Tuple[str, ...] = ("repro/obs/",)

    #: Stage entry points that must be traced.
    traced_entry_points: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(TRACED_ENTRY_POINTS))

    #: Module key owning the stream-tag registry (REP801).
    stream_tag_registry_key: str = STREAM_TAG_REGISTRY_KEY


DEFAULT_CONFIG = AnalysisConfig()
