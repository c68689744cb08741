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

#: The declared layer DAG (REP602), as module-key prefixes -> rank.
#: A module may only import modules of rank <= its own.  Rank 0 is the
#: universal substrate (``obs``, ``analysis``): importable everywhere,
#: allowed to import nothing above itself.  Same-rank imports are
#: allowed (``noise -> nn``); cycles *within* a rank are caught by
#: REP601.  Keys not matching any prefix are outside the contract.
LAYER_RANKS: Dict[str, int] = {
    "repro/obs/": 0,
    "repro/analysis/": 0,
    "repro/nn/": 1,
    "repro/index/": 1,
    "repro/noise/": 1,
    "repro/datasets/": 1,
    "repro/core/": 2,
    "repro/baselines/": 3,
    "repro/eval/": 3,
    "repro/datalake/": 4,
    "repro/experiments/": 5,
    "repro/cli.py": 5,
    "repro/__main__.py": 5,
    "repro/__init__.py": 5,
}

#: Foreground entry points for the REP701 thread-escape analysis, as
#: ``dotted.module:Qualified.name``.  Everything reachable from these
#: (via resolvable calls) is "foreground"; everything reachable from a
#: spawn-site target is "worker"; attributes mutated on one side and
#: touched on the other are shared state.  The updater's public
#: surface is listed explicitly because the call encoder cannot see
#: through ``self.update_service.poll()`` (attribute-on-attribute
#: receivers are unresolvable by design).
CONCURRENCY_FOREGROUND_ROOTS: Tuple[str, ...] = (
    "repro.datalake.platform:NoisyLabelPlatform.submit",
    "repro.datalake.platform:NoisyLabelPlatform.update_model",
    "repro.datalake.platform:NoisyLabelPlatform.checkpoint",
    "repro.datalake.platform:NoisyLabelPlatform.resume",
    "repro.datalake.updater:ModelUpdateService.request_update",
    "repro.datalake.updater:ModelUpdateService.run_sync",
    "repro.datalake.updater:ModelUpdateService.poll",
    "repro.datalake.updater:ModelUpdateService.wait",
    "repro.datalake.updater:ModelUpdateService.cancel_pending",
    "repro.datalake.updater:ModelUpdateService.status",
    "repro.datalake.ingest:IngestPipeline.run",
    "repro.datalake.shards:ShardedInventory.add",
    "repro.datalake.shards:ShardedInventory.save",
)

#: Extra worker-context roots (same syntax) beyond what spawn-site
#: target resolution discovers automatically.
CONCURRENCY_WORKER_ROOTS: Tuple[str, ...] = ()

#: The module (by key) that owns the RNG stream-tag registry (REP801):
#: the one place integer tag literals are legal, and the module whose
#: ``StreamTags`` class body is the authoritative name -> value table.
STREAM_TAG_REGISTRY_KEY = "repro/nn/rng.py"

#: Module-key prefixes the REP8xx determinism family polices.  The
#: whole library is in scope: every layer feeds, directly or not, the
#: bit-identical-replay contract.
DETERMINISM_SCOPE_PREFIXES: Tuple[str, ...] = ("repro/",)

#: Module-key prefixes whose instance attributes REP701 polices.
#: Scoped to the layers that actually cross the worker boundary — the
#: nn model internals a worker *clone* trains are thread-private by
#: construction and would only produce noise.
CONCURRENCY_SHARED_STATE_PREFIXES: Tuple[str, ...] = (
    "repro/datalake/",
    "repro/obs/",
    "repro/nn/featurecache.py",
)


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

    #: Only package ``__init__`` modules get the "public name missing
    #: from __all__" warning; any module with a malformed ``__all__``
    #: gets the error.
    all_export_warning_suffix: str = "__init__.py"

    #: Layer contract for REP602: module-key prefix -> rank; imports
    #: may only point at equal or lower ranks.
    layer_ranks: Dict[str, int] = field(
        default_factory=lambda: dict(LAYER_RANKS))

    #: Parameter names REP604 treats as Generator-valued: a function
    #: holding an RNG must bind these on every project callee that
    #: declares one with a default (the silent-fallback case).
    rng_param_names: Tuple[str, ...] = ("rng", "generator")

    #: Foreground entry points for REP701 thread-escape analysis.
    concurrency_foreground_roots: Tuple[str, ...] = \
        CONCURRENCY_FOREGROUND_ROOTS

    #: Extra worker-context roots beyond resolved spawn targets.
    concurrency_worker_roots: Tuple[str, ...] = \
        CONCURRENCY_WORKER_ROOTS

    #: Module-key prefixes whose attributes REP701 polices.
    concurrency_shared_state_prefixes: Tuple[str, ...] = \
        CONCURRENCY_SHARED_STATE_PREFIXES

    #: Module key owning the stream-tag registry (REP801).
    stream_tag_registry_key: str = STREAM_TAG_REGISTRY_KEY

    #: Module-key prefixes the REP8xx determinism rules police.
    determinism_scope_prefixes: Tuple[str, ...] = \
        DETERMINISM_SCOPE_PREFIXES


DEFAULT_CONFIG = AnalysisConfig()
