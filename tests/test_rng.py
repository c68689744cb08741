"""Tests for ``repro.nn.rng``: the ``StreamTags`` registry.

Derived RNG streams are keyed ``[seed, TAG, ...]``; two call sites
sharing a tag would silently correlate streams that bit-identical
replay needs independent.  The registry rejects duplicate and
non-positive values when it is built, and every ``STREAM_TAGS.<NAME>``
spelled in the library must name one of its fields.
"""

import dataclasses
import glob
import os
import re

import pytest

from repro.nn.rng import STREAM_TAGS, StreamTags

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MEMBER_RE = re.compile(r"\bSTREAM_TAGS\.([A-Za-z_][A-Za-z0-9_]*)")


class TestStreamTagsRegistry:
    def test_default_values_positive_and_unique(self):
        values = [getattr(STREAM_TAGS, name)
                  for name in STREAM_TAGS.names()]
        assert all(isinstance(v, int) and v > 0 for v in values)
        assert len(set(values)) == len(values)

    def test_names_cover_every_field(self):
        assert sorted(STREAM_TAGS.names()) == sorted(
            f.name for f in dataclasses.fields(StreamTags))

    def test_duplicate_value_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            StreamTags(DETECT=STREAM_TAGS.INGEST_JITTER)

    def test_reused_value_in_registry_copy_rejected(self):
        # Deliberately broken copy of the real registry: two names
        # sharing one value would silently correlate their streams.
        with pytest.raises(ValueError, match="duplicate"):
            dataclasses.replace(STREAM_TAGS, RESEED=STREAM_TAGS.DETECT)

    def test_non_positive_value_rejected(self):
        with pytest.raises(ValueError):
            StreamTags(DETECT=0)
        with pytest.raises(ValueError):
            StreamTags(RESEED=-7919)

    def test_registry_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            STREAM_TAGS.DETECT = 1


def test_every_member_spelled_in_src_is_registered():
    registered = set(STREAM_TAGS.names())
    spelled = {}
    pattern = os.path.join(REPO_ROOT, "src", "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as fh:
            for name in _MEMBER_RE.findall(fh.read()):
                if not callable(getattr(StreamTags, name, None)):
                    spelled.setdefault(name, path)   # not names()
    assert {"DETECT", "INGEST_JITTER", "SUBMIT_JITTER", "RESEED",
            "UPDATE_BACKOFF"} <= set(spelled)
    unknown = {name: path for name, path in spelled.items()
               if name not in registered}
    assert unknown == {}
