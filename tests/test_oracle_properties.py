"""Property tests: the production matcher against the spec oracle.

Hypothesis draws random pattern subsets of the fitted namer (in random
order) and statements whose paths are permuted and carry duplicate
prefixes with other ends — the cases where the first occurrence must
order the matches and the last one must answer the lookups.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.namepath import NamePath
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher, prefix_frequencies_ids
from tests import oracle


@pytest.fixture(scope="module")
def world(fitted_namer):
    statements = [
        (ps.stmt, ps.paths)
        for pf in fitted_namer.prepared
        for ps in pf.statements
    ]
    return fitted_namer.matcher.patterns, statements


@st.composite
def doctored_paths(draw, paths, symbolic=True):
    """``paths`` permuted, plus copies of some prefixes with other ends
    (symbolic ones too unless ``symbolic`` is false)."""
    shuffled = draw(st.permutations(paths))
    ends = st.sampled_from(
        sorted({p.end for p in paths if p.end is not None}) + ["other"]
    )
    if symbolic:
        ends = st.one_of(st.none(), ends)
    copies = draw(
        st.lists(st.tuples(st.integers(0, len(paths) - 1), ends), max_size=3)
    )
    return shuffled + [NamePath(paths[i].prefix, end) for i, end in copies]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matcher_equals_oracle(world, data):
    patterns, statements = world
    chosen = data.draw(
        st.lists(st.integers(0, len(patterns) - 1), unique=True, max_size=40)
    )
    subset = [patterns[i] for i in chosen]
    stmt, paths = data.draw(st.sampled_from(statements))
    paths = data.draw(doctored_paths(paths))
    relations = oracle.relations(subset, paths)
    violations = oracle.violations(subset, stmt, paths)

    interned = PatternMatcher(subset)
    assert interned.relations(paths) == relations
    assert interned.violations(stmt, paths) == violations
    # A capped interner refuses every path: the scalar scan walks them
    # through the trie inline; the fully interned batch walk must agree.
    refused = PatternMatcher(subset)
    refused.attach_interner(PathInterner(), cap=0)
    for matcher in (interned, refused):
        entry = (stmt, paths, matcher.prepare_ids(paths))
        assert matcher.scan_entries([entry]) == ([violations], [relations])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefix_frequencies_ids_equals_oracle(world, data):
    """Over corpora of extracted paths, which are always concrete."""
    _, statements = world
    drawn = data.draw(st.lists(st.sampled_from(statements), max_size=20))
    path_lists = [
        data.draw(doctored_paths(paths, symbolic=False)) for _, paths in drawn
    ]
    interner, id_lists = PathInterner.build(path_lists)
    got = prefix_frequencies_ids(id_lists, interner)
    expected = oracle.prefix_frequencies(path_lists)
    assert list(got.items()) == list(expected.items())
