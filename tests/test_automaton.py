"""Differential suite: the compiled automaton against the spec oracle.

The compiled :class:`MatchAutomaton` replaces per-pattern
``check_pattern`` with integer-domain checks against one shared trie.
Nothing about its *output* may differ from the definitions —
relations, violations, report bytes, quarantine records, prune counts,
enumeration order — for any pattern subset, worker count, or cache
temperature.  ``tests/oracle.py`` states each of them directly from
Definitions 3.6-3.9 and Algorithms 1-2.
"""

from __future__ import annotations

import json
import pickle
import random
from collections import Counter

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import Relation
from repro.core.persistence import namer_to_document
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.automaton import AUTOMATON_SCHEMA, MatchAutomaton
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher
from repro.mining.miner import MiningConfig, _count_matches
from repro.parallel.executor import (
    ShardExecutor,
    SharedContext,
    resolve_context,
)
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.resilience.quarantine import Quarantine
from tests import oracle


@pytest.fixture(scope="module")
def trained_namer():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=31)
    )
    namer = Namer(
        NamerConfig(
            mining=MiningConfig(min_pattern_support=8, min_path_frequency=4)
        )
    )
    namer.mine(corpus)
    violations = namer.all_violations()[:40]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    return namer


@pytest.fixture(scope="module")
def statements(trained_namer):
    """(stmt, paths) pairs across the whole prepared corpus."""
    return [
        (ps.stmt, ps.paths)
        for pf in trained_namer.prepared
        for ps in pf.statements
    ]


def report_blob(groups) -> str:
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


class TestDifferentialRelations:
    """relations()/violations() against the oracle, statement by statement."""

    def test_full_pattern_set(self, trained_namer, statements):
        matcher = trained_namer.matcher
        patterns = matcher.patterns
        matched = 0
        for stmt, paths in statements:
            expected = oracle.relations(patterns, paths)
            assert matcher.relations(paths) == expected
            matched += len(expected)
            assert matcher.violations(stmt, paths) == oracle.violations(
                patterns, stmt, paths
            )
        assert matched, "corpus must exercise the matcher"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pattern_subsets(self, trained_namer, statements, seed):
        patterns = trained_namer.matcher.patterns
        rng = random.Random(seed)
        subset = rng.sample(patterns, max(1, len(patterns) // 3))
        matcher = PatternMatcher(subset)
        for stmt, paths in statements:
            assert matcher.relations(paths) == oracle.relations(subset, paths)
            assert matcher.violations(stmt, paths) == oracle.violations(
                subset, stmt, paths
            )

    def test_empty_pattern_set(self, statements):
        matcher = PatternMatcher([])
        for stmt, paths in statements[:50]:
            assert matcher.relations(paths) == []
            assert matcher.violations(stmt, paths) == []

    def test_single_pattern_set(self, trained_namer, statements):
        for pattern in trained_namer.matcher.patterns[:5]:
            matcher = PatternMatcher([pattern])
            for _, paths in statements:
                assert matcher.relations(paths) == oracle.relations(
                    [pattern], paths
                )

    def test_duplicate_prefix_statement_paths(self, trained_namer, statements):
        """A statement carrying the same prefix twice orders matches at
        the first occurrence but resolves lookups at the last."""
        matcher = trained_namer.matcher
        patterns = matcher.patterns
        checked = 0
        for stmt, paths in statements:
            if len(paths) < 2:
                continue
            doctored = list(paths) + [paths[0], paths[-1]]
            assert matcher.relations(doctored) == oracle.relations(
                patterns, doctored
            )
            assert matcher.violations(stmt, doctored) == oracle.violations(
                patterns, stmt, doctored
            )
            checked += 1
            if checked >= 40:
                break
        assert checked, "need statements with at least two paths"

    def test_shared_anchor_buckets_exist(self, trained_namer):
        """The mined set must actually exercise shared accept sets —
        several patterns anchored at one trie node — or the ordering
        assertions above prove less than they claim."""
        automaton = trained_namer.matcher._automaton
        assert any(len(b) > 1 for b in automaton._accepts.values())

    def test_rescan_is_stateless(self, trained_namer, statements):
        """Generation-stamped scratch arrays must not leak one scan's
        state into the next (same or different statement)."""
        matcher = trained_namer.matcher
        sample = statements[:60]
        first = [matcher.relations(paths) for _, paths in sample]
        second = [matcher.relations(paths) for _, paths in reversed(sample)]
        assert first == list(reversed(second))


class TestDifferentialReports:
    """End-to-end detect_many against the oracle, serial and parallel."""

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_byte_identical_reports(self, trained_namer, workers):
        namer = trained_namer
        expected = report_blob(oracle.detect(namer, namer.prepared))
        got = report_blob(namer.detect_many(namer.prepared, workers=workers))
        assert got == expected

    def test_repeat_scan_replay_identical(self, trained_namer):
        """Two detect passes over the same namer (warm scan arrays,
        bumped generations) must be byte-identical."""
        namer = trained_namer
        first = report_blob(namer.detect_many(namer.prepared))
        second = report_blob(namer.detect_many(namer.prepared))
        assert second == first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_parity_under_faults(self, trained_namer, workers):
        """Under an armed fault plan every worker count quarantines the
        same files, and every file that survives reports exactly what
        the oracle reports for it."""
        plan = FaultPlan(
            [
                FaultSpec(site="core.detect", rate=0.4),
                FaultSpec(site="core.featurize", rate=0.3),
            ],
            seed=5,
        )
        namer = trained_namer

        def run(count):
            with FAULTS.armed(plan):
                quarantine = Quarantine()
                groups = namer.detect_many(
                    namer.prepared, quarantine=quarantine, workers=count
                )
            return groups, [
                (r.path, r.stage, r.kind, r.repo) for r in quarantine.records
            ]

        serial_groups, serial_records = run(1)
        groups, records = run(workers)
        assert serial_records, "plan must actually trip to prove parity"
        assert records == serial_records
        assert report_blob(groups) == report_blob(serial_groups)
        expected = oracle.detect(namer, namer.prepared)
        dropped = {path for path, *_ in records}
        survivors = [
            (got, want)
            for pf, got, want in zip(namer.prepared, groups, expected)
            if pf.path not in dropped
        ]
        assert survivors
        assert report_blob([g for g, _ in survivors]) == report_blob(
            [w for _, w in survivors]
        )


class TestPruneParity:
    """The miner's prune counts through the shared automaton matcher."""

    def test_count_matches_backend_parity(self, trained_namer, statements):
        matcher = trained_namer.matcher
        expected_m: Counter = Counter()
        expected_s: Counter = Counter()
        for _, paths in statements:
            for idx, relation in oracle.relations(matcher.patterns, paths):
                expected_m[idx] += 1
                if relation is Relation.SATISFIED:
                    expected_s[idx] += 1
        rows = [matcher.prepare_ids(paths) for _, paths in statements]
        match_counts, sat_counts = _count_matches(matcher, rows)
        assert match_counts == expected_m
        assert list(match_counts) == list(expected_m)
        assert list(sat_counts.items()) == list(expected_s.items())

    def test_counts_anchor_independent(self, trained_namer, statements):
        """Corpus-rarity anchors and fallback anchors must count
        identically — the invariant that lets one shared matcher serve
        every shard layout and the cache."""
        tuned = trained_namer.matcher
        fallback = PatternMatcher(
            tuned.patterns, interner=tuned._automaton._interner
        )
        rows = [tuned.prepare_ids(paths) for _, paths in statements]
        assert _count_matches(fallback, rows) == _count_matches(tuned, rows)

    def test_mined_artifacts_identical_across_backends(self, mined_document):
        """mine() itself (stats index included) produces the artifact
        the oracle miner produces."""
        corpus = generate_python_corpus(
            GeneratorConfig(num_repos=4, issue_rate=0.15, seed=9)
        )
        config = NamerConfig(
            mining=MiningConfig(min_pattern_support=6, min_path_frequency=4)
        )
        assert mined_document(config, corpus) == mined_document(
            config, corpus, oracle.OracleMiner
        )


class TestFallbackFrequencies:
    """The artifact-load fallback rarity table is read off the trie."""

    def test_fallback_counts_match_recounting(self, trained_namer):
        patterns = trained_namer.matcher.patterns
        expected = Counter(
            d.prefix for p in patterns for d in sorted(p.deduction)
        )
        matcher = PatternMatcher(patterns)  # no corpus table: fallback
        assert matcher.prefix_counts == expected
        # First-seen key order is part of the merge/serialization
        # contract, not just the values.
        assert list(matcher.prefix_counts) == list(expected)
        assert matcher._automaton.deduction_prefix_counts() == expected

    def test_artifact_load_builds_automaton(self, trained_namer, tmp_path):
        from repro.core.persistence import load_namer, save_document

        artifact = tmp_path / "namer.json"
        save_document(namer_to_document(trained_namer), str(artifact))
        loaded = load_namer(str(artifact))
        assert loaded.matcher._automaton._finalized
        expected = Counter(
            d.prefix
            for p in loaded.matcher.patterns
            for d in sorted(p.deduction)
        )
        assert loaded.matcher.prefix_counts == expected
        assert list(loaded.matcher.prefix_counts) == list(expected)


class TestMergeAndPickle:
    def test_merge_parity_with_flat_build(self, trained_namer, statements):
        patterns = trained_namer.matcher.patterns
        third = max(1, len(patterns) // 3)
        parts = [
            PatternMatcher(patterns[:third]),
            PatternMatcher(patterns[third : 2 * third]),
            PatternMatcher(patterns[2 * third :]),
        ]
        merged = PatternMatcher.merge(parts)
        flat = PatternMatcher(patterns)
        assert merged.prefix_counts == flat.prefix_counts
        assert list(merged.prefix_counts) == list(flat.prefix_counts)
        assert merged._automaton._accepts == flat._automaton._accepts
        for _, paths in statements[:100]:
            assert merged.relations(paths) == flat.relations(paths)

    def test_merge_reuses_shared_interner(self, trained_namer):
        patterns = trained_namer.matcher.patterns
        shared = PathInterner()
        merged = PatternMatcher.merge(
            [
                PatternMatcher(patterns[:2], interner=shared),
                PatternMatcher(patterns[2:4], interner=shared),
            ]
        )
        assert merged._automaton._interner is shared
        mixed = PatternMatcher.merge(
            [
                PatternMatcher(patterns[:2], interner=shared),
                PatternMatcher(patterns[2:4]),
            ]
        )
        assert mixed._automaton._interner is not shared

    def test_pickle_roundtrip(self, trained_namer, statements):
        """A matcher that has already scanned must pickle without its
        scratch state and match identically on the other side — the
        spawn-platform shipping path."""
        matcher = trained_namer.matcher
        sample = statements[:50]
        for _, paths in sample[:5]:
            matcher.relations(paths)  # populate scan scratch
        blob = pickle.dumps(matcher)
        automaton_state = pickle.loads(
            pickle.dumps(matcher._automaton)
        ).__dict__
        assert "_stamp" not in automaton_state
        loaded = pickle.loads(blob)
        for stmt, paths in sample:
            assert loaded.relations(paths) == matcher.relations(paths)
            assert loaded.violations(stmt, paths) == matcher.violations(
                stmt, paths
            )

    def test_unfinalized_automaton_refuses_to_scan(self, trained_namer):
        automaton = MatchAutomaton(trained_namer.matcher.patterns[:2])
        with pytest.raises(RuntimeError, match="finalize"):
            automaton.relations([])

    def test_schema_constant_is_int(self):
        assert isinstance(AUTOMATON_SCHEMA, int)


class TestSharedContext:
    """share_context ships the matcher once per pool, not per task."""

    def test_handle_before_pool_raw_after(self):
        value = {"model": 1}
        with ShardExecutor(2) as executor:
            handle = executor.share_context(value)
            assert isinstance(handle, SharedContext)
            assert resolve_context(handle) is value
            # Re-sharing the same object reuses the registration.
            assert executor.share_context(value) == handle
            executor.warm()
            late = executor.share_context({"model": 2})
            assert not isinstance(late, SharedContext)
            assert resolve_context(late) == {"model": 2}

    def test_serial_executor_ships_raw(self):
        with ShardExecutor(1) as executor:
            value = object()
            assert executor.share_context(value) is value

    def test_close_unregisters(self):
        from repro.parallel.executor import _SHARED

        executor = ShardExecutor(2)
        handle = executor.share_context(["ctx"])
        assert handle.key in _SHARED
        executor.close()
        assert handle.key not in _SHARED

    def test_workers_resolve_shared_context(self, trained_namer):
        """End to end: a pool created after share_context serves tasks
        that carry only the handle."""
        namer = trained_namer
        expected = report_blob(namer.detect_many(namer.prepared[:6]))
        with ShardExecutor(2) as executor:
            namer.warm_detect(executor)
            got = report_blob(
                namer.detect_many(namer.prepared[:6], executor=executor)
            )
        assert got == expected
