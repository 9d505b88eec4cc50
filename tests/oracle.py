"""Spec oracle for the differential suites, written straight from the
paper's definitions with no index, automaton or interning:

1. **Relations and violations** (Definitions 3.6-3.9): naive
   ``check_pattern`` over every pattern, ordered by the statement-path
   position of the first path carrying the pattern's lexicographically
   smallest deduction prefix, then pattern index; violations come from
   ``find_violation`` in that same order.
2. **Mining** (Algorithms 1-2): one serial object pass — a ``Counter``
   of path frequencies, the consistency and confusing splits, the FP
   tree, ``generate_patterns``, duplicate merging, and prune counts
   taken from part 1.
"""

from __future__ import annotations

from collections import Counter

from repro.core.namer import _dedup_violations
from repro.core.namepath import paths_by_prefix
from repro.core.patterns import PatternKind, Relation, check_pattern, find_violation
from repro.core.stats_index import StatsIndex
from repro.mining.fptree import FPTree
from repro.mining.miner import MiningConfig, MiningResult, generate_patterns


def prefix_frequencies(path_lists) -> Counter:
    """How many statement paths carry each prefix, first-seen order."""
    counts: Counter = Counter()
    for paths in path_lists:
        for path in paths:
            counts[path.prefix] += 1
    return counts


def relations(patterns, paths) -> list:
    """``(pattern index, relation)`` for every matched pattern."""
    index = paths_by_prefix(paths)
    first: dict = {}
    for pos, path in enumerate(paths):
        first.setdefault(path.prefix, pos)
    found = []
    for idx, pattern in enumerate(patterns):
        relation = check_pattern(pattern, paths, index)
        if relation is not Relation.NO_MATCH:
            anchor = min(d.prefix for d in pattern.deduction)
            found.append((first[anchor], idx, relation))
    found.sort(key=lambda row: row[:2])
    return [(idx, relation) for _, idx, relation in found]


def violations(patterns, stmt, paths) -> list:
    index = paths_by_prefix(paths)
    return [
        find_violation(patterns[idx], stmt, paths, index)
        for idx, relation in relations(patterns, paths)
        if relation is Relation.VIOLATED
    ]


def detect(namer, files) -> list:
    """Reports for prepared files: the namer's own dedup, statistics and
    classifier over oracle relations and violations."""
    patterns = namer.matcher.patterns
    groups, local = [], []
    for pf in files:
        entries = [(ps.stmt, ps.paths) for ps in pf.statements]
        found = [v for s, paths in entries for v in violations(patterns, s, paths)]
        groups.append(_dedup_violations(found))
        rels = [relations(patterns, paths) for _, paths in entries]
        local.append(StatsIndex.build_from_relations(namer.matcher, entries, rels))
    return namer.classify_many(groups, local)


def _splits(paths, kind, correct_words, max_cond):
    """splitPaths (Algorithm 1, line 6)."""
    for i, a1 in enumerate(paths):
        if kind is PatternKind.CONFUSING_WORD:
            if a1.end in correct_words:
                yield [p for p in paths if p.prefix != a1.prefix][:max_cond], [a1]
            continue
        for a2 in paths[i + 1 :]:
            names = {a1.end, a2.end}.isdisjoint((None, "NUM", "STR", "BOOL"))
            if a1.prefix == a2.prefix or not names:
                continue
            if a1.end.casefold() != a2.end.casefold():
                continue
            cond = [p for p in paths if p.prefix not in (a1.prefix, a2.prefix)]
            yield cond[:max_cond], [a1.as_symbolic(), a2.as_symbolic()]


def mine(path_lists, kind, config: MiningConfig, correct_words=()) -> MiningResult:
    """minePatterns (Algorithm 1) over per-statement path lists."""
    counts = Counter(p for paths in path_lists for p in paths)
    frequent = {p for p, c in counts.items() if c >= config.min_path_frequency}
    tree = FPTree()
    for paths in path_lists:
        kept = [p for p in paths if p in frequent]
        for cond, deduct in _splits(
            kept, kind, set(correct_words), config.max_condition_paths
        ):
            tree.update_counted(tuple(sorted(cond) + sorted(deduct)), 1)
    merged: dict = {}
    for pattern in generate_patterns(
        tree.root, [], kind, config.max_condition_paths,
        config.condition_subsets, config.max_condition_combinations,
    ):
        seen = merged.get(pattern.key())
        if seen is not None:
            pattern = seen.with_support(seen.support + pattern.support)
        merged[pattern.key()] = pattern
    supported = [
        p for p in merged.values() if p.support >= config.min_pattern_support
    ]
    matched: Counter = Counter()
    satisfied: Counter = Counter()
    for paths in path_lists:
        for idx, relation in relations(supported, paths):
            matched[idx] += 1
            satisfied[idx] += relation is Relation.SATISFIED
    ratio = config.min_satisfaction_ratio
    kept = [
        p for i, p in enumerate(supported)
        if matched[i] and satisfied[i] / matched[i] >= ratio
    ]
    return MiningResult(
        patterns=kept,
        total_statements=len(path_lists),
        total_transactions=tree.transaction_count,
        fp_tree_nodes=tree.node_count(),
        candidates_before_pruning=len(merged),
    )


class OracleMiner:
    """Drop-in for :class:`~repro.mining.miner.PatternMiner` inside
    ``Namer.mine``: every keyword beyond the paths is ignored."""

    def __init__(self, config=MiningConfig(), confusing_pairs=()) -> None:
        self.config = config
        self.correct_words = {correct for _, correct in confusing_pairs}

    def mine(self, statements, kind, *, paths, **_ignored) -> MiningResult:
        return mine(paths, kind, self.config, self.correct_words)
