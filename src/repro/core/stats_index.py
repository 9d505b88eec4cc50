"""Corpus-level statistics backing the defect classifier's features.

Most of Table 1's features are counts of matches, satisfactions and
violations of a pattern at three levels — the file containing the
statement, its repository, and the entire mining dataset.  This index
is built in one pass over the corpus: every statement is checked
against its candidate patterns and the outcome is recorded at all three
levels, alongside identical-statement counts (features 2-3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.patterns import NamePattern, Relation
from repro.lang.astir import StatementAst
from repro.mining.matcher import PatternMatcher

__all__ = ["FileStatsView", "StatsIndex"]


@dataclass
class StatsIndex:
    """Match/satisfaction/violation counts per pattern and level.

    Pattern identity is the pattern's :meth:`~NamePattern.key`, so the
    index survives re-created pattern objects.
    """

    matches: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    satisfactions: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    violations: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    statement_counts: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter()}
    )
    total_statements: int = 0

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        matcher: PatternMatcher,
        statements: Iterable[tuple],
    ) -> "StatsIndex":
        """Scan ``(statement, paths)`` pairs — or ``(statement, paths,
        ids)`` triples when the caller already resolved the statement's
        interned path IDs — and accumulate all counters."""
        entries = list(statements)
        return cls.build_from_relations(
            matcher, entries, [matcher.relations(*entry[1:]) for entry in entries]
        )

    @classmethod
    def build_from_relations(
        cls,
        matcher: PatternMatcher,
        statements: Iterable[tuple],
        relation_rows: Iterable[Sequence[tuple[int, Relation]]],
    ) -> "StatsIndex":
        """:meth:`build` from pre-computed relation lists (one
        ``(pattern index, relation)`` list per statement, in match
        order — the relation half of a fused scan).  Counter values and
        insertion order, and therefore serialized bytes, are identical
        to re-scanning each statement.

        Counts aggregate per (file, repo, pattern index) first — cheap
        keys — and the expensive ``pattern.key()``-keyed counters are
        bumped once per aggregate instead of once per relation.  Each
        table keeps its own first-bump order, which is the order a
        per-statement build inserts every file, repo and dataset key.
        """
        index = cls()
        patterns = matcher.patterns
        # first-bump-ordered {(file path, repo, pattern index) -> count}
        # per table: matches, satisfactions, violations
        aggs: tuple[dict, dict, dict] = ({}, {}, {})
        agg_m, agg_s, agg_v = aggs
        for entry, rels in zip(statements, relation_rows):
            stmt = entry[0]
            index.total_statements += 1
            struct = stmt.structural_key()
            file_path = stmt.file_path
            repo = stmt.repo
            index.statement_counts["file"][(file_path, struct)] += 1
            index.statement_counts["repo"][(repo, struct)] += 1
            for pat_idx, relation in rels:
                scoped = (file_path, repo, pat_idx)
                agg_m[scoped] = agg_m.get(scoped, 0) + 1
                agg = agg_s if relation is Relation.SATISFIED else agg_v
                agg[scoped] = agg.get(scoped, 0) + 1
        keys: dict[int, tuple] = {}
        for agg, table in zip(
            aggs, (index.matches, index.satisfactions, index.violations)
        ):
            file_counter = table["file"]
            repo_counter = table["repo"]
            dataset_counter = table["dataset"]
            for (file_path, repo, pat_idx), count in agg.items():
                key = keys.get(pat_idx)
                if key is None:
                    key = keys[pat_idx] = patterns[pat_idx].key()
                file_counter[(file_path, key)] += count
                repo_counter[(repo, key)] += count
                dataset_counter[key] += count
        return index

    @classmethod
    def merge(cls, indices: Iterable["StatsIndex"]) -> "StatsIndex":
        """Concatenate shard-local indexes into one corpus-wide index.

        ``Counter.update`` preserves first-seen insertion order, so
        merging contiguous shard indexes in shard order reproduces the
        exact counter ordering of a single :meth:`build` pass over the
        same statements — serialized output stays byte-identical.
        """
        merged = cls()
        for index in indices:
            for name in ("matches", "satisfactions", "violations"):
                target = getattr(merged, name)
                for level, counter in getattr(index, name).items():
                    target[level].update(counter)
            for level, counter in index.statement_counts.items():
                merged.statement_counts[level].update(counter)
            merged.total_statements += index.total_statements
        return merged

    # ------------------------------------------------------------------
    # Queries used by the feature extractor
    # ------------------------------------------------------------------

    def identical_statements(self, stmt: StatementAst, level: str) -> int:
        struct = stmt.structural_key()
        scope = stmt.file_path if level == "file" else stmt.repo
        return self.statement_counts[level][(scope, struct)]

    def match_count(self, pattern: NamePattern, stmt: StatementAst, level: str) -> int:
        return self._lookup(self.matches, pattern, stmt, level)

    def satisfaction_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        return self._lookup(self.satisfactions, pattern, stmt, level)

    def violation_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        return self._lookup(self.violations, pattern, stmt, level)

    def satisfaction_rate(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> float:
        matched = self.match_count(pattern, stmt, level)
        if matched == 0:
            return 0.0
        return self.satisfaction_count(pattern, stmt, level) / matched

    def _lookup(
        self,
        table: dict[str, Counter],
        pattern: NamePattern,
        stmt: StatementAst,
        level: str,
    ) -> int:
        key = pattern.key()
        if level == "dataset":
            return table["dataset"][key]
        scope = stmt.file_path if level == "file" else stmt.repo
        return table[level][(scope, key)]


class FileStatsView(StatsIndex):
    """Single-file statistics backed by pattern-*index* aggregates.

    The detect path only ever *queries* a file's local index — one
    lookup per surviving violation, via the feature extractor — so
    materializing :meth:`NamePattern.key`-keyed counters for every
    matched pattern of every file is wasted work.  This view keeps the
    raw per-table ``(pattern indices, counts)`` arrays from
    :meth:`~repro.mining.automaton.MatchAutomaton.scan_batch_stats`
    and converts to key-keyed counts lazily, on the first query — files
    whose violations are all deduplicated or quarantined never pay the
    key hashing at all.  Query answers are identical to a
    :meth:`StatsIndex.build` over the same statements: every scope in a
    one-file index collapses to the same per-pattern count, and foreign
    scopes read as zero.
    """

    def __init__(
        self,
        matcher: PatternMatcher,
        statements: Iterable[tuple],
        aggregates: tuple,
    ) -> None:
        super().__init__()
        self._patterns = matcher.patterns
        self._aggregates = aggregates
        self._by_key: dict | None = None
        file_path = None
        repo = None
        for entry in statements:
            stmt = entry[0]
            self.total_statements += 1
            struct = stmt.structural_key()
            file_path = stmt.file_path
            repo = stmt.repo
            self.statement_counts["file"][(file_path, struct)] += 1
            self.statement_counts["repo"][(repo, struct)] += 1
        self._file_path = file_path
        self._repo = repo

    def _counts(self) -> dict:
        by_key = self._by_key
        if by_key is None:
            (m_p, m_c), (s_p, s_c), (v_p, v_c) = self._aggregates
            sat = dict(zip(s_p.tolist(), s_c.tolist()))
            vio = dict(zip(v_p.tolist(), v_c.tolist()))
            patterns = self._patterns
            by_key = {}
            for idx, matched in zip(m_p.tolist(), m_c.tolist()):
                by_key[patterns[idx].key()] = (
                    matched,
                    sat.get(idx, 0),
                    vio.get(idx, 0),
                )
            self._by_key = by_key
        return by_key

    def _triple(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> tuple[int, int, int] | None:
        if level == "file" and stmt.file_path != self._file_path:
            return None
        if level == "repo" and stmt.repo != self._repo:
            return None
        return self._counts().get(pattern.key())

    def match_count(self, pattern: NamePattern, stmt: StatementAst, level: str) -> int:
        triple = self._triple(pattern, stmt, level)
        return triple[0] if triple else 0

    def satisfaction_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        triple = self._triple(pattern, stmt, level)
        return triple[1] if triple else 0

    def violation_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        triple = self._triple(pattern, stmt, level)
        return triple[2] if triple else 0
