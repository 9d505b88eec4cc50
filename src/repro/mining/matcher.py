"""Matching a fixed pattern set against statements.

Matching every mined pattern against every statement is quadratic; with
tens of thousands of patterns it dominates everything else.
:class:`PatternMatcher` compiles the whole pattern set into one
:class:`~repro.mining.automaton.MatchAutomaton` (shared trie +
integer-domain relation checks over interned path IDs) and routes every
scan — the miner's prune counters, the statistics build, and serve-time
detection — through it.

Each pattern is anchored at its *rarest* deduction prefix — rarest by
corpus occurrence when the caller supplies a prefix-frequency table
(``prefix_counts``), by occurrence across the pattern set otherwise —
so a statement pulls in only the patterns whose least likely prefix it
actually contains.  Anchor choice may change how many candidates a scan
considers but never its *output*: matches are enumerated by the
statement-path position of the first occurrence of each pattern's
lexicographically smallest deduction prefix, then by pattern index.
That order is part of the downstream contract (statistics counters
serialize in first-seen order), and ``tests/oracle.py`` states it
directly from Definitions 3.6-3.9 for the differential suites.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import NamePattern, Relation, Violation
from repro.lang.astir import StatementAst
from repro.mining.automaton import MatchAutomaton
from repro.mining.interner import PathInterner
from repro.parallel.merge import merge_counters

__all__ = ["PatternMatcher", "prefix_frequencies_ids"]


def prefix_frequencies_ids(
    id_lists: Sequence[np.ndarray], interner: PathInterner
) -> Counter[tuple[PathStep, ...]]:
    """Corpus-frequency table of path prefixes — how many statement
    paths carry each prefix, keyed in first-seen order — from interned
    ID arrays of extracted (all-concrete) paths: one ``bincount`` over
    the symbolic-ID projection (two paths share a prefix iff their
    symbolic variants share an ID, and symbolic IDs follow the
    first occurrence of their concrete paths).  The selectivity signal
    for anchor choice."""
    counts: Counter[tuple[PathStep, ...]] = Counter()
    if not id_lists:
        return counts
    sym = np.asarray(interner.ensure_symbolic(), dtype=np.int64)
    totals = np.bincount(sym[np.concatenate(id_lists)], minlength=len(sym))
    resolve = interner.resolve
    for pid in np.flatnonzero(totals):
        counts[resolve(int(pid)).prefix] = int(totals[pid])
    return counts


class PatternMatcher:
    """A compiled, selectivity-anchored matcher over a fixed pattern set.

    ``prefix_counts`` is an optional corpus prefix-frequency table (see
    :func:`prefix_frequencies_ids`); with one, anchors are chosen by
    real corpus rarity.  Without one, the matcher falls back to prefix
    frequency across its own pattern set (e.g. when loading saved
    artifacts, where no corpus is in sight).  ``interner`` is the corpus
    :class:`PathInterner` when the caller holds one (mining); otherwise
    a fresh table memoizes the paths real traffic presents, up to a cap.
    """

    def __init__(
        self,
        patterns: Sequence[NamePattern],
        prefix_counts: Mapping[tuple[PathStep, ...], int] | None = None,
        interner: PathInterner | None = None,
    ) -> None:
        self.patterns = list(patterns)
        automaton = MatchAutomaton(self.patterns)
        automaton.attach_interner(
            interner if interner is not None else PathInterner()
        )
        #: deduction-prefix occurrences across this matcher's own
        #: patterns, read off the automaton's trie — the fallback rarity
        #: table
        self.prefix_counts = automaton.deduction_prefix_counts()
        self._corpus_counts = (
            Counter(prefix_counts) if prefix_counts is not None else None
        )
        automaton.finalize(
            self._corpus_counts
            if self._corpus_counts is not None
            else self.prefix_counts
        )
        self._automaton = automaton

    def attach_interner(
        self, interner: PathInterner, cap: int | None = None
    ) -> None:
        """Attach (or replace) the automaton's path interner."""
        self._automaton.attach_interner(interner, cap)

    def prepare_ids(self, paths: Sequence[NamePath]) -> list[int]:
        """Pre-resolve a statement's paths to interned IDs (``-1`` for
        paths the capped interner refuses); pass the result back as
        ``ids`` to scan without resolving again."""
        return self._automaton.ids_of(paths)

    def relations(
        self,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[tuple[int, Relation]]:
        """``(pattern index, relation)`` for every pattern the statement
        matches, in the pinned order."""
        return self._automaton.relations(paths, ids)

    def check_all(
        self,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> Iterable[tuple[NamePattern, Relation]]:
        """(pattern, relation) for every pattern the statement matches."""
        patterns = self.patterns
        return [(patterns[idx], rel) for idx, rel in self.relations(paths, ids)]

    def violations(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[Violation]:
        """All pattern violations triggered by one statement."""
        return self._automaton.violations(stmt, paths, ids)

    def scan_entries(
        self, entries: Sequence[tuple]
    ) -> tuple[list[list[Violation]], list[list[tuple[int, Relation]]]]:
        """Fused scan over ``(stmt, paths, ids)`` triples: one pass
        yields both the per-statement violations and the
        ``(pattern index, relation)`` lists a statistics build needs.

        Fully-interned statements (every ID non-negative) go through
        the vectorized batch walk in one call; statements holding paths
        the capped serve-time interner refused take the scalar scan,
        which walks those paths through the trie inline.
        """
        automaton = self._automaton
        viol_rows: list[list[Violation]] = [[] for _ in entries]
        rel_rows: list[list[tuple[int, Relation]]] = [[] for _ in entries]
        batch_pos: list[int] = []
        batch_ids: list[Sequence[int]] = []
        for i, (stmt, paths, ids) in enumerate(entries):
            if not ids or min(ids) >= 0:
                batch_pos.append(i)
                batch_ids.append(ids)
            else:
                viol_rows[i], rel_rows[i] = automaton.scan_one(stmt, paths, ids)
        if batch_pos:
            stmts = [entries[i][0] for i in batch_pos]
            bviol, brel = automaton.scan_batch(stmts, batch_ids)
            for k, i in enumerate(batch_pos):
                viol_rows[i] = bviol[k]
                rel_rows[i] = brel[k]
        return viol_rows, rel_rows

    def scan_entries_stats(
        self, entries: Sequence[tuple]
    ) -> tuple[list[list[Violation]], tuple] | None:
        """:meth:`scan_entries` with the relation half pre-aggregated
        into per-table ``(pattern indices, counts)`` arrays (matches /
        satisfactions / violations).  Only valid when *every* entry is
        fully interned — mixed batches need the scalar scan's relation
        stream folded in — so it returns ``None`` then and the caller
        falls back to :meth:`scan_entries`.
        """
        id_rows: list[Sequence[int]] = []
        for _, _, ids in entries:
            if ids and min(ids) < 0:
                return None
            id_rows.append(ids)
        stmts = [entry[0] for entry in entries]
        return self._automaton.scan_batch_stats(stmts, id_rows)

    def relations_batch(
        self, id_rows: Sequence[Sequence[int]]
    ) -> list[list[tuple[int, Relation]]]:
        """Vectorized :meth:`relations` over many fully-interned
        statements (the miner's prune counters)."""
        return self._automaton.relations_batch(id_rows)

    def __len__(self) -> int:
        return len(self.patterns)

    @staticmethod
    def merge(matchers: Iterable["PatternMatcher"]) -> "PatternMatcher":
        """Combine matchers over disjoint pattern sets.

        The result is a flat build over the concatenated pattern list.
        Corpus tables, when present, are summed in part order; rarity
        *order* is scale-invariant, so parts built over one shared
        corpus table merge to the anchor choices a flat build over that
        table makes.  Parts sharing one interner keep it; otherwise the
        merged matcher starts a fresh serve-time table.
        """
        parts = list(matchers)
        combined = [p for m in parts for p in m.patterns]
        tables = [m._corpus_counts for m in parts if m._corpus_counts is not None]
        interners = {id(m._automaton._interner) for m in parts}
        return PatternMatcher(
            combined,
            prefix_counts=merge_counters(tables) if tables else None,
            interner=(
                parts[0]._automaton._interner if len(interners) == 1 else None
            ),
        )
