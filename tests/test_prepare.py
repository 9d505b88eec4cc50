"""Tests for corpus preparation (including the parallel path)."""

import os
import subprocess
import sys

import pytest

from repro.core.prepare import (
    PrepareError,
    prepare_corpus,
    prepare_file,
    prepare_file_checked,
)
from repro.core.transform import TransformConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.model import Corpus, Repository, SourceFile
from repro.resilience.quarantine import Quarantine
from repro.service.engine import AnalysisEngine, AnalysisRequest

#: One-line inputs deeper than the recursive parse and tree walks allow.
DEEP_ATTRIBUTES = "x = a" + ".b" * 2000 + "\n"
LONG_SUM = "x = " + " + ".join(["a"] * 3000) + "\n"

#: Two classes defining one method name, and a call the facts pass must
#: resolve to one of them.
TWO_CLASSES = """\
class MessageValidator:
    def assertTrue(self, expected):
        return expected

class VectorValidator:
    def assertTrue(self, expected):
        return [expected]

def check(validator):
    validator.assertTrue(1)
"""


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_python_corpus(GeneratorConfig(num_repos=3, seed=31))


class TestPrepareFile:
    def test_prepares_statements_with_paths(self):
        prepared = prepare_file(
            SourceFile(path="a.py", source="x = some_value\ny = x\n"), repo="r"
        )
        assert prepared is not None
        assert prepared.path == "a.py" and prepared.repo == "r"
        for ps in prepared.statements:
            assert ps.paths

    def test_unparsable_returns_none(self):
        assert prepare_file(SourceFile(path="b.py", source="def broken(:")) is None

    def test_analysis_toggle(self):
        source = SourceFile(
            path="c.py",
            source=(
                "class T(TestCase):\n"
                "    def m(self):\n"
                "        self.run_it()\n"
            ),
        )
        with_a = prepare_file(source, use_analysis=True)
        without_a = prepare_file(source, use_analysis=False)
        has_origin = lambda pf: any(
            n.kind == "Origin" for ps in pf.statements for n in ps.stmt.root.walk()
        )
        assert has_origin(with_a)
        assert not has_origin(without_a)

    def test_max_paths_cap(self):
        source = SourceFile(
            path="d.py", source="f(a, b, c, d, e, g, h, i, j, k, l, m)\n"
        )
        prepared = prepare_file(source, max_paths=4)
        assert all(len(ps.paths) <= 4 for ps in prepared.statements)

    def test_java_language(self):
        source = SourceFile(
            path="E.java",
            source="class E { void m() { int x = 1; } }",
            language="java",
        )
        prepared = prepare_file(source)
        assert prepared is not None and prepared.statements


class TestPrepareCorpus:
    def test_sequential(self, tiny_corpus):
        prepared = prepare_corpus(tiny_corpus)
        assert len(prepared) == tiny_corpus.file_count()

    def test_parallel_matches_sequential(self, tiny_corpus):
        sequential = prepare_corpus(tiny_corpus, workers=1)
        parallel = prepare_corpus(tiny_corpus, workers=2)
        assert [pf.path for pf in parallel] == [pf.path for pf in sequential]
        for a, b in zip(sequential, parallel):
            assert len(a.statements) == len(b.statements)
            for ps_a, ps_b in zip(a.statements, b.statements):
                assert ps_a.paths == ps_b.paths

    def test_transform_config_defaults_to_analysis_flag(self, tiny_corpus):
        prepared = prepare_corpus(tiny_corpus, use_analysis=False)
        assert all(
            n.kind != "Origin"
            for pf in prepared[:3]
            for ps in pf.statements
            for n in ps.stmt.root.walk()
        )

    def test_explicit_transform_config(self, tiny_corpus):
        prepared = prepare_corpus(
            tiny_corpus, transform_config=TransformConfig(max_subtokens=1)
        )
        # every identifier kept whole: no NumST(k>1) wrappers
        for pf in prepared[:3]:
            for ps in pf.statements:
                for n in ps.stmt.root.walk():
                    if n.kind == "NumST":
                        assert n.value == "NumST(1)"


class TestResourceLimits:
    """Input too deep for the recursive walkers is quarantined with a
    ``limits`` stage instead of escaping as a raw ``RecursionError``."""

    @pytest.mark.parametrize(
        "source", [DEEP_ATTRIBUTES, LONG_SUM], ids=["attributes", "sum"]
    )
    def test_prepare_file_checked_reports_limits(self, source):
        with pytest.raises(PrepareError) as info:
            prepare_file_checked(SourceFile(path="deep.py", source=source))
        assert info.value.stage == "limits"
        assert isinstance(info.value.cause, RecursionError)

    def test_detect_many_keeps_good_files(self, fitted_namer, small_corpus):
        repo = small_corpus.repositories[0]
        bad = SourceFile(path="deep.py", source=DEEP_ATTRIBUTES)
        with_bad = Corpus(
            repositories=[Repository(name=repo.name, files=[*repo.files, bad])]
        )
        quarantine = Quarantine()
        prepared = prepare_corpus(with_bad, quarantine=quarantine)
        assert [pf.path for pf in prepared] == [f.path for f in repo.files]
        reports = fitted_namer.detect_many(prepared, quarantine=quarantine)
        alone = fitted_namer.detect_many(
            prepare_corpus(Corpus(repositories=[repo]))
        )
        assert [[r.to_json() for r in g] for g in reports] == [
            [r.to_json() for r in g] for g in alone
        ]
        assert any(alone), "the good files must report something"
        assert [(r.path, r.stage) for r in quarantine.records] == [
            ("deep.py", "limits")
        ]

    def test_analyze_many_keeps_good_files(self, fitted_namer, small_corpus):
        files = list(small_corpus.files())
        # Lead with a file the pipeline reports on, so the good files'
        # reports are not vacuously equal.
        files.sort(
            key=lambda item: not fitted_namer.detect(
                prepare_file(item[1], repo=item[0].name)
            )
        )
        good = [
            AnalysisRequest(source=s.source, path=s.path, repo=repo.name)
            for repo, s in files[:4]
        ]
        bad = AnalysisRequest(source=LONG_SUM, path="deep.py")
        engine = AnalysisEngine(namer=fitted_namer, workers=1)
        try:
            results = engine.analyze_many(good[:2] + [bad] + good[2:])
        finally:
            engine.shutdown(drain=False, timeout=5)
        fresh = AnalysisEngine(namer=fitted_namer, workers=1)
        try:
            alone = fresh.analyze_many(good)
        finally:
            fresh.shutdown(drain=False, timeout=5)
        assert results[2].error is not None
        assert results[2].error.startswith("limits failed")
        assert results[2].reports == []
        assert [r.reports for r in results[:2] + results[3:]] == [
            r.reports for r in alone
        ]
        assert all(r.error is None for r in alone)
        assert alone[0].reports, "the good files must report something"


def test_prepare_is_independent_of_the_hash_seed():
    """The call resolves to the first-defined method whatever the string
    hash seed, so prepared output is identical across processes."""
    script = (
        "import sys\n"
        "from repro.core.prepare import prepare_file_checked\n"
        "from repro.corpus.model import SourceFile\n"
        "pf = prepare_file_checked(SourceFile('m.py', sys.stdin.read()))\n"
        "print([(s.stmt.structural_key(), s.paths) for s in pf.statements])\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            input=TWO_CLASSES,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in (0, 1, 2)
    }
    assert len(outputs) == 1
