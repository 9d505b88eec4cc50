"""One ``repro mine`` run in a fresh process, timed around the pipeline.

Usage (from the benchmark, never by hand)::

    python perfbench/mine_child.py SPEC_JSON

``SPEC_JSON`` names the output artifact, the content-cache directory
(``null`` for a cache-less run), the file edits to apply to the corpus,
and an optional span file (tracing on); ``"probe": true`` stops right
before the pipeline call, to time start-up alone.  The run mirrors ``repro mine
--repos 60 --seed 7 --min-support 20 --min-frequency 8 --workers 1
--freeze``.  The last stdout line is a JSON object with the entry time
(``time.monotonic``, comparable with the parent's spawn time), the
pipeline's wall time, the pattern count and the peak RSS.
"""

from __future__ import annotations

import json
import sys
import time

from repro.core.namer import NamerConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.miner import MiningConfig
from repro.resilience.pipeline import run_mine_pipeline

CORPUS = GeneratorConfig(num_repos=60, issue_rate=0.12, seed=7)
MINING = MiningConfig(min_pattern_support=20, min_path_frequency=8)


def build_corpus(edits: list[list[str]]):
    """The mining corpus with ``edits`` (``[repo, path, appended]``)
    applied: each named file gets ``appended`` added at its end."""
    corpus = generate_python_corpus(CORPUS)
    wanted = {(repo, path): text for repo, path, text in edits}
    for repo in corpus.repositories:
        for source in repo.files:
            text = wanted.pop((repo.name, source.path), None)
            if text is not None:
                source.source += text
    if wanted:
        raise ValueError(f"edited files not in the corpus: {sorted(wanted)}")
    return corpus


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec: dict) -> dict:
    tracer = None
    if spec.get("spans"):
        from layers import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)

    def corpus_factory():
        if tracer is None:
            return build_corpus(spec["edits"])
        with tracer.span("corpus.generate"):
            return build_corpus(spec["edits"])

    config = NamerConfig(mining=MINING, workers=1, cache_dir=spec["cache"])
    entry = time.monotonic()
    if spec.get("probe"):
        # Start-up probe: everything up to the pipeline call, no mining.
        return {"entry": entry}
    started = time.perf_counter()
    if tracer is None:
        result = run_mine_pipeline(
            corpus_factory=corpus_factory, namer_config=config,
            out=spec["out"], freeze=True,
        )
    else:
        with tracer.span("mine.root"):
            result = run_mine_pipeline(
                corpus_factory=corpus_factory, namer_config=config,
                out=spec["out"], freeze=True,
            )
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.count("mining.patterns", result.summary.num_patterns)
        tracer.dump(spec["spans"])
    return {
        "entry": entry,
        "wall_s": wall,
        "patterns": result.summary.num_patterns,
        "peak_rss_mb": peak_rss_mb(),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
