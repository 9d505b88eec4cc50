"""The repository benchmark: `repro mine` and `/analyze`, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine_cold --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload analyze_hot --trace 1   # per-layer table
    python3 perfbench/run.py --smoke --seeds 7 8                # every workload

One run prints a readable report and, as its last stdout line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures untraced, then again with every layer wrapped, and
reports the per-layer metrics plus the tracing overhead.  See
``perfbench/README.md`` for the workloads and what each metric means.

The reference artifacts (one cold mine of the corpus, its frozen blob
and the content cache it leaves behind) are built once per source tree
under ``.bench_build/perfbench/`` and reused by later runs.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: The workloads BENCHMARK.json declares.
WORKLOADS = ("mine_cold", "analyze_cold", "analyze_hot")
#: Runnable by name but not declared: with a fourth declared workload a
#: benchmark set has time for one mine per mine run, too few to be
#: steady on a shared VM (see README).
EXTRA_WORKLOADS = ("mine_edit",)
DEFAULT_SEED = 7
#: Client connections for the analyze workloads (the 2-core reference box).
CLIENTS = 2
HOT_FILES = 32
#: The analyze workloads' `wall_s`: seconds to complete this many files.
WINDOW = 32
#: Set-ups per run; `setup_s` is their median.
SETUP_REPEATS = 3
#: The analyze workloads split their load into this many equal segments
#: and spawn one start-up probe server between two segments, so the
#: `startup_s` samples are spread over the run instead of bunched at its
#: start (a shared VM's speed drifts during a run).
SEGMENTS = 4
#: The mine workloads run at least this many mines, so `wall_s` is
#: never one sample.
MIN_MINES = 2
#: Second generator seed offset: analyzed files are never mined ones.
ANALYZE_CORPUS_SEED = 1000
EDITED_FILES = 2
CHILD_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s",
    "startup_s": "s",
    "wall_s": "s",
    "files_per_s": "files/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
CACHE_LEVELS = (
    "prepare", "pairs", "frequency", "growth", "mine", "prune", "stats", "detect",
)
#: Span labels reported as `<label>_s` self time.
TIMED_LAYERS = (
    "lang.parse", "analysis.facts", "analysis.pointsto", "analysis.origins",
    "core.transform", "core.namepath", "core.prepare",
    "mining.pairs", "mining.intern", "mining.frequency", "mining.growth",
    "mining.generate", "mining.prune", "core.stats", "core.violations",
    "ml.train", "ml.classify",
    "core.persistence", "mining.freeze", "mining.frozen_load",
    *(f"cache.{level}.{op}" for level in CACHE_LEVELS for op in ("get", "put")),
    "core.detect", "mining.ids", "mining.automaton", "core.features",
    "service.engine", "service.queue_wait", "service.result_cache",
    "service.http", "corpus.generate", "mining.compile",
)
COUNTED = {
    "core.statements": "count",
    "core.paths": "count",
    "mining.patterns": "count",
    "core.violations": "count",
    "core.reports": "count",
    "cache.bytes_written": "bytes",
}
PER_LAYER = {
    **{f"{label}_s": "s" for label in TIMED_LAYERS},
    **COUNTED,
    "analysis.pointsto_fallback_ratio": "ratio",
    **{f"cache.{level}.hit_ratio": "ratio" for level in CACHE_LEVELS},
    "service.result_cache_hit_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
    "failed_ratio": "ratio",
    **{
        f"overhead.{name}": unit
        for name, unit in END_TO_END.items()
        if name != "setup_s"
    },
}


# ----------------------------------------------------------------------
# Processes and files
# ----------------------------------------------------------------------


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``PYTHONHASHSEED`` is pinned: mined artifacts depend on string-hash
    order (see README), and the byte-identity gates compare runs."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_mine_child(spec: dict) -> dict:
    """Run one mine in a fresh process; adds ``startup_s`` (spawn to
    pipeline entry) and ``latency_s`` (spawn to exit)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "mine_child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    exited = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"mine child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["startup_s"] = out["entry"] - spawned
    out["latency_s"] = exited - spawned
    return out


def source_key() -> str:
    """Hash of the program and benchmark sources: the build's cache key."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(sha256_file(path).encode())
    return digest.hexdigest()[:16]


def reference() -> Path:
    """The reference build: artifact + frozen blob + warm content cache
    from one cold mine, built once per source tree."""
    ref = BUILD / f"ref-{source_key()}"
    if (ref / "done").exists():
        return ref
    if BUILD.exists():
        for stale in BUILD.glob("ref-*"):
            shutil.rmtree(stale, ignore_errors=True)
    tmp = BUILD / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    run_mine_child({
        "out": str(tmp / "namer.json"), "cache": str(tmp / "cache"), "edits": [],
    })
    (tmp / "done").write_text("ok\n")
    os.replace(tmp, ref)
    return ref


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------


def frozen_matches(frozen: Path, document_checksum: str) -> bool:
    """The frozen blob loads and decodes to the document whose checksum
    is given (its byte layout is not deterministic; see README)."""
    from repro.core.persistence import namer_to_document
    from repro.mining.frozen import FrozenError, load_frozen_namer
    from repro.resilience.checkpoint import document_checksum as checksum_of

    try:
        namer = load_frozen_namer(frozen)
    except FrozenError:
        return False
    return checksum_of(namer_to_document(namer)) == document_checksum


def artifact_checksum(path: Path) -> str | None:
    """The artifact's stamped checksum, or ``None`` when the stamp does
    not match the document it stamps."""
    from repro.resilience.checkpoint import document_checksum

    with open(path) as handle:
        document = json.load(handle)
    stamp = document.get("checksum")
    return stamp if document_checksum(document) == stamp else None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail_ms(latencies_s: list[float], notes: list[str]) -> float:
    from spans import tail_percentile

    tail = tail_percentile(latencies_s)
    notes.append(
        f"latency_tail_ms is p{tail['percentile']:.2f}: {tail['beyond']} of "
        f"{tail['n']} samples beyond it"
    )
    return tail["value"] * 1000.0


# ----------------------------------------------------------------------
# Mine workloads
# ----------------------------------------------------------------------


def edit_text(tag: str) -> str:
    """A seeded edit: a small new function appended to a file."""
    return (
        f"\n\ndef edited_{tag}(values, limit):\n"
        "    total = 0\n"
        "    for value in values:\n"
        "        if value > limit:\n"
        "            total += value\n"
        "    return total\n"
    )


def run_mine(name: str, seed: int, seconds: float, trace: bool, work: Path, ref: Path) -> dict:
    from mine_child import CORPUS
    from repro.corpus.generator import generate_python_corpus

    warm = name == "mine_edit"
    ref_json, ref_frozen = ref / "namer.json", ref / "namer.json.frozen"
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        corpus = generate_python_corpus(CORPUS)
        ref_digest = sha256_file(ref_json)
        ref_checksum = artifact_checksum(ref_json)
        ref_frozen_digest = sha256_file(ref_frozen)
        setups.append(time.perf_counter() - started)
    files = [(repo.name, f.path) for repo, f in corpus.files()]
    rng = random.Random(seed)
    probe = {"probe": True, "cache": None, "edits": []}

    def spec(i: int, edits: list, cache: bool = True, spans: str | None = None) -> dict:
        run_dir = work / f"run-{i}"
        run_dir.mkdir()
        out = run_dir / "namer.json"
        cache_dir = None
        if cache:
            cache_dir = run_dir / "namer.json.cache"
            if warm:
                shutil.copytree(ref / "cache", cache_dir)
        return {"out": str(out), "cache": str(cache_dir) if cache else None,
                "edits": edits, "spans": spans}

    def new_edits(i: int) -> list:
        if not warm:
            return []
        picks = rng.sample(files, EDITED_FILES)
        return [[repo, path, edit_text(f"s{seed}_r{i}_{k}")] for k, (repo, path) in enumerate(picks)]

    runs, checks, notes = [], [], []
    first_edits = None
    # A start-up probe before the first mine and after each one spreads
    # the start-up samples over the run.
    probes = [run_mine_child(probe)]
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_MINES or time.perf_counter() < deadline:
        i = len(runs)
        edits = new_edits(i)
        first_edits = first_edits if first_edits is not None else edits
        s = spec(i, edits)
        result = run_mine_child(s)
        result["spec"] = s
        runs.append(result)
        probes.append(run_mine_child(probe))

    frozen_bytes_equal = 0
    for result in runs:
        out = Path(result["spec"]["out"])
        frozen = out.with_name(out.name + ".frozen")
        if warm:
            checksum = artifact_checksum(out)
            ok = checksum is not None and frozen_matches(frozen, checksum)
        else:
            ok = sha256_file(out) == ref_digest and frozen_matches(frozen, ref_checksum)
            frozen_bytes_equal += sha256_file(frozen) == ref_frozen_digest
        checks.append(ok)
    if warm:
        # Once per invocation: the warm-cache artifact must equal a
        # cache-less mine of the same edited corpus, byte for byte.
        plain = spec(len(runs), first_edits, cache=False)
        plain_result = run_mine_child(plain)
        runs_extra = [plain_result]
        same = sha256_file(Path(plain["out"])) == sha256_file(Path(runs[0]["spec"]["out"]))
        checks.append(same)
        notes.append(f"warm-cache artifact identical to cache-less mine: {same}")
    else:
        runs_extra = []
        notes.append(
            f"frozen blobs byte-identical to the reference: {frozen_bytes_equal} of "
            f"{len(runs)} (informational; decoded content is gated)"
        )

    walls = [r["wall_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "startup_s": statistics.median(r["startup_s"] for r in probes + runs + runs_extra),
        "wall_s": statistics.median(walls),
        "files_per_s": len(files) / statistics.median(walls),
        "latency_p50_ms": statistics.median(r["latency_s"] for r in runs) * 1000.0,
        "latency_tail_ms": tail_ms([r["latency_s"] for r in runs], notes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    outcome = {
        "attempted": len(checks),
        "failed": checks.count(False),
        "metrics": metrics,
        "notes": notes,
    }
    if trace:
        i = len(runs) + len(runs_extra)
        spans_path = work / "spans.json"
        traced_spec = spec(i, first_edits, spans=str(spans_path))
        traced = run_mine_child(traced_spec)
        out = Path(traced_spec["out"])
        if warm:
            ok = sha256_file(out) == sha256_file(Path(runs[0]["spec"]["out"]))
        else:
            ok = sha256_file(out) == ref_digest
        outcome["attempted"] += 1
        outcome["failed"] += not ok
        traced_metrics = {
            "startup_s": traced["startup_s"],
            "wall_s": traced["wall_s"],
            "files_per_s": len(files) / traced["wall_s"],
            "latency_p50_ms": traced["latency_s"] * 1000.0,
            "latency_tail_ms": traced["latency_s"] * 1000.0,
            "peak_rss_mb": traced["peak_rss_mb"],
        }
        outcome["per_layer"] = mine_layers(spans_path, traced["wall_s"])
        outcome["overhead"] = {k: v - metrics[k] for k, v in traced_metrics.items()}
    return outcome


def mine_layers(spans_path: Path, wall: float) -> dict:
    from spans import layer_counts, layer_self_times

    with open(spans_path) as handle:
        data = json.load(handle)
    selfs = layer_self_times(data["spans"], data["durations"])
    return {"selfs": selfs, "counts": layer_counts(data["counts"]), "wall": wall, "per": 1}


# ----------------------------------------------------------------------
# Analyze workloads
# ----------------------------------------------------------------------


class Server:
    """One `repro serve` replica process (or the traced launcher)."""

    def __init__(self, artifacts: Path, work: Path, spans_out: Path | None = None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--artifacts", str(artifacts),
                   "--port", str(self.port)]
        else:
            cmd = [sys.executable, str(BENCH / "serve_child.py"), str(artifacts),
                   str(self.port), str(spans_out)]
        self.log = open(work / f"serve-{self.port}.log", "wb")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.monotonic() - spawned

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/health?ready=1")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server not ready within 60 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Requests:
    """The seeded request stream: ``payload(i)`` is the i-th request."""

    def __init__(self, name: str, seed: int, corpus) -> None:
        self.rng = random.Random(seed)
        pool = [(repo.name, f) for repo, f in corpus.files()]
        self.hot = name == "analyze_hot"
        self.files = self.rng.sample(pool, HOT_FILES) if self.hot else pool
        self.order: list[int] = []
        self.lock = threading.Lock()

    def payload(self, i: int) -> dict:
        with self.lock:
            while len(self.order) <= i:
                self.order.extend(self.rng.sample(range(len(self.files)), len(self.files)))
            index = self.order[i]
        repo, source = self.files[index]
        # Cold: a distinct path per request, so every cache misses.
        path = f"{repo}/{source.path}" if self.hot else f"r{i}/{repo}/{source.path}"
        return {"source": source.source, "path": path, "language": "python"}


def drive(port: int, requests: Requests, start: int, seconds: float) -> list[tuple]:
    """Closed loop: CLIENTS keep-alive connections, each sending its next
    request when the previous answer arrives, for ``seconds``.  Returns
    ``(index, sent, done, status, body)`` per request."""
    counter = iter(range(start, 1 << 62))
    lock = threading.Lock()
    results: list[tuple] = []
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        local = []
        try:
            while time.perf_counter() < deadline:
                with lock:
                    i = next(counter)
                body = json.dumps(requests.payload(i)).encode()
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/analyze", body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    data, status = response.read(), response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    data, status = b"", 0
                local.append((i, sent, time.perf_counter(), status, data))
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                results.extend(local)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sorted(results, key=lambda r: r[2])


def check_responses(results: list[tuple], requests: Requests, artifacts: Path) -> int:
    """Failures: non-200 answers and digests that differ from an
    in-process engine's answer to the same payload."""
    from repro.evaluation.loadtest import normalized_digest, reference_digests
    from repro.service.engine import AnalysisEngine

    keys = sorted({i for i, *_ in results}) if not requests.hot else list(range(HOT_FILES))
    payloads = [requests.payload(i) for i in keys]
    engine = AnalysisEngine(artifact_path=str(artifacts))
    try:
        expected = reference_digests(engine, payloads)
    finally:
        engine.shutdown()
    by_path = {p["path"]: d for p, d in zip(payloads, expected)}
    failed = 0
    for i, _, _, status, data in results:
        if status != 200:
            failed += 1
            continue
        body = json.loads(data)
        if normalized_digest(body) != by_path.get(requests.payload(i)["path"]):
            failed += 1
    return failed


def load_metrics(segments: list[tuple[float, list]], notes: list[str]) -> dict:
    """End-to-end metrics over the load segments, each ``(started,
    results)``; the gaps between segments count for nothing.  Throughput
    is the median over 32-file windows, like `wall_s`, so a burst of host
    contention in part of the run moves it less than a plain average."""
    results = [r for _, segment in segments for r in segment]
    latencies = [done - sent for _, sent, done, _, _ in results]
    ok = sum(r[3] == 200 for r in results)
    windows, busy = [], 0.0
    for started, segment in segments:
        ends = [done for _, _, done, status, _ in segment if status == 200]
        marks = [started] + ends[WINDOW - 1::WINDOW]
        windows += [b - a for a, b in zip(marks, marks[1:])]
        busy += segment[-1][2] - started
    if windows:
        wall = statistics.median(windows)
    else:  # runs too short for one window (smoke runs)
        wall = busy * WINDOW / ok if ok else busy
    return {
        "wall_s": wall,
        "files_per_s": WINDOW / wall if ok else 0.0,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail_ms(latencies, notes),
    }


def load(server: Server, requests: Requests, seconds: float,
         between=None) -> list[tuple[float, list]]:
    """Drive ``server`` for ``seconds`` in SEGMENTS equal segments,
    calling ``between()`` in each gap; returns ``(started, results)``
    per segment."""
    start = 0
    if requests.hot:
        # One pass fills the result cache; measured requests hit it.
        start = HOT_FILES
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for i in range(HOT_FILES):
                conn.request("POST", "/analyze", json.dumps(requests.payload(i)).encode())
                conn.getresponse().read()
        finally:
            conn.close()
    segments = []
    for k in range(SEGMENTS):
        if k and between is not None:
            between()
        started = time.perf_counter()
        results = drive(server.port, requests, start, seconds / SEGMENTS)
        segments.append((started, results))
        start = 1 + max(i for i, *_ in results)
    return segments


def run_analyze(name: str, seed: int, seconds: float, trace: bool, work: Path, ref: Path) -> dict:
    from repro.corpus.generator import GeneratorConfig, generate_python_corpus

    artifact = ref / "namer.json"
    config = GeneratorConfig(num_repos=60, issue_rate=0.12, seed=ANALYZE_CORPUS_SEED + seed)
    setups, startups = [], []

    def probe() -> None:
        server = Server(artifact, work)
        server.stop()
        startups.append(server.startup_s)

    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            corpus = generate_python_corpus(config)
            requests = Requests(name, seed, corpus)
            server = Server(artifact, work)
            setups.append(time.perf_counter() - started)
            startups.append(server.startup_s)
        # The last set-up's server takes the load.
        segments = load(server, requests, seconds, between=probe)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    notes: list[str] = []
    metrics = {
        "setup_s": statistics.median(setups),
        "startup_s": statistics.median(startups),
        **load_metrics(segments, notes),
        "peak_rss_mb": rss,
    }
    notes.append(f"startup_s is the median of {len(startups)} server spawns")
    results = [r for _, segment in segments for r in segment]
    failed = check_responses(results, requests, artifact)
    outcome = {"attempted": len(results), "failed": failed, "metrics": metrics, "notes": notes}
    if trace:
        spans_path = work / "serve-spans.json"
        server = Server(artifact, work, spans_path)
        try:
            segments = load(server, requests, seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        traced = [r for _, segment in segments for r in segment]
        traced_metrics = {
            "startup_s": server.startup_s,
            **load_metrics(segments, []),
            "peak_rss_mb": rss,
        }
        outcome["attempted"] += len(traced)
        outcome["failed"] += check_responses(traced, requests, artifact)
        outcome["overhead"] = {k: v - metrics[k] for k, v in traced_metrics.items()}
        outcome["per_layer"] = analyze_layers(spans_path, traced, segments[0][0])
    return outcome


def analyze_layers(spans_path: Path, results: list[tuple], started: float) -> dict:
    """Per-request layer self times over the measured requests' trees;
    `service.http` is client latency minus `AnalysisEngine.analyze`."""
    from spans import descendants, layer_counts, layer_self_times

    with open(spans_path) as handle:
        data = json.load(handle)
    spans = data["spans"]
    end = results[-1][2]
    roots = [s[0] for s in spans
             if s[1] is None and s[2] == "service.engine" and started <= s[3] <= end]
    within = descendants(spans, roots)
    selfs = layer_self_times(spans, data["durations"], within)
    everywhere = layer_self_times(spans, data["durations"])
    root_ids = set(roots)
    engine_total = sum(s[4] - s[3] for s in spans if s[0] in root_ids)
    latency_total = sum(done - sent for _, sent, done, _, _ in results)
    selfs["service.http"] = max(0.0, latency_total - engine_total)
    startup_only = {"mining.frozen_load": everywhere.get("mining.frozen_load", 0.0)}
    return {"selfs": selfs, "counts": layer_counts(data["counts"], within),
            "wall": latency_total, "per": len(results),
            "startup": startup_only}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def per_layer_metrics(outcome: dict) -> dict[str, float]:
    layers = outcome["per_layer"]
    per = max(1, layers["per"])
    selfs, counts = layers["selfs"], layers["counts"]
    out: dict[str, float] = {}
    for label in TIMED_LAYERS:
        out[f"{label}_s"] = selfs.get(label, 0.0) / per
    for label, seconds in layers.get("startup", {}).items():
        out[f"{label}_s"] = seconds
    for name in COUNTED:
        out[name] = counts.get(name, 0) / (1 if name == "mining.patterns" else per)
    solves = counts.get("analysis.pointsto_solves", 0)
    out["analysis.pointsto_fallback_ratio"] = (
        counts.get("analysis.pointsto_fallbacks", 0) / solves if solves else 0.0
    )
    for level in CACHE_LEVELS:
        gets = counts.get(f"cache.{level}.gets", 0)
        out[f"cache.{level}.hit_ratio"] = counts.get(f"cache.{level}.hits", 0) / gets if gets else 0.0
    gets = counts.get("service.result_cache_gets", 0)
    out["service.result_cache_hit_ratio"] = (
        counts.get("service.result_cache_hits", 0) / gets if gets else 0.0
    )
    attributed = sum(v for k, v in selfs.items() if k in TIMED_LAYERS)
    out["trace.unattributed_s"] = (layers["wall"] - attributed) / per
    out["trace.coverage"] = attributed / layers["wall"] if layers["wall"] else 0.0
    out["failed_ratio"] = outcome["failed"] / outcome["attempted"]
    for name, delta in outcome["overhead"].items():
        out[f"overhead.{name}"] = delta
    return out


def print_layer_table(name: str, outcome: dict, values: dict[str, float]) -> None:
    layers = outcome["per_layer"]
    wall = layers["wall"] / max(1, layers["per"])
    unit = "per mine run" if name.startswith("mine") else "per request"
    print(f"per-layer self time ({unit}; wall {wall:.6f} s):")
    startup = layers.get("startup", {})
    rows = sorted(
        ((label, values[f"{label}_s"]) for label in TIMED_LAYERS if label not in startup),
        key=lambda row: -row[1],
    )
    for label, seconds in rows:
        if seconds > 0:
            print(f"  {label + '_s':<28} {seconds:>12.6f} s {100 * seconds / wall:6.2f}%")
    for label, seconds in startup.items():
        print(f"  {label + '_s':<28} {seconds:>12.6f} s (once, at server start)")
    print(f"  {'trace.unattributed_s':<28} {values['trace.unattributed_s']:>12.6f} s")
    print(f"  self-time coverage of wall: {100 * values['trace.coverage']:.2f}%")
    for key, value in outcome["overhead"].items():
        print(f"  tracing overhead {key}: {value:+.6f} {END_TO_END[key]}")


def cpu_steal_seconds() -> float:
    """Time the hypervisor gave this VM's CPUs to others (``steal`` in
    ``/proc/stat``): the main source of run-to-run noise on shared VMs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = reference()
    steal = cpu_steal_seconds()
    work = BUILD / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_mine if name.startswith("mine") else run_analyze
        outcome = runner(name, seed, seconds, trace, work, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome["notes"].append(f"cpu steal during the run: {cpu_steal_seconds() - steal:.2f} s")
    for note in outcome["notes"]:
        print(note)
    if trace:
        values = per_layer_metrics(outcome)
        print_layer_table(name, outcome, values)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values = outcome["metrics"]
        for key, unit in END_TO_END.items():
            print(f"{name} {key} = {values[key]:.6f} {unit}")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    correct = outcome["failed"] == 0
    print(f"{name}: correctness {'ok' if correct else 'FAILED'} "
          f"({outcome['failed']} failed of {outcome['attempted']} attempted)")
    return {"correct": correct, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def smoke(seeds: list[int], seconds: float) -> int:
    """Run every workload briefly, untraced and traced, per seed; check
    that every metric named in BENCHMARK.json is emitted with its unit
    and that nothing failed."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for seed in seeds:
        for name in WORKLOADS + EXTRA_WORKLOADS:
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                    cwd=ROOT, capture_output=True, text=True,
                )
                tag = f"{name} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
                print(f"{tag}: failed_ratio {result['failed'] / result['attempted']:.3f}")
                for key, metric in result["metrics"].items():
                    if trace == "0":
                        print(f"  {key} = {metric['value']:.6f} {metric['unit']}")
    for problem in problems:
        print("SMOKE PROBLEM:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, untraced and traced")
    parser.add_argument("--seeds", type=int, nargs="+", default=[DEFAULT_SEED],
                        help="seeds for --smoke (default: the default seed)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = child_env()
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    # A SIGTERM unwinds like an error, so every `finally` stops the
    # servers and children this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.smoke:
        return smoke(args.seeds, min(args.seconds, 2.0))
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
