"""Corpus preparation: parse, analyze, transform, extract paths.

Every stage of Namer — mining, statistics, detection — operates on
transformed statement ASTs plus their name paths.  This module runs the
frontends and (optionally) the static analyses over a corpus once and
caches the results as :class:`PreparedStatement` rows.

Failure contract: at corpus scale some files are always broken, so a
per-file failure must cost exactly that file.  :func:`prepare_file`
returns ``None`` for such files (legacy API); callers that need to know
*why* use :func:`prepare_file_checked`, which raises a structured
:class:`PrepareError`, or pass a
:class:`~repro.resilience.quarantine.Quarantine` to
:func:`prepare_corpus` to collect the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.origins import compute_origins
from repro.analysis.pointsto import PointsToConfig
from repro.core.namepath import NamePath, extract_name_paths
from repro.core.transform import TransformConfig, transform_statement
from repro.corpus.model import Corpus, SourceFile
from repro.lang import parse_source
from repro.lang.astir import StatementAst
from repro.lang.moduleir import ModuleIr
from repro.resilience.faults import InjectedFault, fault_check
from repro.resilience.quarantine import ErrorRecord, Quarantine

__all__ = [
    "PreparedStatement",
    "PreparedFile",
    "PrepareError",
    "prepare_corpus",
    "prepare_file",
    "prepare_file_checked",
]


@dataclass
class PreparedStatement:
    """A transformed statement together with its extracted name paths."""

    stmt: StatementAst
    paths: list[NamePath]


@dataclass
class PreparedFile:
    """All prepared statements of one source file."""

    module: ModuleIr
    statements: list[PreparedStatement] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.module.file_path

    @property
    def repo(self) -> str:
        return self.module.repo


class PrepareError(ValueError):
    """One file failed to prepare; carries where and at which stage."""

    def __init__(self, path: str, stage: str, cause: BaseException) -> None:
        super().__init__(f"cannot prepare {path}: {stage} failed: {cause}")
        self.path = path
        self.stage = stage
        self.cause = cause


def prepare_file_checked(
    source: SourceFile,
    repo: str = "",
    use_analysis: bool = True,
    transform_config: TransformConfig = TransformConfig(),
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
) -> PreparedFile:
    """Parse, analyze and transform one file; raises :class:`PrepareError`
    with the failing stage on any per-file problem.

    Input too deep or too large for the recursive parse and tree walks
    (``RecursionError``, ``MemoryError``, at whichever stage) fails with
    stage ``"limits"``.
    """
    try:
        return _prepare_stages(
            source, repo, use_analysis, transform_config, pointsto_config, max_paths
        )
    except (RecursionError, MemoryError) as exc:
        raise PrepareError(source.path, "limits", exc) from exc


def _prepare_stages(
    source: SourceFile,
    repo: str,
    use_analysis: bool,
    transform_config: TransformConfig,
    pointsto_config: PointsToConfig,
    max_paths: int,
) -> PreparedFile:
    try:
        fault_check("corpus.prepare_file", key=source.path)
        module = parse_source(source.source, source.language, source.path, repo)
    except (ValueError, InjectedFault) as exc:
        raise PrepareError(source.path, "parse", exc) from exc

    try:
        if use_analysis and transform_config.use_origins:
            origins = compute_origins(module, pointsto_config).per_statement
        else:
            origins = [None] * len(module.statements)
    except (ValueError, KeyError, InjectedFault) as exc:
        raise PrepareError(source.path, "analyze", exc) from exc

    try:
        prepared = PreparedFile(module=module)
        for stmt, env in zip(module.statements, origins):
            transformed = transform_statement(stmt, env, transform_config)
            paths = extract_name_paths(transformed, max_paths=max_paths)
            if paths:
                prepared.statements.append(
                    PreparedStatement(stmt=transformed, paths=paths)
                )
    except (ValueError, KeyError, InjectedFault) as exc:
        raise PrepareError(source.path, "transform", exc) from exc
    return prepared


def prepare_file(
    source: SourceFile,
    repo: str = "",
    use_analysis: bool = True,
    transform_config: TransformConfig = TransformConfig(),
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
) -> PreparedFile | None:
    """Parse, analyze and transform one file.

    Returns ``None`` for unpreparable files — a large corpus always
    contains some (the paper simply skips them too).
    """
    try:
        return prepare_file_checked(
            source,
            repo=repo,
            use_analysis=use_analysis,
            transform_config=transform_config,
            pointsto_config=pointsto_config,
            max_paths=max_paths,
        )
    except PrepareError:
        return None


def prepare_corpus(
    corpus: Corpus,
    use_analysis: bool = True,
    transform_config: TransformConfig | None = None,
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
    workers: int = 1,
    quarantine: Quarantine | None = None,
) -> list[PreparedFile]:
    """Prepare every file of a corpus; unpreparable files are skipped.

    Files are analyzed independently (the paper parallelizes this stage
    across all 28 cores of its test server); ``workers > 1`` fans the
    per-file work out over a process pool, preserving file order.  A
    ``quarantine`` receives one :class:`ErrorRecord` per skipped file.
    """
    if transform_config is None:
        transform_config = TransformConfig(use_origins=use_analysis)
    tasks = [
        (source, repo.name, use_analysis, transform_config, pointsto_config, max_paths)
        for repo, source in corpus.files()
    ]
    workers = min(workers, len(tasks))
    if workers <= 1 or len(tasks) < 4:
        results = [_prepare_task(task) for task in tasks]
    else:
        import concurrent.futures

        chunksize = max(1, len(tasks) // (workers * 4))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_prepare_task, tasks, chunksize=chunksize))
    out: list[PreparedFile] = []
    for prepared, error in results:
        if prepared is not None:
            out.append(prepared)
        elif error is not None and quarantine is not None:
            quarantine.add(error)
    return out


def _prepare_task(task) -> tuple[PreparedFile | None, ErrorRecord | None]:
    """Process-pool entry point (must be module-level for pickling);
    failures come back as picklable :class:`ErrorRecord` rows."""
    source, repo, use_analysis, transform_config, pointsto_config, max_paths = task
    try:
        prepared = prepare_file_checked(
            source,
            repo=repo,
            use_analysis=use_analysis,
            transform_config=transform_config,
            pointsto_config=pointsto_config,
            max_paths=max_paths,
        )
    except PrepareError as exc:
        return None, ErrorRecord(
            path=exc.path,
            stage=exc.stage,
            kind=type(exc.cause).__name__,
            message=str(exc.cause),
            repo=repo,
        )
    return prepared, None
