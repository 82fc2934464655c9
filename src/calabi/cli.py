"""Command-line interface.

Commands::

    calabi interpolate U0.json U1.json --frames 20 --out-dir frames/
    calabi verify 64 --report report.json
    calabi distance A.json B.json C.json [--json] [--out matrix.csv]
    calabi mean A.json B.json [--tol 1e-10] [--max-iter 100] [--out mean.json]

Every command takes ``--seed`` and ``--normalize``; ``interpolate``,
``distance`` and ``mean`` also take ``--domain``.  A command parses only the
flags it reads.

Density and domain files use the JSON forms documented in ``space`` and
``quadrature``.  Every file output starts with a header carrying the tool
version, a hash of the run configuration, and the seed, so reruns are
byte-identical.  Exit codes: 0 success, 2 input error, 3 verification
failure, 4 convergence failure.  Every input file is parsed by
``quadrature._read_json`` (``orjson``), one file at a time in input order.
When at least two CPUs are usable, ``interpolate`` writes its frame files
from one forked helper process while it writes ``curve.csv`` itself; the
other commands never fork.  Outputs, error messages and exit codes are
byte-identical either way.  ``interpolate`` formats and writes each CSV file
one row at a time, and each row in pieces of at most 4096 values, so its
memory does not grow with ``--frames``; a failure part-way through can leave
a partial ``curve.csv``, as it can leave a partial set of frame files.  Every
CSV file (``curve.csv``, the frame files and ``distance``'s matrix) formats
its values through the array formatter ``_floattext``, whose text is
byte-identical to ``repr`` of each value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._floattext import PIECE, float_pieces
from .errors import ConvergenceError, GeometryError
from .geodesics import evaluate, geodesic_dirichlet
from .quadrature import QuadratureDomain, _read_json, domain_from_dict, load_domain, make_normalized_domain
from .space import density_to_dict, load_density
from .stats import DensitySet, distance_matrix, karcher_mean
from .verify import run_report

__all__ = ["RunConfig", "main"]

OUTPUT_DIR_ENV = "CALABI_OUTPUT_DIR"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_CONVERGENCE = 4

@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs recorded in every output header."""

    seed: int = 0
    tol: float = 1e-10
    normalize: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")

    def hash(self) -> str:
        payload = {
            "seed": self.seed,
            "tol": self.tol,
            "normalize": self.normalize,
            **self.extra,
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:12]

    def csv_header(self) -> list[str]:
        return [
            f"# tool=calabi version={__version__}",
            f"# config={self.hash()}",
            f"# seed={self.seed}",
        ]

    def meta(self) -> dict:
        return {
            "tool": "calabi",
            "version": __version__,
            "config_hash": self.hash(),
            "seed": self.seed,
        }


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {"command": args.command}
    if getattr(args, "frames", None) is not None:
        extra["frames"] = args.frames
    # only mean reads tol; the other commands hash its default
    return RunConfig(
        seed=args.seed,
        tol=getattr(args, "tol", RunConfig.tol),
        normalize=args.normalize,
        extra=extra,
    )


def _normalized(domain: QuadratureDomain) -> QuadratureDomain:
    """Rescale the weights so that the total volume is exactly 1/4."""
    scale = 0.25 / domain.vol
    return QuadratureDomain(weights=domain.weights * scale, vol=0.25, grid=domain.grid)


def _load_inputs(paths: list[str], domain_path: str | None, normalize: bool):
    """Load density files onto one shared domain.

    The shared domain is ``domain_path`` when given, and the files' own
    domains are then neither read nor compared.  Else it is the first file's,
    and every file that names a domain must name one with the same weights.
    A domain file is read once per command, however many files name it.
    Files are parsed, checked and converted one at a time, in input order,
    so the first faulty file is the one reported and one parsed document is
    held at once.
    """
    domains: dict[str, QuadratureDomain] = {}
    base = domain = None
    points = []

    def named_domain(path: str) -> QuadratureDomain:
        if path not in domains:
            domains[path] = load_domain(path)
        return domains[path]

    def file_domain(obj: dict) -> QuadratureDomain | None:
        entry = obj.get("domain")
        if entry is None:
            return None
        return named_domain(entry) if isinstance(entry, str) else domain_from_dict(entry)

    if domain_path:
        base = named_domain(domain_path)
    for p in paths:
        obj = _read_json(p)
        if not isinstance(obj, dict):
            raise ValueError(f"{p}: a density file must hold a JSON object")
        # Each field list becomes an array at once, so that its Python floats
        # are freed before the domain file is parsed; a list that does not
        # convert is left for load_density to reject after the domain checks.
        for key in ("u", "density"):
            if key in obj:
                try:
                    obj[key] = np.asarray(obj[key], dtype=float)
                except (TypeError, ValueError, OverflowError):
                    pass
        own = None if domain_path else file_domain(obj)
        if base is None:
            if own is None:
                raise ValueError(f"{p} carries no domain; pass one with --domain")
            base = own
        elif own is not None and own is not base and not np.array_equal(own.weights, base.weights):
            raise ValueError(f"{p} carries a domain different from the shared one")
        if domain is None:
            domain = _normalized(base) if normalize else base
        try:
            points.append(load_density(obj, domain=domain))
        except (ValueError, GeometryError) as exc:
            raise ValueError(f"{p}: {exc}") from exc
        del obj  # before the next file is parsed
    return domain, points


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` one at a time, so that a generator of
    chunks is held one chunk at a time."""
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write ``chunks`` to ``path`` when one is given, else to stdout."""
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        _write_text(Path(path), chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv_row(first: str, values: np.ndarray) -> Iterator[str]:
    """The CSV line ``first,v0,v1,...`` and its newline, in pieces of at most
    ``_floattext.PIECE`` values; each value is its shortest round-trip text,
    the same as its ``repr``."""
    yield first
    for piece in float_pieces(values):
        yield ","
        yield piece
    yield "\n"


def _fork_call(fn):
    """Start ``fn()`` in one forked child and return a ``wait`` function.

    ``wait()`` joins the child and re-raises in the caller the exception
    ``fn`` raised.  The child sends back that exception, or None, through a
    one-way pipe, so the exception must pickle.  A child that dies without
    sending it raises ``ChildProcessError``.  The child inherits ``fn`` and
    everything it refers to through the fork, so nothing is pickled on the
    way in.  With fewer than two usable CPUs (``os.sched_getaffinity``,
    which honours ``taskset`` and cpusets), or where it does not exist,
    ``fn`` runs in the calling process at once and ``wait()`` does nothing.

    ``interpolate`` runs its frame writer here.  Forking while numpy's idle
    OpenBLAS threads exist is safe because the writer calls no BLAS: it only
    evaluates geodesic points (``exp`` and ``einsum`` sums), formats them
    with the array formatter's elementwise integer ops (``_floattext``) and
    writes files.  That is why the interpreter's warning about forking a
    multi-threaded process is silenced for this fork.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        fn()
        return lambda: None
    import multiprocessing
    import warnings

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child() -> None:
        error = None
        try:
            fn()
        except Exception as exc:
            error = exc
        sender.send(error)

    process = ctx.Process(target=child)
    with sender, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        process.start()

    def wait() -> None:
        sent = True
        try:
            error = receiver.recv()
        except EOFError:
            sent, error = False, None
        finally:
            receiver.close()
            process.join()
        if error is not None:
            raise error
        if not sent or process.exitcode != 0:
            raise ChildProcessError(f"forked helper exited with code {process.exitcode}")

    return wait


def cmd_interpolate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.frames < 2:
        raise ValueError("need at least 2 frames")
    domain, (u0, u1) = _load_inputs([args.u0, args.u1], args.domain, args.normalize)
    seg, t0 = geodesic_dirichlet(u0, u1)
    d = domain.radius * t0
    out_dir = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    n = domain.node_count
    # PIECE names at a time, so that the names of a large domain never all exist at once.
    names = (",node_".join(map(str, range(a, min(a + PIECE, n)))) for a in range(0, n, PIECE))
    node_header = "t,node_" + ",node_".join(names)
    header = "\n".join(config.csv_header() + [node_header]) + "\n"

    times = [t0 * i / (args.frames - 1) for i in range(args.frames)]
    times[0], times[-1] = 0.0, t0
    files = [f"frame_{i:04d}.csv" for i in range(args.frames)]

    def point(t: float):
        return evaluate(seg, t) if t != 0.0 else u0

    def csv_lines(ts, values):
        """The header, then the row ``t, values(point(t))`` for each of ``ts``."""
        yield header
        for t in ts:
            yield from _csv_row(repr(float(t)), values(point(t)))

    def write_frames() -> None:
        for name, t in zip(files, times):
            _write_text(out_dir / name, csv_lines([t], lambda p: p.density()))

    out_dir.mkdir(parents=True, exist_ok=True)
    wait = _fork_call(write_frames)
    try:
        _write_text(out_dir / "curve.csv", csv_lines(times, lambda p: p.values))
    finally:
        wait()

    manifest = {
        "meta": config.meta(),
        "t0": t0,
        "d": d,
        "cosine": float(np.cos(t0)),
        "n_frames": args.frames,
        "frames": files,
        "curve": "curve.csv",
    }
    _write_text(out_dir / "manifest.json", [json.dumps(manifest, indent=1, sort_keys=True), "\n"])
    print(f"wrote {args.frames} frames to {out_dir} (t0={t0!r}, d={d!r})")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.target.isdigit():
        domain = make_normalized_domain(int(args.target))
    else:
        domain = load_domain(args.target)
        if args.normalize:
            domain = _normalized(domain)
    report = run_report(domain, seed=config.seed)
    report["meta"] = config.meta()
    _emit([json.dumps(report, indent=1, sort_keys=True, default=float), "\n"], args.report)
    status = "ok" if report["passed"] else "FAILED: " + ", ".join(report["failures"])
    print(f"verification on {domain.node_count} nodes: {status}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _matrix_csv(config: RunConfig, matrix: np.ndarray, labels: list[str]) -> Iterator[str]:
    yield "\n".join(config.csv_header() + [",".join([""] + labels)]) + "\n"
    for label, row in zip(labels, matrix):
        yield from _csv_row(label, row)


def cmd_distance(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, points = _load_inputs(args.inputs, args.domain, args.normalize)
    matrix = distance_matrix(DensitySet(points))
    labels = [Path(p).name for p in args.inputs]
    if args.json:
        payload = {"meta": config.meta(), "labels": labels, "matrix": matrix.tolist()}
        _emit([json.dumps(payload, indent=1, sort_keys=True), "\n"], args.out)
    else:
        _emit(_matrix_csv(config, matrix, labels), args.out)
    return EXIT_OK


def cmd_mean(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, points = _load_inputs(args.inputs, args.domain, args.normalize)
    mean = karcher_mean(DensitySet(points), tol=config.tol, max_iter=args.max_iter)
    payload = {"meta": config.meta(), **density_to_dict(mean)}
    _emit([json.dumps(payload, indent=1, sort_keys=True), "\n"], args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calabi",
        description="Geodesic geometry of normalized density fields.",
    )
    parser.add_argument("--version", action="version", version=f"calabi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, domain: bool = True) -> None:
        if domain:
            p.add_argument("--domain", help="domain JSON file overriding inline domains")
        p.add_argument("--seed", type=int, default=0, help="random seed (recorded in outputs)")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="rescale the domain to total volume 1/4 before computing",
        )

    p = sub.add_parser("interpolate", help="geodesic interpolation between two densities")
    p.add_argument("u0", help="density JSON for the start point")
    p.add_argument("u1", help="density JSON for the end point")
    p.add_argument("--frames", type=int, default=16, help="number of snapshots")
    p.add_argument("--out-dir", help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
    common(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("target", help="node count for a normalized domain, or a domain JSON file")
    p.add_argument("--report", help="write the JSON report to this path")
    common(p, domain=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="pairwise distance matrix of densities")
    p.add_argument("inputs", nargs="+", help="density JSON files")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--out", help="write to this path instead of stdout")
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("mean", help="geodesic mean of densities")
    p.add_argument("inputs", nargs="+", help="density JSON files")
    p.add_argument("--tol", type=float, default=RunConfig.tol, help="convergence tolerance")
    p.add_argument("--max-iter", type=int, default=100, help="iteration budget")
    p.add_argument("--out", help="write to this path instead of stdout")
    common(p)
    p.set_defaults(func=cmd_mean)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (GeometryError, ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
