"""Command-line interface.

Commands::

    calabi interpolate U0.json U1.json --frames 20 --out-dir frames/
    calabi verify 64 --report report.json
    calabi distance A.json B.json C.json [--json] [--out matrix.csv]
    calabi mean A.json B.json [--out mean.json]

Density and domain files use the JSON forms documented in ``space`` and
``quadrature``.  Every file output starts with a header carrying the tool
version, a hash of the run configuration, and the seed, so reruns are
byte-identical.  Exit codes: 0 success, 2 input error, 3 verification
failure, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, GeometryError
from .geodesics import evaluate, geodesic_dirichlet
from .quadrature import QuadratureDomain, load_domain, make_normalized_domain
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
    step: float = 1e-4
    delta: float = 1e-3
    normalize: bool = False
    out_dir: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tol", "step", "delta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    def hash(self) -> str:
        payload = {
            "seed": self.seed,
            "tol": self.tol,
            "step": self.step,
            "delta": self.delta,
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
    return RunConfig(
        seed=args.seed,
        tol=args.tol,
        step=args.step,
        delta=args.delta,
        normalize=args.normalize,
        out_dir=args.out_dir or os.environ.get(OUTPUT_DIR_ENV, "."),
        extra=extra,
    )


def _normalized(domain: QuadratureDomain) -> QuadratureDomain:
    """Rescale the weights so that the total volume is exactly 1/4."""
    scale = 0.25 / domain.vol
    return QuadratureDomain(weights=domain.weights * scale, vol=0.25, grid=domain.grid)


def _load_inputs(paths: list[str], domain_path: str | None, normalize: bool):
    """Load density files onto one shared domain.

    The shared domain is ``domain_path`` when given, else the first file's.
    Every file that names a domain must name one with the same weights.  A
    domain file is read once per command, however many density files name
    it.  Density files are parsed, checked and converted one at a time, so
    only one parsed document is held at once.
    """
    from .quadrature import domain_from_dict

    domains: dict[str, QuadratureDomain] = {}

    def named_domain(path: str) -> QuadratureDomain:
        if path not in domains:
            domains[path] = load_domain(path)
        return domains[path]

    def file_domain(obj: dict) -> QuadratureDomain | None:
        entry = obj.get("domain")
        if entry is None:
            return None
        return named_domain(entry) if isinstance(entry, str) else domain_from_dict(entry)

    base = named_domain(domain_path) if domain_path else None
    domain = None
    points = []
    for p in paths:
        try:
            obj = json.loads(Path(p).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p}: invalid JSON ({exc})") from exc
        own = file_domain(obj)
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
    return domain, points


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _csv_row(t: float, values: np.ndarray) -> str:
    return ",".join([repr(float(t))] + [repr(float(x)) for x in values])


def cmd_interpolate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.frames < 2:
        raise ValueError("need at least 2 frames")
    domain, (u0, u1) = _load_inputs([args.u0, args.u1], args.domain, args.normalize)
    seg, t0 = geodesic_dirichlet(u0, u1)
    d = domain.radius * t0
    out_dir = Path(config.out_dir)
    node_header = ",".join(["t"] + [f"node_{i}" for i in range(domain.node_count)])

    times = [t0 * i / (args.frames - 1) for i in range(args.frames)]
    times[0], times[-1] = 0.0, t0
    files = []
    curve_lines = config.csv_header() + [node_header]
    for i, t in enumerate(times):
        point = evaluate(seg, t) if t != 0.0 else u0
        name = f"frame_{i:04d}.csv"
        _write_lines(
            out_dir / name,
            config.csv_header() + [node_header, _csv_row(t, point.density())],
        )
        curve_lines.append(_csv_row(t, point.values))
        files.append(name)
    _write_lines(out_dir / "curve.csv", curve_lines)

    manifest = {
        "meta": config.meta(),
        "t0": t0,
        "d": d,
        "cosine": float(np.cos(t0)),
        "n_frames": args.frames,
        "frames": files,
        "curve": "curve.csv",
    }
    _write_lines(out_dir / "manifest.json", [json.dumps(manifest, indent=1, sort_keys=True)])
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
    text = json.dumps(report, indent=1, sort_keys=True, default=float)
    if args.report:
        _write_lines(Path(args.report), [text])
    else:
        print(text)
    status = "ok" if report["passed"] else "FAILED: " + ", ".join(report["failures"])
    print(f"verification on {domain.node_count} nodes: {status}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _matrix_csv(config: RunConfig, matrix: np.ndarray, labels: list[str]) -> list[str]:
    lines = config.csv_header()
    lines.append(",".join([""] + labels))
    for label, row in zip(labels, matrix):
        lines.append(",".join([label] + [repr(float(x)) for x in row]))
    return lines


def cmd_distance(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, points = _load_inputs(args.inputs, args.domain, args.normalize)
    matrix = distance_matrix(DensitySet(points))
    labels = [Path(p).name for p in args.inputs]
    if args.json:
        payload = {"meta": config.meta(), "labels": labels, "matrix": matrix.tolist()}
        text = json.dumps(payload, indent=1, sort_keys=True)
        if args.out:
            _write_lines(Path(args.out), [text])
        else:
            print(text)
    else:
        lines = _matrix_csv(config, matrix, labels)
        if args.out:
            _write_lines(Path(args.out), lines)
        else:
            print("\n".join(lines))
    return EXIT_OK


def cmd_mean(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, points = _load_inputs(args.inputs, args.domain, args.normalize)
    mean = karcher_mean(DensitySet(points), tol=config.tol, max_iter=args.max_iter)
    payload = {"meta": config.meta(), **density_to_dict(mean)}
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        _write_lines(Path(args.out), [text])
    else:
        print(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calabi",
        description="Geodesic geometry of normalized density fields.",
    )
    parser.add_argument("--version", action="version", version=f"calabi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--domain", help="domain JSON file overriding inline domains")
        p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
        p.add_argument("--step", type=float, default=1e-4, help="integrator step")
        p.add_argument("--delta", type=float, default=1e-3, help="finite-difference step")
        p.add_argument("--seed", type=int, default=0, help="random seed (recorded in outputs)")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="rescale the domain to total volume 1/4 before computing",
        )
        p.add_argument(
            "--out-dir",
            default=None,
            help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')",
        )

    p = sub.add_parser("interpolate", help="geodesic interpolation between two densities")
    p.add_argument("u0", help="density JSON for the start point")
    p.add_argument("u1", help="density JSON for the end point")
    p.add_argument("--frames", type=int, default=16, help="number of snapshots")
    common(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("target", help="node count for a normalized domain, or a domain JSON file")
    p.add_argument("--report", help="write the JSON report to this path")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="pairwise distance matrix of densities")
    p.add_argument("inputs", nargs="+", help="density JSON files")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--out", help="write to this path instead of stdout")
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("mean", help="geodesic mean of densities")
    p.add_argument("inputs", nargs="+", help="density JSON files")
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
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input ({exc})", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
