"""Command line front end.

Five subcommands: spectrum, cusps, companions, decompose, verify.  All
output is batch artifacts (JSON with a versioned schema, CSV, or
whitespace plotdata); identical config and seed give byte-identical
files.  Exit codes: 0 success, 1 verification/domain failure, 2 usage.
"""
import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .arith import build_context, farey_pairs
from . import cusps as cu
from . import expsums as ex
from . import transference as tr
from .report import all_clean
from .verify import run_suite, SUITE_NAMES

SCHEMA = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError (exit 2 from main)."""

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One run; every field but command is a --flag and a config-file key,
    and some command reads each.  There is no thread count (exp_sum uses
    every CPU the process may use), no prime-table size (it follows N, or
    zmax for verify) and no lower prime cutoff (P* lies in [sqrt(N), N])."""
    command: str
    N: int = None
    subset: str = "full"
    density: float = 0.5
    A: float = 4.0
    B: float = 2.0
    xi: float = 0.0
    z0: float = 3.0
    z: float = None
    M: int = None
    grid: int = None
    Q: int = 30
    suite: str = "all"
    zmax: int = 10_000
    format: str = "json"
    output: str = None
    seed: int = 0

    def __post_init__(self):
        if self.subset not in ("full", "sqrt2", "random"):
            raise UsageError(f"unknown subset {self.subset!r}")
        formats = _COMMANDS[self.command][1]
        if self.format not in formats:
            raise UsageError(f"{self.command} writes no {self.format!r} format; "
                             f"choose from {', '.join(formats)}")
        if self.suite not in SUITE_NAMES + ("all",):
            raise UsageError(f"unknown suite {self.suite!r}")
        if self.grid is not None and (self.grid < 1 or self.grid & (self.grid - 1)):
            raise UsageError(f"grid={self.grid} is not a power of two")
        if self.command != "verify":
            if self.N is None:
                raise UsageError(f"{self.command} requires --N")
            if self.N < 100:
                raise UsageError("N must be >= 100")
        if self.Q < 1:
            raise UsageError(f"Q={self.Q} must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise UsageError("seed must fit in 64 bits")
        for f in _OPTIONS:
            value = getattr(self, f.name)
            if f.type is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{f.name}={value} is not a finite number")


_OPTIONS = [f for f in fields(RunConfig) if f.name != "command"]
_DEFAULTS = {f.name: f.default for f in _OPTIONS}
_COERCE = {f.name: f.type for f in _OPTIONS}


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in _DEFAULTS:
                    raise UsageError(f"{path}:{ln}: unknown key {key!r}")
                try:
                    values[key] = _COERCE[key](val)
                except ValueError:
                    raise UsageError(f"{path}:{ln}: bad value {val!r} for {key!r}")
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="primecusps", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value file; flags win")
        for key, default in _DEFAULTS.items():
            p.add_argument(f"--{key}", type=_COERCE[key], default=None,
                           help=f"default {default!r}")
    return top


def build_config(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_parse_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return RunConfig(command=args.command, **merged)


def _subset(ctx, cfg: RunConfig) -> ex.PrimeSubset:
    if cfg.subset == "full":
        return ex.subset_full(ctx, cfg.N)
    if cfg.subset == "sqrt2":
        return ex.subset_sqrt2(ctx, cfg.N)
    return ex.subset_random(ctx, cfg.N, cfg.density, seed=cfg.seed)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise RuntimeError(f"cannot write {path}: {err}")


def _emit(cfg: RunConfig, ext: str, text: str) -> str:
    """Write the command's artifact (--output, or primecusps-<command>.<ext>)
    and print its path."""
    path = cfg.output or f"primecusps-{cfg.command}.{ext}"
    _write(path, text)
    print(path)
    return path


def _json_report(cfg: RunConfig, **fields) -> str:
    """The JSON artifact: schema, seed and the set config values, then the
    command's fields, keys sorted."""
    config = {k: v for k, v in asdict(cfg).items() if v is not None}
    payload = {"schema": SCHEMA, "seed": cfg.seed, "config": config, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_spectrum(ctx, cfg: RunConfig) -> int:
    subset = _subset(ctx, cfg)
    G = ex.grid_size(cfg.N, cfg.grid)
    if cfg.format == "plotdata":
        # at most 1 + Q(Q-1)/2 Farey points; the list, the rows and the text
        # peaked at 186-224 bytes a point for Q = 300-1000 (tracemalloc)
        ex.require_memory(256 * (1 + cfg.Q * (cfg.Q - 1) // 2),
                          f"the Farey overlay at Q={cfg.Q}")
    sums = ex.grid_sums(subset.indicator(), G)  # the half circle j <= G/2
    ratio = np.abs(sums) / subset.size
    if cfg.format != "json":  # mirror out to all G rows: |T*(-a)| = |T*(a)|
        ratio = np.concatenate([ratio, ratio[-2:0:-1]])
    if cfg.format == "plotdata":
        alphas = np.arange(G) / G
        lines = [f"{a:.12g} {float(r)!r}" for a, r in zip(alphas, ratio)]
        path = _emit(cfg, "txt", "\n".join(lines) + "\n")
        flags = [0] + [1 if ctx.is_squarefree(q) else 0 for q in range(1, cfg.Q + 1)]
        overlay = [f"{a / q:.12g} {q} {flags[q]}" for a, q in farey_pairs(cfg.Q)]
        _write(path + ".farey", "\n".join(overlay) + "\n")
    elif cfg.format == "csv":
        lines = ["alpha,ratio"]
        lines += [f"{j / G:.12g},{r:.10g}" for j, r in enumerate(ratio)]
        _emit(cfg, "csv", "\n".join(lines) + "\n")
    else:
        _emit(cfg, "json", _json_report(
            cfg, N=subset.N, size=subset.size, K=subset.K,
            grid=G, l1_estimate=ex.l1_estimate(sums, G),
            ratio_min=float(ratio.min()), ratio_max=float(ratio.max())))
    return 0


def cmd_cusps(ctx, cfg: RunConfig) -> int:
    subset = _subset(ctx, cfg)
    grid = ex.spectrum(subset, cfg.A, cfg.grid)
    report = cu.find_cusps(grid, cfg.A)
    rows = [cu.structure_check(report), cu.farey_census_report(report)]
    if cfg.format == "csv":
        lines = ["lo,hi,peak_pos,peak_height"]
        lines += [f"{a.lo:.12g},{a.hi:.12g},{a.peak.position:.12g},"
                  f"{a.peak.weight:.10g}" for a in report.arcs]
        _emit(cfg, "csv", "\n".join(lines) + "\n")
    else:
        _emit(cfg, "json", _json_report(
            cfg, N=subset.N, A=report.A, K=subset.K,
            threshold=report.threshold, bound=report.bound,
            count=len(report.wellspaced), count_ok=report.count_ok,
            measure_estimate=sum(arc.length for arc in report.arcs),
            arcs=[{"lo": a.lo, "hi": a.hi, "peak_pos": a.peak.position,
                   "peak_height": a.peak.weight} for a in report.arcs],
            wellspaced=[{"position": p.position, "weight": p.weight}
                        for p in report.wellspaced],
            checks=[r.to_dict() for r in rows]))
    return 0 if report.count_ok and all_clean(rows) else 1


def cmd_companions(ctx, cfg: RunConfig) -> int:
    subset = _subset(ctx, cfg)
    result = cu.companion_search(subset, cfg.xi, cfg.A, cfg.B)
    _emit(cfg, "json", _json_report(cfg, **result))
    return 0 if result["ok"] else 1


def cmd_decompose(ctx, cfg: RunConfig) -> int:
    M = cfg.M if cfg.M is not None else int(ctx.primorial(cfg.z0))
    dec = tr.decompose(ctx, _subset(ctx, cfg), cfg.z0, M, cfg.A, z=cfg.z)
    rows = tr.transform_checks(dec, seed=cfg.seed + 1)
    rows.extend(tr.cusp_suppression_report(dec, seed=cfg.seed + 2))
    rows.append(tr.bohr_size_row(dec.bohr))
    # any power of two serves the supremum, one below N included
    sup = tr.sharp_sup_report(dec, min(cfg.grid or ex.grid_size(cfg.N), 1 << 20))
    if cfg.format == "csv":
        _emit(cfg, "csv", tr.decomposition_csv(dec))
    else:
        _emit(cfg, "json", _json_report(
            cfg, M=M, z=dec.z, G=float(dec.G_val), V=float(dec.V_val),
            metrics=dec.metrics, sup=sup, checks=[r.to_dict() for r in rows]))
    return 0 if all_clean(rows) else 1


def cmd_verify(ctx, cfg: RunConfig) -> int:
    rows = run_suite(ctx, cfg.suite, seed=cfg.seed, zmax=cfg.zmax)
    _emit(cfg, "json", _json_report(cfg, suite=cfg.suite, clean=all_clean(rows),
                                    rows=[r.to_dict() for r in rows]))
    if not all_clean(rows):
        for r in rows:
            if r.status == "fail":
                print(f"FAIL {r.lemma}", file=sys.stderr)
        return 1
    return 0


#: command -> (runner, the output formats it writes)
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("json", "csv", "plotdata")),
    "cusps": (cmd_cusps, ("json", "csv")),
    "companions": (cmd_companions, ("json",)),
    "decompose": (cmd_decompose, ("json", "csv")),
    "verify": (cmd_verify, ("json",)),
}


def _context_limit(cfg: RunConfig) -> int:
    """The prime table covers the scans to zmax, or the primes to N; a z
    past N stays a domain error that names z, never a larger table."""
    if cfg.command == "verify":
        return max(120_000, cfg.zmax)
    return max(1000, cfg.N)


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        ctx = build_context(_context_limit(cfg))
        return _COMMANDS[cfg.command][0](ctx, cfg)
    except (ValueError, RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
