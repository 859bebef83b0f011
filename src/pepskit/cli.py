"""Command-line interface.

Commands: gen, estimate, oracle, transfer, parent-gap.
Exit codes: 0 success, 1 usage or input error, 2 resource/budget error,
3 numerical failure. When an output path is given, errors are also written
into the result document with a machine-readable code.

``estimate`` opens its state file with ``fileio.open_peps``: it checks the
header and index of the whole file, so every malformed file is refused,
but reads the payload of its patch's sites only, rung by rung in adaptive
mode. ``oracle``, ``transfer`` and ``parent-gap`` read every site
(``fileio.read_peps``).

The argument parser is built once per process, on first use, and every
later ``main`` call reuses it: parsing keeps no state between calls. This
helps only a process that calls ``main`` many times; a one-shot ``pepskit``
command builds the parser once either way.
"""

from __future__ import annotations

import os

# Optional thread-count override; must land before numpy is imported.
_threads = os.environ.get("PEPSKIT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__, transfer
from .errors import ArgumentError, PepskitError
from .fileio import (
    document_text,
    open_peps,
    read_observable,
    read_peps,
    result_document,
    write_document,
    write_peps,
)
from .generators import aklt_chain, product_peps, random_injective_peps
from .lattice import LatticeSpec
from .observables import PRESETS, Observable, preset_matrix
from .oracle import exact_expectation
from .parent import uniform_gap_scan
from .patch import adaptive_estimate, check_bound_inputs, error_bound, patch_expectation
from .transfer import (
    decay_fit,
    dressed_transfer,
    site_transfer_operator,
    spectrum,
    strip_transfer_operator,
    transfer_correlation,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NUMERICAL = 3


def _parse_lattice(text: str) -> LatticeSpec:
    parts = text.lower().split("x")
    try:
        extents = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ArgumentError(f"cannot parse lattice size {text!r}") from exc
    return LatticeSpec(extents)


def _parse_site(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ArgumentError(f"cannot parse site {text!r}") from exc


def _parse_range(text: str) -> range:
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise ArgumentError(f"cannot parse range {text!r}, expected lo:hi") from exc
    if hi < lo:
        raise ArgumentError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _load_observable(spec: str, site: str | None) -> Observable:
    """Preset name plus --site, or else a path to an observable file (which names its own sites)."""
    if spec not in PRESETS and os.path.exists(spec):
        if site is not None:
            raise ArgumentError(f"observable file {spec!r} names its sites; drop --site")
        return read_observable(spec)
    matrix = preset_matrix(spec)
    if site is None:
        raise ArgumentError(f"preset observable {spec!r} needs --site")
    return Observable(sites=(_parse_site(site),), matrix=matrix)


def _emit(doc: dict, out_path: str | None):
    if out_path:
        write_document(doc, out_path)
    else:
        sys.stdout.write(document_text(doc))


def _cmd_gen(args) -> dict:
    if args.kind == "product":
        peps = product_peps(_parse_lattice(args.lattice), args.bond_dim, args.phys_dim)
    elif args.kind == "perturbed":
        peps = random_injective_peps(
            _parse_lattice(args.lattice), args.bond_dim, args.phys_dim, args.eta, args.seed
        )
    else:
        peps = aklt_chain(args.n)
    write_peps(peps, args.out)
    return {"written": args.out, "sites": peps.lattice.n_sites}


def _cmd_estimate(args) -> dict:
    peps = open_peps(args.peps)
    obs = _load_observable(args.obs, args.site)
    if (args.ell is None) == (args.epsilon is None):
        raise ArgumentError("pass exactly one of --ell or --epsilon")
    gap, kappa_star, c = args.gap, args.kappa_star, args.constant
    check_bound_inputs(gap, kappa_star, c)
    if args.ell is not None:
        est = patch_expectation(peps, obs, args.ell)
    else:
        est = adaptive_estimate(peps, obs, args.epsilon)
    if est.patch_size == peps.lattice.n_sites:
        bound = 0.0  # the patch is the lattice, so the value is exact
    elif None in (gap, kappa_star, c):
        bound = None
    else:
        # Capped: the estimate and the exact value differ by at most 2|O| (see error_bound).
        bound = min(error_bound(est.radius_used, peps.lattice.dimension, gap, kappa_star, obs.op_norm, c),
                    2 * obs.op_norm)
    payload = {
        "value": est.value,
        "radius_used": est.radius_used,
        "bound": bound,
        "patch_size": est.patch_size,
        "wall_time_ms": est.wall_time * 1e3,
        "mode": est.mode,
    }
    if est.ladder is not None:
        payload["ladder"] = list(est.ladder)
    return {
        "estimate": payload,
        "timings": {f"{stage}_ms": t * 1e3 for stage, t in est.stage_times.items()},
    }


def _cmd_oracle(args) -> dict:
    peps = read_peps(args.peps)
    obs = _load_observable(args.obs, args.site)
    res = exact_expectation(peps, obs)
    return {
        "oracle": {
            "value": res.value,
            "norm_sq": res.norm_sq,
            "sites_used": res.sites_used,
            "wall_time_ms": res.wall_time * 1e3,
        },
        "timings": {f"{stage}_ms": t * 1e3 for stage, t in res.stage_times.items()},
    }


def _cmd_transfer(args) -> dict:
    if (args.obs_a is None) != (args.obs_b is None):
        raise ArgumentError("pass both --obs-a and --obs-b, or neither")
    if args.obs_a is None:
        # The separations and the line length serve only the correlations.
        given = [flag for flag, value in (("--x-range", args.x_range), ("--length", args.length))
                 if value is not None]
        if given:
            raise ArgumentError(f"{', '.join(given)} not used without --obs-a and --obs-b")
    for flag, spec in (("--obs-a", args.obs_a), ("--obs-b", args.obs_b)):
        if spec is not None and spec not in PRESETS and os.path.exists(spec):
            # An observable file names its sites, which the ring model cannot honour.
            raise ArgumentError(f"{flag} takes a preset name, not observable file {spec!r}")
    peps = read_peps(args.peps)
    if peps.lattice.dimension == 1:
        ignored = {"--column": args.column, "--width": args.width}
    else:
        ignored = {"--obs-a": args.obs_a, "--obs-b": args.obs_b, "--site-index": args.site_index,
                   "--x-range": args.x_range, "--length": args.length}
    given = [flag for flag, value in ignored.items() if value is not None]
    if given:
        raise ArgumentError(f"{', '.join(given)} not used on a {peps.lattice.dimension}D state")
    results: dict = {}
    if peps.lattice.dimension == 1:
        n = peps.lattice.n_sites
        site = args.site_index if args.site_index is not None else n // 2
        if not 0 < site < n - 1:
            raise ArgumentError(f"transfer site {site} must be an interior site of the chain")
        t = peps.tensors[(site,)]
        op = site_transfer_operator(t)
        results["spectrum"] = spectrum(op)
        if args.obs_a is not None:
            e_oa = dressed_transfer(t, preset_matrix(args.obs_a))
            e_ob = dressed_transfer(t, preset_matrix(args.obs_b))
            xs = list(_parse_range(args.x_range if args.x_range is not None else "1:4"))
            length = args.length if args.length is not None else 64
            joints = [transfer_correlation(op, e_oa, e_ob, x, length) for x in xs]
            results["correlations"] = [{"x": x, "value": v} for x, v in zip(xs, joints)]
            if len(xs) >= 2:
                rate, r2 = decay_fit(op, e_oa, e_ob, xs, joints, length)
                results["decay_fit"] = {"rate": rate, "r_squared": r2}
    else:
        n_rows, n_cols = peps.lattice.extents
        column = args.column if args.column is not None else n_cols // 2
        width = args.width if args.width is not None else min(transfer.STRIP_WIDTH_CUTOFF, n_rows)
        op = strip_transfer_operator(peps, column, width)
        results["spectrum"] = spectrum(op)
        results["strip"] = {"column": column, "width": width, "full_column": width == n_rows,
                            "d_eff": math.isqrt(op.matrix.shape[0])}
    return results


def _gap_payload(rep) -> dict:
    out = {
        "chain_length": rep.chain_length,
        "ground_energy": rep.ground_energy,
        "gap": rep.gap,
        "ground_fidelity": rep.ground_fidelity,
    }
    if rep.uniform_min_gap is not None:
        out["uniform_min_gap"] = rep.uniform_min_gap
    if rep.warning:
        out["warning"] = rep.warning
    # gap scans are numerical evidence for a uniform gap, not a proof
    out["note"] = "finite-size scan; evidence only"
    return out


def _cmd_parent_gap(args) -> dict:
    peps = read_peps(args.peps)
    max_n = args.max_n if args.max_n is not None else peps.lattice.n_sites
    rep = uniform_gap_scan(peps, max_n)
    return {
        "parent_gap": _gap_payload(rep),
        "timings": {f"{stage}_ms": t * 1e3 for stage, t in rep.stage_times.items()},
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; its callers share it and do not change it."""
    parser = argparse.ArgumentParser(prog="pepskit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pepskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a PEPS file")
    p.add_argument("kind", choices=["product", "perturbed", "aklt"])
    p.add_argument("--lattice", default="3x3", help="extents like 3x3 or 8 (1D)")
    p.add_argument("--phys-dim", type=int, default=2)
    p.add_argument("--bond-dim", type=int, default=2)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=8, help="chain length for aklt")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen, writes_doc=False)

    p = sub.add_parser("estimate", help="patch estimate of a local observable")
    p.add_argument("peps")
    p.add_argument("--obs", required=True, help="preset name or observable file")
    p.add_argument("--site", help="support site for preset observables, e.g. 2,2")
    p.add_argument("--ell", type=int, help="fixed patch radius")
    p.add_argument("--epsilon", type=float, help="adaptive target accuracy")
    p.add_argument("--gap", type=float, help="spectral gap for the bound (null unless all three given)")
    p.add_argument("--kappa-star", type=float, help="condition bound for the bound report")
    p.add_argument("--constant", type=float, help="clustering-rate constant c")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_estimate, writes_doc=True)

    p = sub.add_parser("oracle", help="exact expectation value (exponential cost)")
    p.add_argument("peps")
    p.add_argument("--obs", required=True)
    p.add_argument("--site")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_oracle, writes_doc=True)

    p = sub.add_parser("transfer", help="transfer-operator spectrum and correlations")
    p.add_argument("peps")
    p.add_argument("--site-index", type=int, help="1D: chain site for the transfer operator")
    p.add_argument("--column", type=int, help="2D: strip column")
    p.add_argument("--width", type=int, help="2D: strip width (rows)")
    p.add_argument("--obs-a", help="1D: dressing operator A (preset)")
    p.add_argument("--obs-b", help="1D: dressing operator B (preset)")
    p.add_argument("--length", type=int, help="1D: line length L (default 64)")
    p.add_argument("--x-range", help="1D: separations lo:hi (default 1:4)")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_transfer, writes_doc=True)

    p = sub.add_parser("parent-gap", help="parent-Hamiltonian uniform gap scan (1D)")
    p.add_argument("peps")
    p.add_argument("--max-n", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_parent_gap, writes_doc=True)

    return parser


def _config_echo(args) -> dict:
    skip = {"func", "writes_doc", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    t0 = time.perf_counter()
    out_path = args.out if args.writes_doc else None
    try:
        results = args.func(args)
        if args.writes_doc:
            # A command may return its stage timings under "timings".
            timings = results.pop("timings", {})
            timings["total_ms"] = (time.perf_counter() - t0) * 1e3
            doc = result_document(args.command, _config_echo(args), results, timings=timings)
            _emit(doc, out_path)
        else:
            print(json.dumps(results), file=sys.stderr)
    except (PepskitError, np.linalg.LinAlgError, OSError) as exc:
        if isinstance(exc, PepskitError):
            name = exc.code
        else:
            name = "numerical" if isinstance(exc, np.linalg.LinAlgError) else "io"
        code = {"budget": EXIT_BUDGET, "numerical": EXIT_NUMERICAL}.get(name, EXIT_INPUT)
        if out_path:
            doc = result_document(
                args.command,
                _config_echo(args),
                {"error": {"code": name, "message": str(exc)}},
            )
            try:
                write_document(doc, out_path)
            except OSError:
                pass
        print(f"error[{name}]: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
