"""Command-line front end.

Subcommands: ``region`` (trace the achievable rate region of a channel set
and emit CSV corners plus an SVG staircase), ``simulate`` (sample hybrid
codes and report fidelities, rate caps and the inequality-chain audit),
``verify`` (run the property suites) and ``net`` (greedy covering of a
channel set).

All diagnostics go to stderr; data lands only in the requested output
files. They are byte-identical for a fixed config and seed only while the
BLAS thread count (e.g. ``OPENBLAS_NUM_THREADS``) is fixed as well: another
count can change results in the last bits, which the full-precision
``simulate`` JSON shows. Exit codes: 0 ok, 1 a ``verify`` suite failed,
2 malformed input, 3 CPTP defect above 1e-6 in the input (smaller ones are
renormalized at load), 4 budget exceeded: no single array may hold more than
2^25 complex entries (``channels.BUDGET_ENTRIES``), and an oversized one is
refused before it is allocated, by a message that names it. Only ``region``
loads scipy.

Arguments are checked before any work starts, and a bad one exits 2:
``region --l`` takes one blocking level (``simulate --l`` takes a list),
the integer options ``--budget``, ``--alphabet``, ``--m1`` and ``--m2``
must be >= 1, every ``--seed`` must be >= 0, ``--theta`` (> 0) and ``--tol``
must be finite, each ``region --weights`` pair a:b must be finite, >= 0 and
not 0:0, and ``verify --suite`` must name at least one suite.

``simulate`` reports the seed with the largest worst-member fidelity; values
within a relative ``BEST_SEED_TIE_RTOL`` (1e-12, recorded in the report's
``config``) tie, and the earliest seed wins, so rounding cannot pick the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import codesim
from .channels import (
    BudgetExceededError,
    ChannelFormatError,
    CompoundSet,
    CptpError,
    CqChannel,
    build_net,
    dump_compound_json,
    load_compound_json,
)
from .qmatrix import DimensionMismatchError, maximally_mixed
from .regions import corners_csv, staircase_svg
from .suites import run_suites

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CPTP = 3
EXIT_BUDGET = 4
BEST_SEED_TIE_RTOL = 1e-12


def _parse_weights(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        try:
            pairs.append((float(a) + 0.0, float(b) + 0.0))  # + 0.0 turns -0.0 into 0.0
        except ValueError:
            raise argparse.ArgumentTypeError(f"weight {chunk!r} is not a pair a:b of numbers")
        if not (all(math.isfinite(w) and w >= 0 for w in pairs[-1]) and any(pairs[-1])):
            raise argparse.ArgumentTypeError(f"weight {chunk!r} must be finite, >= 0 and not 0:0")
    return tuple(pairs)


def _parse_l(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError("blocking levels must be >= 1")
    return vals


def _parse_level(text: str) -> int:
    vals = _parse_l(text)
    if len(vals) != 1:
        raise argparse.ArgumentTypeError(f"region traces one blocking level, got {text!r}")
    return vals[0]


def _checked(cast, accept, wanted: str):
    """An argparse type: ``cast`` the text, then refuse what ``accept`` rejects."""

    def parse(text: str):
        try:
            val = cast(text)
        except ValueError:
            val = None
        if val is None or not accept(val):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return val

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqmac",
        description="rate regions and hybrid code simulation for compound QMACs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="trace an achievable rate region")
    region.set_defaults(handler=cmd_region)
    region.add_argument("--input", required=True, help="channel set JSON")
    region.add_argument("--l", type=_parse_level, default="1", help="blocking level")
    region.add_argument("--budget", type=_positive_int, default=16, help="optimizer restarts")
    region.add_argument("--seed", type=_seed, default=0)
    region.add_argument(
        "--weights", type=_parse_weights, default="1:0,0:1,1:1", help="pairs a:b,..."
    )
    region.add_argument("--out-csv", required=True)
    region.add_argument("--out-svg", default=None)
    region.add_argument("--alphabet", type=_positive_int, default=None)

    sim = sub.add_parser("simulate", help="sample and evaluate hybrid codes")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--input", required=True, help="channel set JSON")
    sim.add_argument("--l", type=_parse_l, default="1", help="blocklengths, comma separated")
    sim.add_argument("--budget", type=_positive_int, default=20, help="number of seeds")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--m1", type=_positive_int, default=2)
    sim.add_argument("--m2", type=_positive_int, default=2)
    sim.add_argument("--out-json", required=True)
    sim.add_argument("--out-csv", default=None)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.set_defaults(handler=cmd_verify)
    verify.add_argument("--suite", action="append", default=None, help="suite name")
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--tol", type=_finite_float, default=None)

    net = sub.add_parser("net", help="greedy covering of a channel set")
    net.set_defaults(handler=cmd_net)
    net.add_argument("--input", required=True)
    net.add_argument("--theta", type=_positive_float, default=0.3)
    net.add_argument("--out-json", required=True)
    return parser


def _jsonable(obj):
    """Numpy scalars to plain python; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else repr(val)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _load_set(path: str) -> CompoundSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ChannelFormatError(f"cannot read '{path}': {exc}") from exc
    return load_compound_json(text)


def cmd_region(args: argparse.Namespace) -> int:
    from .optimizer import pareto_trace  # scipy loads here, for this command only

    cset = _load_set(args.input)
    result = pareto_trace(
        cset,
        args.l,
        args.weights,
        budget=args.budget,
        seed=args.seed,
        alphabet_size=args.alphabet,
    )
    rows = [
        (opt.rect.r1_max, opt.rect.r2_max, f"w{opt.weights[0]:g}:{opt.weights[1]:g}")
        for opt in result.optima
    ]
    Path(args.out_csv).write_text(corners_csv(rows), encoding="utf-8")
    if args.out_svg:
        Path(args.out_svg).write_text(
            staircase_svg(result.region, title="achievable rate region"),
            encoding="utf-8",
        )
    print(
        f"region: {len(result.optima)} corner(s), {result.evaluations} objective evals",
        file=sys.stderr,
    )
    converged = sum(1 for status in result.statuses if status == 0)
    print(f"region: {converged} of {len(result.statuses)} restarts converged", file=sys.stderr)
    return EXIT_OK


def _simulate_one(cset: CompoundSet, n: int, m1: int, m2: int, seeds: int, base_seed: int):
    member0 = cset.members[0]
    if len(member0.in_dims) != 2:
        raise DimensionMismatchError("compound members must have a two-part (A, B) input")
    da, db = member0.in_dims
    v = CqChannel.basis(da)
    p = np.full(da, 1.0 / da)
    b_channels = [codesim.effective_b_channel(m, p, v) for m in cset.members]
    a_families = [
        codesim.effective_a_outputs(m, v, maximally_mixed(db)) for m in cset.members
    ]
    runs = []
    best = None
    for idx in range(seeds):
        ss = np.random.SeedSequence([base_seed & 0xFFFFFFFFFFFFFFFF, n, idx])
        cb_seed, et_seed = (int(s) for s in ss.generate_state(2))
        et = codesim.sample_et_code(b_channels, db, n, m2, seed=et_seed)  # first: checks the budget
        cb = codesim.sample_cq_codebook(a_families, p, n, m1, seed=cb_seed)
        code = codesim.combine_hybrid(cb, et, v, member0)
        fids = [codesim.performance(code, m) for m in cset.members]
        runs.append(
            {
                "seed_index": idx,
                "codebook_seed": cb_seed,
                "encoder_seed": et_seed,
                "per_member_fidelity": dict(zip(cset.labels, fids)),
                "worst_fidelity": min(fids),
            }
        )
        best_fid = None if best is None else best[0]["worst_fidelity"]
        if best is None or min(fids) > best_fid + BEST_SEED_TIE_RTOL * abs(best_fid):
            best = (runs[-1], cb, et, code)
        del cb, et, code  # only the best seed's decoder stays alive while the next is sampled
    run, cb, et, code = best
    converse = codesim.converse_check(code, cset)
    chains = {}
    for label, member in zip(cset.labels, cset.members):
        rep = codesim.hybrid_chain_report(cb, et, v, member, p, code=code)
        chains[label] = {
            "violations": rep["violations"],
            "aggregate": rep["aggregate"],
            "reported_not_asserted": rep["reported_not_asserted"],
            "ambiguous_identities": rep["ambiguous_identities"],
        }
    return {
        "blocklength": n,
        "m1": m1,
        "m2": m2,
        "runs": runs,
        "best_seed_index": run["seed_index"],
        "best_worst_fidelity": run["worst_fidelity"],
        "mean_worst_fidelity": float(np.mean([r["worst_fidelity"] for r in runs])),
        "encoding_deviation_diagnostic": codesim.expected_encoding_deviation(
            db, n, m2, seed=base_seed, family_size=16
        ),
        "converse": converse,
        "chain": chains,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    cset = _load_set(args.input)
    blocks = []
    for n in args.l:
        blocks.append(
            _simulate_one(cset, n, args.m1, args.m2, args.budget, args.seed)
        )
        print(
            f"simulate: n={n} best worst-member fidelity "
            f"{blocks[-1]['best_worst_fidelity']:.6f}",
            file=sys.stderr,
        )
    report = {
        "config": {
            "input": args.input,
            "blocklengths": list(args.l),
            "m1": args.m1,
            "m2": args.m2,
            "seeds": args.budget,
            "base_seed": args.seed,
            "best_seed_tie_rtol": BEST_SEED_TIE_RTOL,
        },
        "blocks": blocks,
    }
    Path(args.out_json).write_text(
        json.dumps(_jsonable(report), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.out_csv:
        lines = ["n,best_fidelity,mean_fidelity"]
        for b in blocks:
            lines.append(
                f"{b['blocklength']},{b['best_worst_fidelity']:.12g},"
                f"{b['mean_worst_fidelity']:.12g}"
            )
        Path(args.out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = None
    if args.suite:
        names = []
        for entry in args.suite:
            names.extend(s.strip() for s in entry.split(",") if s.strip())
        if not names:
            print("error: --suite names no suite", file=sys.stderr)
            return EXIT_BAD_INPUT
    results = run_suites(args.seed, names=names, tol=args.tol)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: samples={res.samples} violations={res.violations} "
            f"worst_margin={res.worst_margin:.3e}",
            file=sys.stderr,
        )
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed", file=sys.stderr)
    return EXIT_OK if failed == 0 else 1


def cmd_net(args: argparse.Namespace) -> int:
    cset = _load_set(args.input)
    net = build_net(cset, args.theta)
    Path(args.out_json).write_text(dump_compound_json(net) + "\n", encoding="utf-8")
    print(
        f"net: kept {len(net.members)} of {len(cset.members)} members at theta={args.theta:g}",
        file=sys.stderr,
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CptpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CPTP
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ChannelFormatError, DimensionMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
