"""Command-line front end.

Exit codes: 0 = YES / Accept / success, 1 = NO / Reject, 2 = malformed or
unsupported input (a bad or negative budget or an unwritable output file
too), 3 = budget exceeded, 4 = internal error.  The first stdout line of `solve`, `verify` and `oracle`
is machine-parsable (YES / NO / Accept / Reject).  The budget of
`oracle` and `stats` is --budget when given, else the MATCHFLIP_BUDGET
environment variable when set, else oracle.DEFAULT_BUDGET.  The oracle
and the NCL reduction are imported by the commands that run them, so a
`solve` or `verify` process never loads them.

:func:`main` runs each command with the cyclic garbage collector paused
and restores it on every exit, which is safe because what a command builds
holds no reference cycle (reference counting frees it all); the library
functions leave the collector to their caller.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .cograph import is_cograph, solve_cograph
from .errors import (
    BudgetExceededError,
    MalformedInputError,
    MatchFlipError,
)
from .graph import MODE_FLIP, MODES, ReconfigSequence, _map_moves, verify_sequence
from .io import (
    Instance,
    dump_json,
    dumps_canonical,
    instance_to_dict,
    load_instance,
    load_ncl,
    load_sequence,
    sequence_to_dict,
)
from .outerplanar import is_outerplanar, solve_outerplanar, verify_boundary_order
from .strongly_orderable import solve_strongly_orderable, verify_strong_ordering

if TYPE_CHECKING:
    from . import oracle

EXIT_YES = 0
EXIT_NO = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget(args) -> int:
    from . import oracle

    budget, env = args.budget, os.environ.get("MATCHFLIP_BUDGET")
    if budget is None:
        try:
            budget = int(env) if env else oracle.DEFAULT_BUDGET
        except ValueError:
            raise MalformedInputError(f"MATCHFLIP_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise MalformedInputError(f"the budget (--budget or MATCHFLIP_BUDGET) is {budget}, below 0")
    return budget


def _mode(args) -> oracle.Mode:
    from . import oracle

    try:
        return oracle.Mode(args.mode, args.k)
    except ValueError as exc:  # --k without kflip; with kflip, none, odd or above the cap
        raise MalformedInputError(str(exc)) from None


def _labelled(inst: Instance, seq: ReconfigSequence, back: bool = False) -> ReconfigSequence:
    """``seq`` in the instance's labels, or with ``back`` from them (to a vertex
    beyond the graph for a label it lacks); ``seq`` itself for labels 0..n-1."""
    labels = inst.label_of
    if labels == tuple(range(len(labels))):
        return seq
    index = {lab: i for i, lab in enumerate(labels)}
    f = (lambda v: index.setdefault(v, len(index))) if back else labels.__getitem__
    return ReconfigSequence(seq.mode, tuple(_map_moves(seq.moves, f)), seq.k)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    g, hints = inst.graph, inst.hints
    # a valid boundary hint certifies outerplanarity, so recognition runs
    # without one; a failed one is an error only when solved as outerplanar
    bound = hints.get("boundary_order")
    bound_ok = bound is not None and verify_boundary_order(g, bound)
    cls = args.cls
    if cls == "auto":
        cls = ("cograph" if is_cograph(g)
               else "outerplanar" if bound_ok or is_outerplanar(g)
               else "strongly_orderable" if "strong_order" in hints else None)
        if cls is None:
            raise MalformedInputError(
                "no solver applies: not a cograph, not outerplanar, no strong_order hint"
            )
    if cls == "strongly_orderable":
        order = hints.get("strong_order")
        if order is None:
            raise MalformedInputError("strongly_orderable solver needs a strong_order hint")
        chk = verify_strong_ordering(g, order)
        if not chk.valid:
            raise MalformedInputError(
                f"strong_order hint is not a strong ordering (witness {chk.witness})"
            )
        yes, seq = True, solve_strongly_orderable(g, order, inst.m_ini, inst.m_tar)
    else:
        if cls == "outerplanar" and bound is not None and not bound_ok:
            raise MalformedInputError("boundary_order hint is not a valid boundary cycle")
        res = (solve_outerplanar if cls == "outerplanar" else solve_cograph)(g, inst.m_ini, inst.m_tar)
        yes, seq = res.yes, res.sequence
    if not yes:
        print("NO")
        return EXIT_NO
    verdict = verify_sequence(g, inst.m_ini, seq, inst.m_tar)
    if not verdict.ok:
        raise RuntimeError(f"internal: produced sequence fails verification: {verdict}")
    if args.emit_sequence:
        dump_json(args.emit_sequence, sequence_to_dict(_labelled(inst, seq)))
    print("YES")
    print(f"length {len(seq)}")
    return EXIT_YES


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    seq = _labelled(inst, load_sequence(args.sequence), back=True)
    if args.mode and args.mode != seq.mode:
        raise MalformedInputError(
            f"--mode {args.mode} does not match sequence mode {seq.mode}"
        )
    verdict = verify_sequence(inst.graph, inst.m_ini, seq, inst.m_tar)
    if verdict.ok:
        print("Accept")
        return EXIT_YES
    print(f"Reject step={verdict.step} reason={verdict.reason}")
    return EXIT_NO


def _cmd_oracle(args) -> int:
    from . import oracle

    inst = load_instance(args.instance)
    mode = _mode(args)
    res = oracle.reachable(
        inst.graph, inst.m_ini, inst.m_tar, mode,
        want_path=args.want_path or bool(args.emit_sequence), budget=_budget(args),
    )
    if not res.reachable:
        print("NO")
        return EXIT_NO
    body = {"distance": res.distance}
    if res.sequence is not None:
        body["sequence"] = sequence_to_dict(_labelled(inst, res.sequence))
        if args.emit_sequence:
            dump_json(args.emit_sequence, body["sequence"])
    print("YES")
    print(json.dumps(body, sort_keys=True))
    return EXIT_YES


def _cmd_stats(args) -> int:
    from . import oracle

    inst = load_instance(args.instance)
    mode = _mode(args)
    try:
        target = "perfect" if args.target == "perfect" else int(args.target)
    except ValueError:
        raise MalformedInputError(f'--target is "perfect" or a size, not {args.target!r}') from None
    if target != "perfect" and not 0 <= target <= inst.graph.n // 2:
        raise MalformedInputError(f"--target {target} is outside 0..{inst.graph.n // 2}")
    source = inst.m_ini if inst.m_ini else None
    st = oracle.reconfiguration_stats(
        inst.graph, target, mode, source=source, budget=_budget(args)
    )
    print(json.dumps(dataclasses.asdict(st), sort_keys=True))
    return EXIT_YES


def _cmd_gen_ncl(args) -> int:
    from .hardness import reduce_ncl_to_pmr, subdivide_for_kflip

    machine, c_ini, c_tar = load_ncl(args.machine)
    if c_ini is None or c_tar is None:
        raise MalformedInputError("machine file must carry c_ini and c_tar")
    inst = reduce_ncl_to_pmr(machine, c_ini, c_tar)
    if args.k is not None:
        inst = subdivide_for_kflip(inst, args.k)
    payload = instance_to_dict(inst.graph, inst.m_ini, inst.m_tar)
    _write_payload(args.out, payload)
    return EXIT_YES


def _cmd_gen_random(args) -> int:
    from . import generators

    fns = {  # each generator and the least n it builds from
        "interval": (generators.random_interval_instance, 0),
        "outerplanar": (generators.random_outerplanar_instance, 3),
        "cograph": (generators.random_cograph_instance, 1),
    }
    if args.cls not in fns:
        raise MalformedInputError(f"unknown class {args.cls!r}")
    fn, least = fns[args.cls]
    if args.n < least:
        raise MalformedInputError(f"--n must be at least {least} for {args.cls}, got {args.n}")
    payload = fn(args.n, args.seed)
    _write_payload(args.out, payload)
    return EXIT_YES


def _write_payload(out: Optional[str], payload: dict) -> None:
    if out and out != "-":
        dump_json(out, payload)
    else:
        sys.stdout.write(dumps_canonical(payload))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="matchflip",
        description="Flip-based reconfiguration of (perfect) matchings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a polynomial solver on an instance")
    s.add_argument("instance")
    s.add_argument(
        "--class", dest="cls", default="auto",
        choices=["auto", "strongly_orderable", "outerplanar", "cograph"],
    )
    s.add_argument("--emit-sequence", default=None)
    s.set_defaults(func=_cmd_solve)

    s = sub.add_parser("verify", help="check a sequence file against an instance")
    s.add_argument("instance")
    s.add_argument("sequence")
    s.add_argument("--mode", default=None, choices=MODES)
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("oracle", help="brute-force reachability (BFS)")
    s.add_argument("instance")
    s.add_argument("--mode", default=MODE_FLIP, choices=MODES)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--want-path", action="store_true")
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--emit-sequence", default=None, help="implies --want-path")
    s.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("stats", help="reconfiguration-graph statistics")
    s.add_argument("instance")
    s.add_argument("--mode", default=MODE_FLIP, choices=MODES)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--target", default="perfect", help='"perfect" or a size')
    s.add_argument("--budget", type=int, default=None)
    s.set_defaults(func=_cmd_stats)

    s = sub.add_parser("gen-ncl", help="reduce an NCL machine to an instance")
    s.add_argument("machine")
    s.add_argument("-o", "--out", default="-")
    s.add_argument("--k", type=int, default=None, help="subdivide for k-flip mode")
    s.set_defaults(func=_cmd_gen_ncl)

    s = sub.add_parser("gen-random", help="emit a random instance")
    s.add_argument("--class", dest="cls", required=True,
                   choices=["interval", "outerplanar", "cograph"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("-o", "--out", default="-")
    s.set_defaults(func=_cmd_gen_random)
    return p


_parser = functools.cache(build_parser)  # built once per process


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MalformedInputError, MatchFlipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a fault of ours must not read as NO (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
