"""Command line front end.

Four subcommands: synth runs the synthesis loop on a model and spec file,
check evaluates explicitly given controllers, enumerate lists satisfying
family members, generate writes a built-in benchmark to disk.

Exit codes: 0 satisfiable / success, 1 unsatisfiable or a violated check,
2 malformed input, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import DEFAULT_TOL, compile_model
from .benchmarks import BENCHMARKS, generate as make_benchmark
from .errors import (
    ConstraintError,
    HypersynthError,
    LimitExceeded,
    ModelError,
    ParseError,
    SpecError,
)
from .family import build_parameter_space
from .model import unfold_memory
from .specs import DEFAULT_EQ_EPS, lift_spec_memory
from .synthesis import check_member, instantiate, satisfying_realisations, synthesize
from .textio import (
    format_atom,
    parse_controller,
    parse_model,
    parse_spec,
    write_model,
    write_spec,
    write_stats,
)


def _add_common(p):
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--spec", required=True, help="specification file")
    p.add_argument("--eps-eq", type=float, default=DEFAULT_EQ_EPS,
                   help="default tolerance for = comparisons")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypersynth",
        description="controller family synthesis for probabilistic hyperproperties",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="search the family for satisfying controllers")
    _add_common(sp)
    sp.add_argument("--mode", choices=("feasibility", "complete", "optimal"),
                    default="feasibility")
    sp.add_argument("--method", choices=("ar", "hybrid", "oracle"), default="ar")
    sp.add_argument("--memory-bits", type=int, default=0,
                    help="unfold this many bits of controller memory first")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help="numeric tolerance of the value iteration")
    sp.add_argument("--max-iters", type=int, default=None,
                    help="abort after this many iterations: refinement steps "
                         "plus members settled by the enumerator")
    sp.add_argument("--time-limit", type=float, default=None,
                    help="abort after this many seconds")
    sp.add_argument("--stats-out", default=None,
                    help="write run statistics to this JSON file")

    cp = sub.add_parser("check", help="evaluate explicitly given controllers")
    _add_common(cp)
    cp.add_argument("--controller", action="append", required=True,
                    metavar="FILE", help="controller file, one per quantified controller")

    ep = sub.add_parser("enumerate", help="list all satisfying family members")
    _add_common(ep)
    ep.add_argument("--limit", type=int, default=None,
                    help="stop after this many satisfying members")

    gp = sub.add_parser("generate", help="write a built-in benchmark to disk")
    gp.add_argument("--bench", required=True, choices=BENCHMARKS)
    gp.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                    help="benchmark parameter, repeatable")
    gp.add_argument("--out-model", default=None, help="model output path (default stdout)")
    gp.add_argument("--out-spec", default=None, help="spec output path (default stdout)")
    return ap


def _load(args):
    with open(args.model, encoding="utf-8") as fh:
        m = parse_model(fh.read(), source=args.model)
    with open(args.spec, encoding="utf-8") as fh:
        spec = parse_spec(fh.read(), source=args.spec)
    return m, spec


def _describe_controller(m, name, ctrl) -> str:
    picks = [
        f"{s}={m.action_name(s, ctrl[s]) or ctrl[s]}"
        for s in range(m.num_states)
        if m.num_actions(s) > 1
    ]
    return f"  {name}: " + (" ".join(picks) if picks else "(no choices)")


def _cmd_synth(args) -> int:
    m, spec = _load(args)
    if args.memory_bits:
        m = unfold_memory(m, args.memory_bits)
        spec = lift_spec_memory(spec, args.memory_bits)

    try:
        out = synthesize(
            m, spec,
            mode=args.mode, method=args.method,
            tol=args.tol, eps_eq=args.eps_eq,
            max_iters=args.max_iters, time_limit=args.time_limit,
        )
    except LimitExceeded as e:
        print(f"aborted: {e}", file=sys.stderr)
        stats = getattr(e, "stats", None)
        if args.stats_out and stats is not None:
            stats["limit"] = str(e)
            with open(args.stats_out, "w", encoding="utf-8") as fh:
                fh.write(write_stats(stats))
        return 3

    st = out.stats
    print(f"verdict: {out.verdict}")
    print(f"family size: {st['family_size']}, explored {st['explored']} "
          f"({st['explored_fraction']:.3f}) in {st['iterations']} iterations, "
          f"{st['splits']} splits, {st['ce_prunes']} conflict prunes, "
          f"{st['wall_time_s']:.3f}s")
    if out.feasible and out.witness is not None:
        print(f"witness realisation: {list(out.realisation)}")
        for i, name in enumerate(spec.controller_names):
            print(_describe_controller(m, name, out.witness[i]))
    if args.mode == "complete":
        print(f"satisfying members: {st['satisfying_count']}")
    if args.mode == "optimal" and out.optimal_value is not None:
        print(f"largest decision distance: {out.optimal_value}")
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            fh.write(write_stats(st))
    return 0 if out.feasible else 1


def _resolve_action(m, s, token, source):
    if token.isdigit():
        a = int(token)
        if a >= m.num_actions(s):
            raise ParseError(f"state {s} has no action ordinal {a}", source, 0, 0)
        return a
    for a in range(m.num_actions(s)):
        if m.action_name(s, a) == token:
            return a
    raise ParseError(f"state {s} has no action named {token!r}", source, 0, 0)


def _cmd_check(args) -> int:
    m, spec = _load(args)
    if len(args.controller) != spec.n_controllers:
        raise SpecError(
            f"spec quantifies {spec.n_controllers} controller(s), "
            f"got {len(args.controller)} --controller file(s)"
        )

    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    assigned: dict[tuple[int, int], int] = {}
    for slot, path in enumerate(args.controller):
        with open(path, encoding="utf-8") as fh:
            entries = parse_controller(fh.read(), source=path)
        for s, token in entries.items():
            if s >= m.num_states:
                raise ParseError(f"state {s} out of range", path, 0, 0)
            assigned[(slot, s)] = _resolve_action(m, s, token, path)

    # project the explicit choices onto parameter classes; members of one
    # class must not contradict each other
    realisation = []
    for k, members in enumerate(space.members):
        picks = {}
        for slot, s in members:
            if (slot, s) in assigned:
                picks[(slot, s)] = assigned[(slot, s)]
        distinct = sorted(set(picks.values()))
        if len(distinct) > 1:
            detail = ", ".join(
                f"controller {spec.controller_names[slot]} state {s} -> {a}"
                for (slot, s), a in sorted(picks.items())
            )
            print(f"structural violation: tied states disagree ({detail})")
            return 1
        realisation.append(distinct[0] if distinct else 0)
    realisation = tuple(realisation)

    formula = instantiate(spec, m, args.eps_eq)
    res = check_member(compile_model(m, space), formula, realisation)
    for i, atom in enumerate(formula.atoms):
        lv, rv, ok = res.atom_values[i]
        print(f"  {format_atom(atom)}: left={lv:.10g} right={rv:.10g} "
              f"{'ok' if ok else 'VIOLATED'}")
    print(f"verdict: {'satisfied' if res.holds else 'violated'}")
    return 0 if res.holds else 1


def _cmd_enumerate(args) -> int:
    m, spec = _load(args)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    found = 0
    for real in satisfying_realisations(m, space, instantiate(spec, m, args.eps_eq)):
        found += 1
        print(" ".join(map(str, real)), flush=True)
        if args.limit is not None and found >= args.limit:
            break
    print(f"satisfying members: {found} (family size {space.family_size()})",
          file=sys.stderr)
    return 0 if found else 1


def _parse_params(pairs):
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SpecError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def _cmd_generate(args) -> int:
    m, spec = make_benchmark(args.bench, **_parse_params(args.param))
    model_text = write_model(m)
    spec_text = write_spec(spec)
    if args.out_model:
        with open(args.out_model, "w", encoding="utf-8") as fh:
            fh.write(model_text)
    else:
        sys.stdout.write(model_text)
    if args.out_spec:
        with open(args.out_spec, "w", encoding="utf-8") as fh:
            fh.write(spec_text)
    else:
        sys.stdout.write(spec_text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "check": _cmd_check,
        "enumerate": _cmd_enumerate,
        "generate": _cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpecError, ModelError, ConstraintError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimitExceeded as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HypersynthError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
