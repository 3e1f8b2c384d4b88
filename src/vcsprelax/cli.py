"""Command line driver.

Five commands: analyze (language algebra), relax (LP or SDP bound for
one instance), reduce (instance transformations), verify (replay of a
transformation's audit plus a transport attempt), gapsearch (random
probes for relaxation gaps).  Reports are flat "key = value" lines on
stdout, opening with an echo of the resolved configuration so a run can
be reproduced from its own output.  Exact rationals print bare; floats
carry a "(float, eps = ...)" tag so the two never mix silently.

Exit codes: 0 success, 2 parse or configuration error, 3 cap exceeded,
4 solver non-convergence.

Interpretation map files (for reduce/verify --type interp) look like

    dim 2
    s 0 0 : 0
    s 1 2 : 1

declaring the encoding dimension, the admissible host tuples, and the
source label each one decodes to.  Gadget files follow the shared
gadget format; a relation gadget's target name picks the source
relation it simulates.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .algebra import bwc_report, compute_core
from .equations import build_equation_language, gap_search, make_group
from .errors import CapExceeded, NonConvergence, ParseError, VcspError
from .fileformat import (
    parse_gadget,
    parse_instance,
    parse_language,
    serialize_instance,
    serialize_language,
)
from .lasserre import (
    ROW_CAP,
    NumericallyInfeasible,
    build_las,
    judge_gap,
    solve_sdp,
)
from .model import ConstraintLanguage, brute_force_opt
from .reductions import (
    Interpretation,
    _language_arity,
    apply_interpretation,
    oracle_value_identity,
    reduce_equality,
    reduce_expressibility,
    reduce_feas,
    reduce_opt,
    transport_solution,
    verify_reduction,
)
from .sherali_adams import COLUMN_CAP, build_sa, solve_lp_exact
from .values import format_value

DEFAULT_ENUM_CAP = 10 ** 7


def _fmt(value) -> str:
    if hasattr(value, "is_finite"):
        return format_value(value)
    return str(value)


def _fmt_float(x: float, eps: float) -> str:
    return f"{x!r} (float, eps = {eps!r})"


def _rho_schedule_line(sol) -> str:
    return "rho schedule = " + " ".join(
        f"{it}:{rho!r}" for it, rho in sol.rho_schedule)


def _config_lines(args) -> list:
    out = []
    for key in sorted(vars(args)):
        if key == "func":
            continue
        val = getattr(args, key)
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        out.append(f"config {key} = {val if val is not None else 'none'}")
    return out


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise VcspError(f"cannot read {path}: {e}")


def _write_dump(out_dir, name, lines) -> str:
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _oracle(instance, cap):
    try:
        return brute_force_opt(instance, cap=cap)[0]
    except CapExceeded:
        return None


def cmd_analyze(args) -> list:
    lang = parse_language(_read(args.language))
    lines = []
    core, _ = compute_core(lang)
    lines.append(f"core = {'yes' if core.is_core else 'no'}")
    lines.append(
        f"core domain = {','.join(str(x) for x in core.core_domain)}")
    if not core.is_core:
        for x in sorted(core.restriction_map):
            lines.append(f"core map {x} = {core.restriction_map[x]}")
    bwc = bwc_report(lang, m_max=args.m_max)
    for m in sorted(bwc.verdicts):
        lines.append(f"bwc {m} = {bwc.verdicts[m]}")
    lines.append(f"bwc summary = {bwc.summary}")
    v = bwc.first_violation
    if v is not None:
        lines.append(
            f"verdict = BWC violated at arity {v}: "
            "linear relaxation levels required")
    elif all(s == "satisfied" for s in bwc.verdicts.values()):
        lines.append(
            f"verdict = SA(3)-solvable (BWC satisfied up to {args.m_max})")
    else:
        lines.append("verdict = inconclusive (BWC undecided within caps)")
    lines.append(f"caveat = BWC checked up to arity {args.m_max} only")
    return lines


def cmd_relax(args) -> list:
    lang = parse_language(_read(args.language))
    inst = parse_instance(_read(args.instance), lang)
    cap = args.cap_enum
    lines = [f"vars = {inst.num_vars}",
             f"constraints = {len(inst.constraints)}",
             f"level = {args.level}"]
    vcsp = _oracle(inst, cap)
    lines.append(f"vcsp_opt = {_fmt(vcsp) if vcsp is not None else 'unknown (enumeration over cap)'}")

    if args.mode == "sa":
        lines.append(f"column cap = {COLUMN_CAP}")
        model = build_sa(inst, args.level, args.subsets)
        sol = solve_lp_exact(model)
        lines.append(f"lp_opt = {_fmt(sol.value)}")
        lines.append(f"status = {sol.status}")
        lines.append(f"pivots = {sol.pivots}")
        lines.append(f"lp path = {sol.path}")
        lines.append("certificate = "
                     + (sol.certificate.kind if sol.certificate else "none"))
        if vcsp is None:
            lines.append("gap = unknown")
        else:
            lines.append(f"gap = {'GAP' if sol.value < vcsp else 'NO GAP'}")
        if args.out_dir:
            dump = []
            for (i, sigma), frac in sorted(sol.lam.items()):
                label = ",".join(str(x) for x in sigma)
                dump.append(f"lambda {i} {label} {frac}")
            lines.append("dump = " + _write_dump(
                args.out_dir, "sa_solution.txt", dump))
        return lines

    lines.append(f"row cap = {ROW_CAP}")
    model = build_las(inst, args.level, args.subsets)
    sol = solve_sdp(model, eps=args.eps, max_iter=args.max_iter)
    lines.append(f"gram dimension = {model.num_rows}")
    lines.append("face dimension = "
                 + ("none" if sol.face_dim is None else str(sol.face_dim)))
    if isinstance(sol, NumericallyInfeasible):
        lines.append("sdp_opt = inf")
        lines.append("status = infeasible")
        lines.append(f"stop = {sol.stop}")
        lines.append(f"certificate bound = {sol.bound!r}")
        lines.append(f"certificate checks = {sol.checks}")
        lines.append(f"iterations = {sol.iterations}")
        lines.append(_rho_schedule_line(sol))
        lines.append(f"displacement = {sol.displacement!r}")
        if vcsp is None:
            lines.append("gap = unknown")
        else:
            lines.append("gap = NO GAP")
        return lines
    lines.append(f"sdp_opt = {_fmt_float(sol.objective, args.eps)}")
    lines.append("status = converged")
    lines.append(f"stop = {sol.stop}")
    lines.append(f"certificate checks = {sol.checks}")
    lines.append(f"iterations = {sol.iterations}")
    lines.append(_rho_schedule_line(sol))
    for key in sorted(sol.residuals):
        lines.append(f"residual {key} = {sol.residuals[key]!r}")
    if vcsp is None:
        lines.append("gap = unknown")
    else:
        verdict, _, _ = judge_gap(
            sol, model, float(vcsp.frac) if vcsp.is_finite else float("inf"))
        lines.append("gap = " + {
            "gap": "GAP", "no-gap": "NO GAP",
            "inconclusive": "inconclusive (re-verification failed)"}[verdict])
    if args.out_dir:
        dump = []
        n = sol.M.shape[0]
        for r in range(n):
            for c in range(r + 1):
                dump.append(f"gram {r} {c} {float(sol.M[r, c])!r}")
        dump.append(f"psd-mineig {sol.residuals['min_eig']!r}")
        lines.append("dump = " + _write_dump(
            args.out_dir, "las_solution.txt", dump))
    return lines


def _parse_interp_map(text: str):
    dim = None
    s_tuples = []
    h_map = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None or len(parts) != 2:
                raise ParseError(line_no, "expected a single 'dim <p>' line")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad dimension {parts[1]!r}")
        elif parts[0] == "s":
            if dim is None:
                raise ParseError(line_no, "'dim <p>' must come first")
            if ":" not in line:
                raise ParseError(line_no, "expected 's <labels> : <label>'")
            lhs, _, rhs = line.partition(":")
            toks = lhs.split()[1:]
            if len(toks) != dim:
                raise ParseError(
                    line_no, f"tuple has {len(toks)} labels, dim is {dim}")
            try:
                tup = tuple(int(t) for t in toks)
                val = int(rhs.strip())
            except ValueError:
                raise ParseError(line_no, "labels must be integers")
            s_tuples.append(tup)
            h_map[tup] = val
        else:
            raise ParseError(line_no, f"unexpected line {raw!r}")
    if dim is None or not s_tuples:
        raise ParseError(1, "interpretation map needs 'dim' and 's' lines")
    return dim, s_tuples, h_map


def _build_trace(args, lang, inst):
    kind = args.type
    if kind == "express":
        if not args.gadget:
            raise VcspError("--type express needs at least one --gadget")
        gadgets = {}
        for path in args.gadget:
            g = parse_gadget(_read(path), lang)
            gadgets[g.target_name] = g
        return reduce_expressibility(inst, gadgets)
    if kind == "eq":
        return reduce_equality(inst)
    if kind == "interp":
        need = (args.interp_map, args.phi_s_gadget, args.eq_gadget)
        if any(x is None for x in need):
            raise VcspError(
                "--type interp needs --interp-map, --phi-s-gadget and "
                "--eq-gadget")
        host = parse_language(_read(args.host_language)) \
            if args.host_language else lang
        dim, s_tuples, h_map = _parse_interp_map(_read(args.interp_map))
        phi_s = parse_gadget(_read(args.phi_s_gadget), host)
        eq_g = parse_gadget(_read(args.eq_gadget), host)
        rel_gadgets = {}
        for path in args.relation_gadget or []:
            g = parse_gadget(_read(path), host)
            if g.target_name not in lang:
                raise VcspError(
                    f"relation gadget targets unknown relation "
                    f"{g.target_name!r}")
            rel_gadgets[g.target_name] = (lang.get(g.target_name), g)
        interp = Interpretation(dim, s_tuples, h_map, lang.domain_size,
                                phi_s, eq_g, rel_gadgets)
        return apply_interpretation(interp, inst)
    if kind in ("opt", "feas"):
        if not args.phi:
            raise VcspError(f"--type {kind} needs --phi <relation name>")
        if args.phi not in lang:
            raise VcspError(f"unknown relation {args.phi!r}")
        fn = reduce_opt if kind == "opt" else reduce_feas
        return fn(inst, lang.get(args.phi))
    raise VcspError(f"unknown reduction type {kind!r}")


def _trace_lines(trace, cap_enum) -> list:
    lines = [f"kind = {trace.kind}",
             f"pieces = {len(trace.pieces)}",
             f"produced vars = {trace.produced.num_vars}",
             f"produced constraints = {len(trace.produced.constraints)}",
             f"value scale = {trace.value_scale}",
             f"value offset = {trace.value_offset}",
             f"residue window = [{trace.residue_lo}, {trace.residue_hi}]"]
    for note in trace.notes:
        lines.append(f"note = {note}")
    try:
        ok, msg = oracle_value_identity(trace, cap=cap_enum)
        lines.append(f"oracle identity = {'ok' if ok else 'FAIL'} ({msg})")
    except CapExceeded:
        lines.append("oracle identity = skipped (enumeration over cap)")
    return lines


def _produced_language(instance) -> ConstraintLanguage:
    lang = ConstraintLanguage(instance.domain_size)
    for rel in instance.relations():
        if rel.name not in lang:
            lang.add(rel)
    return lang


def cmd_reduce(args) -> list:
    lang = parse_language(_read(args.language))
    inst = parse_instance(_read(args.instance), lang)
    trace = _build_trace(args, lang, inst)
    lines = _trace_lines(trace, args.cap_enum)
    if args.out_dir:
        lines.append("instance file = " + _write_dump(
            args.out_dir, "reduced_instance.txt",
            serialize_instance(trace.produced).splitlines()))
        lines.append("language file = " + _write_dump(
            args.out_dir, "reduced_language.txt",
            serialize_language(_produced_language(trace.produced))
            .splitlines()))
    return lines


def cmd_verify(args) -> list:
    lang = parse_language(_read(args.language))
    inst = parse_instance(_read(args.instance), lang)
    trace = _build_trace(args, lang, inst)
    lines = _trace_lines(trace, args.cap_enum)
    report = verify_reduction(trace, sample_budget=args.cap_enum)
    lines.extend(report.as_lines())
    kprime = args.transport_level if args.transport_level is not None else 1
    try:
        k = max(kprime, _language_arity(trace.produced)) \
            * _language_arity(trace.source)
        model = build_las(trace.source, 2 * k)
        lam = solve_sdp(model, eps=args.eps, max_iter=args.max_iter)
        if isinstance(lam, NumericallyInfeasible):
            lines.append("transport = skipped (source relaxation infeasible)")
            return lines
        kap = transport_solution(trace, lam, kprime)
        lines.append(f"transport source level = {2 * k}")
        lines.append(f"transport produced level = {kprime}")
        lines.append(f"transport eps = {kap.eps!r}")
        for key in sorted(kap.residuals):
            lines.append(f"transport {key} = {kap.residuals[key]!r}")
        lines.append(
            f"transport objective = {_fmt_float(kap.objective, kap.eps)}")
        lines.append(
            f"transport source objective = "
            f"{_fmt_float(lam.objective, lam.eps)}")
        # condition (b) bounds each piece by its scaled source value, so
        # the produced objective stays within the trace's value relation
        bound = (float(trace.value_scale) * lam.objective
                 + float(trace.value_offset + trace.residue_hi))
        ok = (kap.within_tolerance() and kap.objective
              <= bound + 10 * kap.eps * max(1.0, abs(bound)))
        lines.append(f"transport ok = {ok}")
    except (CapExceeded, NonConvergence, VcspError) as e:
        lines.append(f"transport = skipped ({e})")
    return lines


def cmd_gapsearch(args) -> list:
    group = make_group(args.group)
    if args.family == "tseitin":
        n_values = [n for n in range(args.n_min, args.n_max + 1)
                    if n % 3 == 0 and n >= 6]
    else:
        n_values = [n for n in range(args.n_min, args.n_max + 1) if n >= 3]
    if not n_values:
        raise VcspError(
            f"no admissible variable counts in {args.n_min}..{args.n_max} "
            f"for family {args.family}")
    reports = gap_search(group, args.level, n_values, family=args.family,
                         count=args.count, seed=args.seed,
                         density=args.density, eps=args.eps,
                         max_iter=args.max_iter)
    lines = []
    counts = {"gap": 0, "no-gap": 0, "inconclusive": 0}
    for i, rep in enumerate(reports):
        counts[rep.verdict] += 1
        for entry in rep.as_lines():
            lines.append(f"report {i} {entry}")
        if args.out_dir:
            lines.append(f"report {i} instance = " + _write_dump(
                args.out_dir, f"gap_instance_{i}.txt",
                serialize_instance(rep.instance).splitlines()))
    if args.out_dir:
        lang = ConstraintLanguage(group.order)
        for rel in build_equation_language(group, 3).relations().values():
            lang.add(rel)
        lines.append("language file = " + _write_dump(
            args.out_dir, "gapsearch_language.txt",
            serialize_language(lang).splitlines()))
    for verdict in ("gap", "no-gap", "inconclusive"):
        lines.append(f"total {verdict} = {counts[verdict]}")
    return lines


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # gives each call a fresh namespace
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--level", type=int, default=2,
                        help="relaxation level k (default: 2)")
    shared.add_argument("--mode", choices=("sa", "las"), default="sa",
                        help="relaxation family (default: sa)")
    shared.add_argument("--eps", type=float, default=1e-7,
                        help="SDP target tolerance (default: 1e-7)")
    shared.add_argument("--max-iter", type=int, default=50000,
                        help="SDP iteration budget (default: 50000)")
    shared.add_argument("--seed", type=int, default=0,
                        help="RNG seed for generators (default: 0)")
    shared.add_argument("--subsets", choices=("full", "scopes"),
                        default="full",
                        help="null-block scope pool (default: full)")
    shared.add_argument("--out-dir", default=None,
                        help="directory for solution and instance dumps "
                             "(default: no dumps)")
    shared.add_argument("--cap-enum", type=int, default=DEFAULT_ENUM_CAP,
                        help="brute-force enumeration cap (default: 10^7)")

    parser = argparse.ArgumentParser(
        prog="vcsprelax",
        description="Exact LP and numeric SDP relaxation analysis for "
                    "general-valued CSPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[shared],
                       help="language algebra: core and width criterion")
    p.add_argument("--language", required=True, help="language file")
    p.add_argument("--m-max", type=int, default=4,
                   help="largest arity checked for BWC (default: 4)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("relax", parents=[shared],
                       help="LP or SDP bound for one instance")
    p.add_argument("--language", required=True, help="language file")
    p.add_argument("--instance", required=True, help="instance file")
    p.set_defaults(func=cmd_relax)

    for name, fn in (("reduce", cmd_reduce), ("verify", cmd_verify)):
        p = sub.add_parser(
            name, parents=[shared],
            help="apply a reduction" if name == "reduce"
            else "replay a reduction's audit and transport")
        p.add_argument("--language", required=True, help="language file")
        p.add_argument("--instance", required=True, help="instance file")
        p.add_argument("--type", required=True,
                       choices=("express", "eq", "interp", "opt", "feas"))
        p.add_argument("--gadget", action="append", default=[],
                       help="gadget file (repeatable; express)")
        p.add_argument("--phi", default=None,
                       help="relation name (opt/feas)")
        p.add_argument("--host-language", default=None,
                       help="language for interp gadget bodies "
                            "(default: the instance language)")
        p.add_argument("--interp-map", default=None,
                       help="interpretation map file (interp)")
        p.add_argument("--phi-s-gadget", default=None,
                       help="membership gadget file (interp)")
        p.add_argument("--eq-gadget", default=None,
                       help="decoding equality gadget file (interp)")
        p.add_argument("--relation-gadget", action="append", default=[],
                       help="relation gadget file (repeatable; interp)")
        if name == "verify":
            p.add_argument("--transport-level", type=int, default=None,
                           help="produced-side level for the transport "
                                "check (default: 1)")
        p.set_defaults(func=fn)

    p = sub.add_parser("gapsearch", parents=[shared],
                       help="probe random instances for relaxation gaps")
    p.add_argument("--group", required=True,
                   help="group spec such as Z2 or Z2xZ4")
    p.add_argument("--family", choices=("tseitin", "kxor"),
                   default="tseitin")
    p.add_argument("--n-min", type=int, required=True,
                   help="smallest variable count")
    p.add_argument("--n-max", type=int, required=True,
                   help="largest variable count")
    p.add_argument("--count", type=int, default=5,
                   help="instances per variable count (default: 5)")
    p.add_argument("--density", type=float, default=4.0,
                   help="kxor constraints per variable (default: 4.0)")
    p.set_defaults(func=cmd_gapsearch)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lines = _config_lines(args) + args.func(args)
    except ParseError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except NonConvergence as e:
        sys.stderr.write(f"error: {e}\n")
        return 4
    except (VcspError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
