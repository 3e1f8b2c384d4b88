"""Command-line interface: reports, dumps, exit codes.

Tests call cli.main(argv) in-process and pin exact report lines for
small deterministic inputs.  One subprocess test checks the module
entry point end to end.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import vcsprelax.cli as cli
import vcsprelax.lasserre as lasserre
import vcsprelax.simplex as simplex
from vcsprelax.cli import main
from vcsprelax.fileformat import parse_instance, parse_language
from vcsprelax.model import brute_force_opt
from vcsprelax.values import ExtValue

DEMO_LANG = """
domain 2
relation imp 2
1 0 : 1
default : 0
end
relation soft 1
0 : 2
1 : 1/3
end
relation eq 2
0 0 : 0
1 1 : 0
end
relation chain 2
1 0 : 1
default : 0
end
"""

# min over assignments of imp(x0,x1) + soft(x0): (1,1) gives 0 + 1/3
DEMO_INST = """
vars 2
constraint imp 0 1
constraint soft 0
"""

PARITY_LANG = """
domain 2
relation u0 1
0 : 0
end
relation u1 1
1 : 0
end
relation even3 3
0 0 0 : 0
0 1 1 : 0
1 0 1 : 0
1 1 0 : 0
end
relation odd3 3
0 0 1 : 0
0 1 0 : 0
1 0 0 : 0
1 1 1 : 0
end
"""

PAIR_LANG = """
domain 2
relation peven 2
0 0 : 0
1 1 : 0
end
relation podd 2
0 1 : 0
1 0 : 0
end
"""

# x0 = x1 and x0 != x1 together are unsatisfiable
PAIR_INST = """
vars 2
constraint peven 0 1
constraint podd 0 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


@pytest.fixture
def demo(tmp_path):
    return {
        "lang": _write(tmp_path, "lang.txt", DEMO_LANG),
        "inst": _write(tmp_path, "inst.txt", DEMO_INST),
        "dir": tmp_path,
    }


def test_relax_sa_report(capsys, demo):
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "sa", "--level", "2"],
    )
    assert rc == 0
    # config echo comes first, sorted by key
    assert out[0] == "config cap_enum = 10000000"
    assert "config command = relax" in out
    assert "config level = 2" in out
    assert "config out_dir = none" in out
    assert "vars = 2" in out
    assert "constraints = 2" in out
    assert "vcsp_opt = 1/3" in out
    assert "column cap = 1000000" in out
    assert "lp_opt = 1/3" in out
    assert "status = optimal" in out
    assert "gap = NO GAP" in out
    # the rounded HiGHS optimum passes the exact check with its dual
    assert "pivots = 0" in out
    assert "lp path = certified" in out
    assert "certificate = dual" in out


def test_relax_sa_dump(capsys, demo):
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "sa", "--level", "1",
         "--out-dir", str(demo["dir"] / "sa_out")],
    )
    assert rc == 0
    dump = (demo["dir"] / "sa_out" / "sa_solution.txt").read_text().splitlines()
    assert dump[0] == "lambda 0 0,0 0"
    total = Fraction(0)
    for line in dump:
        tok = line.split()
        assert len(tok) == 4 and tok[0] == "lambda"
        if tok[1] == "0":
            total += Fraction(tok[3])
    # block 0 carries a probability distribution over its assignments
    assert total == 1


def test_relax_las_report_and_dump(capsys, demo):
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "las", "--level", "2",
         "--out-dir", str(demo["dir"] / "las_out")],
    )
    assert rc == 0
    assert "row cap = 4000" in out
    assert "status = converged" in out
    assert "gram dimension = 9" in out
    assert "face dimension = 4" in out
    assert "gap = NO GAP" in out
    (sdp_line,) = [l for l in out if l.startswith("sdp_opt = ")]
    assert sdp_line.endswith("(float, eps = 1e-07)")
    value = float(sdp_line.split()[2])
    assert abs(value - 1 / 3) < 1e-4
    for key in ("unit", "min_eig", "negativity", "zero_ties"):
        assert any(l.startswith(f"residual {key} = ") for l in out), key
    dump = (demo["dir"] / "las_out" / "las_solution.txt").read_text().splitlines()
    assert dump[0] == "gram 0 0 1.0"
    assert dump[-1].startswith("psd-mineig ")
    for line in dump[:-1]:
        tok = line.split()
        assert tok[0] == "gram"
        r, c = int(tok[1]), int(tok[2])
        assert r >= c  # lower triangle only
        float(tok[3])


def test_relax_parity_pair_levels(capsys, tmp_path):
    # equality plus disequality on the same pair: no assignment works,
    # but the level-1 relaxation still spreads mass and reports 0
    lang = _write(tmp_path, "pair.txt", PAIR_LANG)
    inst = _write(tmp_path, "pinst.txt", PAIR_INST)
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", lang, "--instance", inst,
         "--mode", "sa", "--level", "1"],
    )
    assert rc == 0
    assert "vcsp_opt = inf" in out
    assert "lp_opt = 0" in out
    assert "gap = GAP" in out
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", lang, "--instance", inst,
         "--mode", "sa", "--level", "2"],
    )
    assert rc == 0
    assert "lp_opt = inf" in out
    assert "gap = NO GAP" in out
    assert "lp path = certified" in out
    assert "certificate = farkas" in out


def test_relax_las_infeasible_reports_its_certificate(capsys, tmp_path):
    # x0 = x1, x1 = x2, x0 != x2: the level-2 ties are consistent, the
    # cone is not, and the scaled duals certify it at the first check,
    # iteration 4
    lang = _write(tmp_path, "pair.txt", PAIR_LANG)
    cycle = _write(tmp_path, "cycle.txt", "vars 3\nconstraint peven 0 1\n"
                   "constraint peven 1 2\nconstraint podd 0 2\n")
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", lang, "--instance", cycle,
         "--mode", "las", "--level", "2"],
    )
    assert rc == 0
    assert "status = infeasible" in out
    assert "stop = certificate" in out
    assert "iterations = 4" in out
    assert "certificate checks = 1" in out
    assert "gram dimension = 13" in out
    assert "face dimension = 1" in out
    (bound,) = [l for l in out if l.startswith("certificate bound = ")]
    assert float(bound.split(" = ")[1]) < -1e-5
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", lang, "--instance", _write(
            tmp_path, "pinst.txt", PAIR_INST), "--mode", "las", "--level", "2"],
    )
    assert rc == 0
    assert "stop = tie-system" in out
    assert "certificate bound = -inf" in out
    assert "certificate checks = 0" in out
    assert "gram dimension = 9" in out
    assert "face dimension = none" in out


def test_relax_las_gap_needs_the_reverification(capsys, demo, monkeypatch):
    # with the optimum read as 1, the demo's value 1/3 is a gap; it is
    # printed only while fresh residuals of the matrix pass the same
    # rule that gap_search applies
    monkeypatch.setattr(cli, "brute_force_opt",
                        lambda instance, cap=None: (ExtValue(1), None))
    argv = ["relax", "--language", demo["lang"], "--instance", demo["inst"],
            "--mode", "las", "--level", "2"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and "gap = GAP" in out
    report = lasserre.LasModel.residual_report

    def failing(model, M):
        return dict(report(model, M), min_eig=-1.0)

    monkeypatch.setattr(lasserre.LasModel, "residual_report", failing)
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert "status = converged" in out
    assert "gap = inconclusive (re-verification failed)" in out


def test_analyze_demo_language(capsys, demo):
    rc, out, _ = _run(capsys, ["analyze", "--language", demo["lang"]])
    assert rc == 0
    # mapping everything to 1 never increases any cost table here,
    # so the language retracts onto a single element
    assert "core = no" in out
    assert "core domain = 1" in out
    assert "core map 0 = 0" in out
    assert "core map 1 = 0" in out
    assert "bwc 3 = satisfied" in out
    assert "bwc 4 = satisfied" in out
    assert "bwc summary = satisfied up to 4" in out
    assert "verdict = SA(3)-solvable (BWC satisfied up to 4)" in out
    assert "caveat = BWC checked up to arity 4 only" in out


def test_analyze_parity_language(capsys, tmp_path):
    lang = _write(tmp_path, "parity.txt", PARITY_LANG)
    rc, out, _ = _run(capsys, ["analyze", "--language", lang])
    assert rc == 0
    assert "core = yes" in out
    assert "core domain = 0,1" in out
    assert "bwc 3 = satisfied" in out
    assert "bwc 4 = violated" in out
    assert "bwc summary = violated at 4" in out
    assert "verdict = BWC violated at arity 4: linear relaxation levels required" in out


def test_reduce_express_roundtrip(capsys, demo, tmp_path):
    gadget = _write(
        tmp_path,
        "gadget.txt",
        "gadget chain external 0 2\nvars 3\nconstraint imp 0 1\nconstraint imp 1 2\n",
    )
    inst = _write(
        tmp_path,
        "inst_chain.txt",
        "vars 2\nconstraint chain 0 1\nconstraint soft 0\n",
    )
    out_dir = tmp_path / "red"
    rc, out, _ = _run(
        capsys,
        ["reduce", "--language", demo["lang"], "--instance", inst,
         "--type", "express", "--gadget", gadget, "--out-dir", str(out_dir)],
    )
    assert rc == 0
    assert "kind = expressibility" in out
    assert "produced vars = 3" in out
    assert "produced constraints = 3" in out
    assert (
        "oracle identity = ok (source=1/3 produced=1/3 scale=1 offset=0"
        " residue=0 window=[0, 0])" in out
    )
    red_lang = parse_language((out_dir / "reduced_language.txt").read_text())
    red_inst = parse_instance(
        (out_dir / "reduced_instance.txt").read_text(), red_lang
    )
    value, _ = brute_force_opt(red_inst)
    assert value.frac == Fraction(1, 3)


OPT_LANG = """
domain 2
relation soft 1
0 : 2
1 : 1/3
end
relation softopt 1
1 : 0
end
relation phif 1
0 : 3/2
1 : inf
end
relation phifeas 1
0 : 0
end
relation imp 2
1 0 : 1
default : 0
end
"""


def test_reduce_opt(capsys, tmp_path):
    lang = _write(tmp_path, "lang2.txt", OPT_LANG)
    inst = _write(
        tmp_path, "inst_opt.txt",
        "vars 2\nconstraint softopt 0\nconstraint imp 0 1\n",
    )
    rc, out, _ = _run(
        capsys,
        ["reduce", "--language", lang, "--instance", inst,
         "--type", "opt", "--phi", "soft"],
    )
    assert rc == 0
    assert "kind = opt" in out
    # q=2 states, table spread 5/3, L=3 rounds up: M = 2*3+5 = 11 copies,
    # each forced copy adds the minimum cost 1/3, so offset 11/3
    assert "value offset = 11/3" in out
    assert any("M = 11 copies" in l for l in out)
    assert any(
        l.startswith("oracle identity = ok (source=0 produced=11/3") for l in out
    )


def test_reduce_feas(capsys, tmp_path):
    lang = _write(tmp_path, "lang2.txt", OPT_LANG)
    inst = _write(
        tmp_path, "inst_feas.txt",
        "vars 2\nconstraint phifeas 0\nconstraint imp 1 0\n",
    )
    rc, out, _ = _run(
        capsys,
        ["reduce", "--language", lang, "--instance", inst,
         "--type", "feas", "--phi", "phif"],
    )
    assert rc == 0
    assert "kind = feas" in out
    assert "value scale = 5" in out
    assert "residue window = [0, 3/2]" in out
    assert any(
        l.startswith("oracle identity = ok (source=0 produced=3/2 scale=5")
        for l in out
    )


def test_reduce_interp_files(capsys, tmp_path):
    src = _write(
        tmp_path, "src.txt",
        "domain 2\nrelation xor 2\n0 1 : 0\n1 0 : 0\nend\n"
        "relation soft 1\n0 : 2\n1 : 1/3\nend\n",
    )
    host = _write(
        tmp_path, "host.txt",
        "domain 3\nrelation u01 1\n0 : 0\n1 : 0\nend\n"
        "relation eqp 2\n0 0 : 0\n1 1 : 0\nend\n"
        "relation xorp 2\n0 1 : 0\n1 0 : 0\nend\n"
        "relation softp 1\n0 : 2\n1 : 1/3\nend\n",
    )
    imap = _write(tmp_path, "imap.txt", "dim 1\ns 0 : 0\ns 1 : 1\n")
    g_phis = _write(
        tmp_path, "g_phis.txt",
        "gadget u01 external 0\nvars 1\nconstraint u01 0\n",
    )
    g_eq = _write(
        tmp_path, "g_eq.txt",
        "gadget eqp external 0 1\nvars 2\nconstraint eqp 0 1\n",
    )
    g_xor = _write(
        tmp_path, "g_xor.txt",
        "gadget xor external 0 1\nvars 2\nconstraint xorp 0 1\n",
    )
    g_soft = _write(
        tmp_path, "g_soft.txt",
        "gadget soft external 0\nvars 1\nconstraint softp 0\n",
    )
    inst = _write(
        tmp_path, "inst_xor.txt",
        "vars 2\nconstraint xor 0 1\nconstraint soft 0\nconstraint soft 1\n",
    )
    rc, out, _ = _run(
        capsys,
        ["reduce", "--language", src, "--instance", inst, "--type", "interp",
         "--host-language", host, "--interp-map", imap,
         "--phi-s-gadget", g_phis, "--eq-gadget", g_eq,
         "--relation-gadget", g_xor, "--relation-gadget", g_soft],
    )
    assert rc == 0
    assert "kind = interpretation" in out
    assert "produced vars = 2" in out
    assert any(
        l.startswith("oracle identity = ok (source=7/3 produced=7/3") for l in out
    )


def test_verify_eq_with_transport(capsys, demo, tmp_path):
    inst = _write(
        tmp_path, "inst_eq.txt",
        "vars 3\nconstraint eq 0 1\nconstraint eq 1 2\nconstraint soft 2\n",
    )
    rc, out, _ = _run(
        capsys,
        ["verify", "--language", demo["lang"], "--instance", inst,
         "--type", "eq"],
    )
    assert rc == 0
    assert "kind = equality" in out
    assert "verified = True" in out
    assert any(l.startswith("condition-a = pass") for l in out)
    assert any(l.startswith("condition-b = pass") for l in out)
    assert any(l.startswith("condition-c = pass") for l in out)
    assert "transport source level = 4" in out
    assert "transport produced level = 1" in out
    assert "transport ok = True" in out
    (obj_line,) = [l for l in out if l.startswith("transport objective = ")]
    assert obj_line.endswith("(float, eps = 1e-07)")


@pytest.mark.parametrize("kind, phi, body, scale, offset, residue_hi", [
    ("opt", "soft", "constraint softopt 0\nconstraint imp 0 1\n",
     1, Fraction(11, 3), 0),
    ("feas", "phif", "constraint phifeas 0\nconstraint imp 1 0\n",
     5, 0, Fraction(3, 2)),
])
def test_verify_opt_feas_with_transport(capsys, tmp_path, kind, phi, body,
                                        scale, offset, residue_hi):
    # the transported objective obeys the trace's value relation, not the
    # bare source objective: produced <= scale * source + offset + residue;
    # on these two sources it meets that bound
    lang = _write(tmp_path, "lang2.txt", OPT_LANG)
    inst = _write(tmp_path, f"inst_{kind}.txt", "vars 2\n" + body)
    rc, out, _ = _run(
        capsys,
        ["verify", "--language", lang, "--instance", inst,
         "--type", kind, "--phi", phi],
    )
    assert rc == 0
    assert "verified = True" in out
    assert "transport ok = True" in out

    def number(key):
        (line,) = [l for l in out if l.startswith(key + " = ")]
        return float(line.split(" = ")[1].split()[0])

    produced = number("transport objective")
    source = number("transport source objective")
    bound = scale * source + float(offset + residue_hi)
    assert bound - 1e-5 <= produced <= bound + 1e-5


def test_m_max_belongs_to_analyze(capsys, demo):
    rc, out, _ = _run(
        capsys, ["analyze", "--language", demo["lang"], "--m-max", "3"])
    assert rc == 0
    assert "caveat = BWC checked up to arity 3 only" in out
    # reduce and verify take their copy cap from the library constant
    with pytest.raises(SystemExit):
        main(["reduce", "--language", demo["lang"], "--instance",
              demo["inst"], "--type", "eq", "--m-max", "3"])


def test_gapsearch_kxor_report(capsys, tmp_path):
    out_dir = tmp_path / "gs"
    rc, out, _ = _run(
        capsys,
        ["gapsearch", "--group", "Z2", "--family", "kxor",
         "--n-min", "6", "--n-max", "6", "--count", "1",
         "--level", "3", "--density", "4.0", "--out-dir", str(out_dir)],
    )
    assert rc == 0
    # 24 random parity constraints on 6 variables leave no tie-consistent
    # moment matrix, so the relaxation itself refutes the instance
    assert "report 0 verdict = no-gap" in out
    assert "report 0 note = relaxation infeasible" in out
    assert "report 0 vcsp_opt = inf" in out
    assert "report 0 m = 24" in out
    assert "total gap = 0" in out
    assert "total no-gap = 1" in out
    assert "total inconclusive = 0" in out
    lang = parse_language((out_dir / "gapsearch_language.txt").read_text())
    inst = parse_instance(
        (out_dir / "gap_instance_0.txt").read_text(), lang
    )
    assert inst.num_vars == 6
    assert len(inst.constraints) == 24


def test_exit_code_missing_file(capsys, demo):
    rc, out, err = _run(
        capsys,
        ["relax", "--language", "/nonexistent/lang.txt",
         "--instance", demo["inst"]],
    )
    assert rc == 2
    assert err.startswith("error: ")


def test_exit_code_parse_error(capsys, demo, tmp_path):
    bad = _write(tmp_path, "bad.txt", "vars 2\nconstraint nosuch 0 1\n")
    rc, out, err = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", bad],
    )
    assert rc == 2
    assert "unknown relation" in err


def test_exit_code_cap_exceeded(capsys, demo, tmp_path):
    # 1 + 24 + 264 + 1760 + 7920 = 9969 Gram rows at level 4 on 12
    # variables, past the 4000 row cap
    inst = _write(tmp_path, "big.txt", "vars 12\nconstraint imp 0 1\n")
    rc, out, err = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", inst,
         "--mode", "las", "--level", "4"],
    )
    assert rc == 3
    assert "exceeds cap" in err


def test_exit_code_non_convergence(capsys, demo):
    rc, out, err = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "las", "--max-iter", "3"],
    )
    assert rc == 4


def test_exit_code_linear_algebra_failure(capsys, demo, monkeypatch):
    # a failed factorization is the solver's failure, not bad input
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
    rc, out, err = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "las"],
    )
    assert rc == 4
    assert err.startswith("error: linear algebra failure")


def test_exit_code_lp_work_budget(capsys, demo, monkeypatch):
    # no rung certifies HiGHS's proposal, so the two-phase simplex runs,
    # and it stops at its first update: the exact LP's budget, exit 4
    monkeypatch.setattr(simplex, "_DENOMINATORS", ())
    monkeypatch.setattr(simplex, "_WORK_BUDGET", 0)
    rc, out, err = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "sa", "--level", "2"],
    )
    assert rc == 4
    assert err.startswith("error: exact simplex stopped after 1 pivots")
    rc, out, err = _run(capsys, ["analyze", "--language", demo["lang"]])
    assert rc == 4
    assert err.startswith("error: exact simplex stopped")


def test_exit_code_empty_gapsearch_range(capsys):
    # tseitin needs n divisible by 3; the range 7..8 contains no such n
    rc, out, err = _run(
        capsys,
        ["gapsearch", "--group", "Z2", "--family", "tseitin",
         "--n-min", "7", "--n-max", "8"],
    )
    assert rc == 2


def test_cap_enum_graceful(capsys, demo):
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--mode", "sa", "--cap-enum", "1"],
    )
    assert rc == 0
    assert "vcsp_opt = unknown (enumeration over cap)" in out
    assert "lp_opt = 1/3" in out


def test_determinism(capsys, demo):
    argv = ["relax", "--language", demo["lang"], "--instance", demo["inst"],
            "--mode", "las", "--level", "2"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_module_entry_point(demo):
    proc = subprocess.run(
        [sys.executable, "-m", "vcsprelax.cli",
         "analyze", "--language", demo["lang"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "bwc summary = satisfied up to 4" in proc.stdout


def test_relax_las_prints_rho_schedule(capsys, demo, tmp_path):
    # a second soft(x0) term: the primal residual leads at iteration 50,
    # so rho doubles, and the dual leads at 100, so it halves back
    inst = _write(tmp_path, "soft2.txt", DEMO_INST + "constraint soft 0\n")
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", demo["lang"], "--instance", inst,
         "--mode", "las", "--level", "2"],
    )
    assert rc == 0
    assert "status = converged" in out
    assert "rho schedule = 0:1.0 50:2.0 100:1.0" in out
    assert "residual rho = 1.0" in out
    # a tie-system refutation never iterates: the schedule is its start
    lang = _write(tmp_path, "pair.txt", PAIR_LANG)
    rc, out, _ = _run(
        capsys,
        ["relax", "--language", lang, "--instance", _write(
            tmp_path, "pinst.txt", PAIR_INST), "--mode", "las", "--level", "2"],
    )
    assert rc == 0
    assert "rho schedule = 0:1.0" in out


def test_parser_is_built_once_and_calls_stay_apart(capsys, demo):
    calls = [
        ["relax", "--language", demo["lang"], "--instance", demo["inst"],
         "--level", "3", "--subsets", "scopes", "--seed", "5"],
        ["relax", "--language", demo["lang"], "--instance", demo["inst"]],
        ["analyze", "--language", demo["lang"]],
        ["relax", "--language", demo["lang"], "--level", "x"],
    ]

    def run_all(fresh):
        outs = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
            captured = capsys.readouterr()
            outs.append((rc, captured.out, captured.err))
        return outs

    cached = run_all(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 2]
    first, second, analyze = (out.splitlines() for _, out, _ in cached[:3])
    assert "config level = 3" in first
    assert "config level = 2" in second
    assert "config subsets = full" in second
    assert "config seed = 0" in second
    assert "config level = 2" in analyze
    assert not any(line.startswith("config instance") for line in analyze)
    assert "invalid int value: 'x'" in cached[3][2]
    assert cached == run_all(fresh=True)
