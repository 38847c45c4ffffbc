import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tautrel import cli, reduce
from tautrel.cli import main
from tautrel.expressions import expression_to_json, parse_bracket
from tautrel.reduce import eliminate_all_psi
from tautrel.treeclass import weighted_tree_class

from conftest import FIXTURES, fixture_text, psi_free
from test_acceptance import replay_certificate
from test_reduce import reference_eliminate_all_psi

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def child_env(env=None):
    """``env`` (default: this process's environment) importing from ``src/`` first."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(*argv, env=None, **kwargs):
    """Run ``python -m tautrel.cli`` in a child process that imports from ``src/``."""
    return subprocess.run([sys.executable, "-m", "tautrel.cli", *argv],
                          capture_output=True, text=True, env=child_env(env), **kwargs)


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


def test_compute_b_bracket_output(capsys):
    code, out = run_cli(capsys, "compute-b", "--g", "1", "--m", "2", "--d", "2,1")
    assert code == 0
    assert parse_bracket(out) == parse_bracket(fixture_text("b21_raw"))


def test_compute_b_formats(capsys):
    code, out = run_cli(capsys, "compute-b", "--g", "0", "--m", "2", "--d", "1",
                        "--format", "bracket")
    assert code == 0 and out.strip() == "0"
    code, report = run_json(capsys, "compute-b", "--g", "1", "--m", "2",
                            "--d", "2,1", "--format", "json")
    assert code == 0
    assert report["schema"] == 1
    assert report["outcome"]["terms"] == 7
    code, out = run_cli(capsys, "compute-b", "--g", "1", "--m", "2", "--d", "2,1",
                        "--format", "latex")
    assert code == 0 and r"\Psi^{2}(U_{1})" in out


def test_compute_b_psi_free_stage(capsys):
    code, out = run_cli(capsys, "compute-b", "--g", "1", "--m", "2", "--d", "2,1",
                        "--stage", "psi-free")
    assert code == 0
    assert psi_free(parse_bracket(out))


def test_verify_proved(capsys):
    code, report = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "2,1")
    assert code == 0
    assert report["outcome"]["proved"] is True
    assert report["outcome"]["method"] == "wdvv-span"
    assert report["outcome"]["certificate"]["combination"]


def test_verify_top_degree_integral(capsys):
    code, report = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "3")
    assert code == 0
    assert report["outcome"]["method"] == "top-degree-integral"


def test_verify_top_degree_integral_at_genus_2(capsys):
    code, report = run_json(capsys, "verify", "--g", "2", "--m", "2", "--d", "6")
    assert code == 0
    assert report["outcome"] == {"method": "top-degree-integral", "proved": True}


def test_verify_genus_2_below_top_degree_needs_psi_elimination():
    proc = run_child("verify", "--g", "2", "--m", "2", "--d", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "psi elimination on genus >= 2 vertices is unsupported" in proc.stderr


def test_verify_genus_2_with_a_nonzero_raw_pairing_ends_unknown(capsys):
    """The raw class pairs nonzero with psi_{V1}^2, so the check ends before
    psi elimination, which genus-2 vertices would stop."""
    code, report = run_json(capsys, "verify", "--g", "2", "--m", "2", "--d", "4",
                            "--budget", "3")
    assert code == 2
    assert report["outcome"]["proved"] is False
    assert report["outcome"]["certificate"] == {"reason": "unknown", "rounds": 3}


def test_reduce_pair_on_genus_1_fixtures(capsys):
    for name, count in (("h", 15), ("i", 10)):
        code, report = run_json(capsys, "reduce", os.path.join(FIXTURES, name + ".bracket"),
                                "--mode", "pair")
        assert code == 0
        assert len(report["outcome"]["pairings"]) == count
        assert report["outcome"]["all_zero"] is False


def test_verify_below_range_warns_and_reports(capsys):
    code, report = run_json(capsys, "verify", "--g", "0", "--m", "3", "--d", "1")
    assert code == 2
    assert "warning" in report["outcome"]
    assert report["outcome"]["proved"] is False


@pytest.mark.parametrize("g,m,d,warning", [
    (0, 3, "1", "total weight 1 is below 2g+m-1 = 2; vanishing is not expected"),
    (1, 1, "2,1", "m = 1 is below 2; vanishing is not expected"),
    (0, 0, "0,0,0", "m = 0 is below 2; vanishing is not expected"),
    (1, 1, "1", "m = 1 is below 2; total weight 1 is below 2g+m-1 = 2;"
                " vanishing is not expected"),
    (1, 2, "2,1", None),
], ids=["weight", "m-1", "m-0", "m-and-weight", "in-range"])
def test_verify_warning_names_each_failed_hypothesis(capsys, g, m, d, warning):
    """B vanishes only for m >= 2 and |d| >= 2g+m-1 (n >= 1 always holds, as
    ``--d`` takes at least one weight)."""
    _code, report = run_json(capsys, "verify", "--g", str(g), "--m", str(m), "--d", d)
    assert report["outcome"].get("warning") == warning


def test_check_pushforward(capsys):
    """The two sides cancel, so the difference is zero as given."""
    code, report = run_json(capsys, "check-pushforward", "--g", "0", "--m", "2",
                            "--l", "1", "--d", "1,1")
    assert code == 0
    assert report["outcome"] == {"equal": True, "method": "normalizes-to-zero"}


@pytest.mark.parametrize("d", [
    pytest.param(d, marks=pytest.mark.xfail(strict=True, reason=(
        "the m = 0 class keeps one rooting per unrooted tree, so the two sides "
        "integrate to -2/3 apart; see the m = 0 item of ROADMAP.md")))
    for d in ("2,1,1", "1,1,2")])
def test_check_pushforward_holds_onto_m_0(capsys, d):
    """Forgetting the one frozen leg of an m = 1 class gives the string-table
    sum of m = 0 classes."""
    _code, report = run_json(capsys, "check-pushforward", "--g", "1", "--m", "0",
                             "--l", "1", "--d", d)
    assert report["outcome"]["equal"] is True


def test_enumerate_counts(capsys):
    code, report = run_json(capsys, "enumerate", "--g", "1", "--n", "2", "--m", "2")
    assert code == 0
    assert report["outcome"]["count"] == 8
    code, report = run_json(capsys, "enumerate", "--g", "1", "--n", "2", "--m", "2",
                            "--with-extras", "2,1")
    assert code == 0
    assert report["outcome"]["count"] == 6


@pytest.mark.parametrize("extras", ["2,1", "2,1,1"])
def test_enumerate_with_extras_takes_one_weight_per_leg(extras):
    n = "3" if extras == "2,1" else "2"
    proc = run_child("enumerate", "--g", "1", "--n", n, "--m", "1",
                     "--with-extras", extras)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --with-extras takes %s weights" % n)


@pytest.mark.parametrize("argv", [
    ("verify", "--g", "-1", "--m", "3", "--d", "1,1"),
    ("compute-b", "--g", "-1", "--m", "3", "--d", "1,1"),
    ("compute-b", "--g", "-1", "--m", "3", "--d", "1,1", "--format", "json"),
    ("check-pushforward", "--g", "-1", "--m", "2", "--l", "1", "--d", "1,1"),
    ("enumerate", "--g", "-1", "--n", "2", "--m", "3"),
], ids=["verify", "compute-b", "compute-b-json", "check-pushforward", "enumerate"])
def test_negative_genus_is_a_usage_error(argv):
    proc = run_child(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: negative genus -1\n"


@pytest.mark.parametrize("fmt", ["bracket", "latex", "json"])
def test_compute_b_out_file_in_every_format(capsys, tmp_path, fmt):
    argv = ("compute-b", "--g", "1", "--m", "2", "--d", "2,1", "--format", fmt)
    code, printed = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / ("b21." + fmt)
    code, out = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    if fmt == "json":
        assert strip_timing(json.loads(path.read_text())) == \
            strip_timing(json.loads(printed))
    else:
        assert path.read_text() == printed


def test_reduce_zero_test_fixture(capsys):
    path = os.path.join(FIXTURES, "f.bracket")
    code, report = run_json(capsys, "reduce", path, "--mode", "zero-test")
    assert code == 0
    assert report["outcome"]["proved"] is True


def test_reduce_zero_test_genus1_cofactor(capsys):
    path = os.path.join(FIXTURES, "i1.bracket")
    code, report = run_json(capsys, "reduce", path, "--mode", "zero-test")
    assert code == 0
    assert report["outcome"]["proved"] is True


def test_reduce_zero_test_combined_residue(capsys):
    path = os.path.join(FIXTURES, "h0i0_combined.bracket")
    code, report = run_json(capsys, "reduce", path, "--mode", "zero-test")
    assert code == 0
    assert report["outcome"]["proved"] is True


@pytest.mark.parametrize("argv", [
    ("verify", "--g", "1", "--m", "2", "--d", "2,1"),
    ("reduce", os.path.join(FIXTURES, "f.bracket"), "--mode", "zero-test"),
], ids=["verify", "reduce"])
def test_verify_budget_overflow_reported(capsys, argv):
    code, report = run_json(capsys, *argv, "--max-relations", "1")
    assert code == 2
    assert report["outcome"]["error"] == "budget-overflow"


@pytest.mark.parametrize("argv", [
    ("verify", "--g", "1", "--m", "3", "--d", "2,1", "--max-relations", "1"),
    ("verify", "--g", "0", "--m", "5", "--d", "1,1,1"),
], ids=["max-relations-1", "out-of-pool"])
def test_nonzero_pairing_ends_unknown_before_the_closure(capsys, argv):
    """A class with a nonzero psi pairing ends unknown without a closure
    round, so even a relation budget of 1 cannot overflow."""
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["outcome"]["proved"] is False
    assert "error" not in report["outcome"]
    assert report["outcome"]["certificate"] == {"reason": "unknown", "rounds": 3}
    assert report["timing"]["closure_s"] == report["timing"]["solve_s"] == 0


def raise_on_call(*args, **kwargs):
    raise AssertionError("psi elimination, the relation closure or the span solver ran")


@pytest.mark.parametrize("name", ["b13_21", "divisor"])
def test_nonzero_raw_pairing_ends_the_check_before_psi_elimination(
        capsys, monkeypatch, tmp_path, name):
    """The vanishing check pairs the class as it is given and ends unknown at
    its first nonzero pairing, before psi elimination, the closure and the
    solver."""
    argv = ("verify", "--g", "1", "--m", "3", "--d", "2,1")
    if name == "divisor":
        path = tmp_path / "divisor.bracket"
        path.write_text("<x1 x2 a>_0 <a* x3 x4 x5>_0\n")
        argv = ("reduce", str(path), "--mode", "zero-test")
    monkeypatch.setattr(cli, "eliminate_all_psi", raise_on_call)
    monkeypatch.setattr(reduce, "generate_wdvv_relations", raise_on_call)
    monkeypatch.setattr(reduce, "_solve_exact", raise_on_call)
    code, report = run_json(capsys, *argv, "--budget", "3")
    assert code == 2
    assert report["outcome"]["proved"] is False
    assert report["outcome"]["certificate"] == {"reason": "unknown", "rounds": 3}
    timing = report["timing"]
    assert timing["psi_s"] == timing["closure_s"] == timing["solve_s"] == 0


def test_reduce_zero_test_on_a_class_that_cancels(capsys, tmp_path):
    """A class that cancels as it is parsed is zero as given, the first rule
    of the check, as in ``verify`` of a class that assembles to zero."""
    path = tmp_path / "cancels.bracket"
    path.write_text("<x1 x2 x3 x4>_0 - <x1 x2 x3 x4>_0\n")
    code, report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert code == 0
    assert report["outcome"] == {"proved": True, "method": "normalizes-to-zero"}


def test_reduce_zero_test_of_a_class_that_psi_elimination_cancels(capsys, tmp_path):
    """psi_1 on M_{0,5} minus the boundary sum psi elimination rewrites it
    into: nonzero as given and below top degree, with every pairing zero,
    so the third rule settles it."""
    path = tmp_path / "psi.bracket"
    path.write_text("<P^1(x1) x2 x3 x4 x5>_0 - <x1 x4 g1>_0 <x2 x3 x5 g1*>_0"
                    " - <x1 x4 x5 g1>_0 <x2 x3 g1*>_0 - <x1 x5 g1>_0 <x2 x3 x4 g1*>_0\n")
    code, report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert code == 0
    assert report["outcome"] == {"proved": True, "method": "psi-elimination"}


@pytest.mark.parametrize("g,m,d", [(1, 1, "2,1"), (1, 2, "2,2"), (1, 3, "1,1,1"),
                                   (1, 2, "2,1,1")],
                         ids=["nonzero-integral", "zero-integral", "nonzero-pairing",
                              "span-proof"])
def test_verify_and_zero_test_share_one_check(capsys, tmp_path, g, m, d):
    """``reduce --mode zero-test`` on the class that ``compute-b`` prints
    reaches the outcome of ``verify``, apart from its warning, at top degree
    too."""
    inputs = ("--g", str(g), "--m", str(m), "--d", d)
    code, report = run_json(capsys, "verify", *inputs)
    report["outcome"].pop("warning", None)
    path = tmp_path / "b.bracket"
    path.write_text(run_cli(capsys, "compute-b", *inputs)[1])
    z_code, z_report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert (z_code, z_report["outcome"]) == (code, report["outcome"])


BIG = 10**100


def divisor(near, far):
    return "<%s a>_0 <a* %s>_0" % (near, far)


# WDVV relations on M_{0,5}, one degree below top: R1 exchanges x2 and x3
# next to x1, R2 exchanges x2 and x4
R1 = [(1, divisor("x1 x2", "x3 x4 x5")), (1, divisor("x1 x2 x5", "x3 x4")),
      (-1, divisor("x1 x3", "x2 x4 x5")), (-1, divisor("x1 x3 x5", "x2 x4"))]
R2 = R1[:2] + [(-1, divisor("x1 x4", "x2 x3 x5")), (-1, divisor("x1 x4 x5", "x2 x3"))]


def bracket(*scaled):
    """The text of the sum of ``scale * relation`` over the given pairs."""
    text = " ".join("%s %d * %s" % ("-" if c * n < 0 else "+", abs(c * n), term)
                    for c, relation in scaled for n, term in relation)
    return text.lstrip("+ ") + "\n"


def test_large_multiple_of_a_relation_proves(capsys, tmp_path):
    """10^100 times a WDVV relation on M_{0,5}: the solver divides the target
    by its content, so the coefficient does not outrun the primes."""
    path = tmp_path / "big.bracket"
    path.write_text(bracket((BIG, R1)))
    code, report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert code == 0
    cert = report["outcome"]["certificate"]
    assert [entry["coefficient"] for entry in cert["combination"]] == \
        [{"num": BIG, "den": 1}]
    assert replay_certificate(cert, cert["target"])


def test_span_system_that_outruns_the_primes_is_a_clean_error(tmp_path):
    """10^100 R1 + R2 has content 1 and needs a coefficient near 10^100, which
    no list of primes reconstructs: one error line and exit 1."""
    path = tmp_path / "mixed.bracket"
    path.write_text(bracket((BIG, R1), (1, R2)))
    proc = run_child("reduce", str(path), "--mode", "zero-test")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: no prime of the list settles the span system\n"


def test_only_the_kept_basis_counts_against_max_relations(capsys):
    """The closure of (1, 2, 1,1,1) keeps 318 relations, a basis at each vertex
    of the 536 that every exchange of every quadruple would give."""
    argv = ("verify", "--g", "1", "--m", "2", "--d", "1,1,1")
    code, report = run_json(capsys, *argv, "--max-relations", "400")
    assert code == 0
    assert report["outcome"]["proved"] is True
    assert report["outcome"]["certificate"]["rounds"] == 1
    code, report = run_json(capsys, *argv, "--max-relations", "317")
    assert code == 2
    assert report["outcome"]["error"] == "budget-overflow"


@pytest.mark.parametrize("argv", [
    ("verify", "--g", "1", "--m", "2", "--d", "2,1"),
    ("verify", "--g", "1", "--m", "2", "--d", "2,1", "--max-relations", "1"),
    ("check-pushforward", "--g", "0", "--m", "2", "--l", "1", "--d", "1,1"),
    ("reduce", os.path.join(FIXTURES, "f.bracket"), "--mode", "zero-test"),
])
def test_span_commands_report_stage_seconds(capsys, argv):
    _code, report = run_json(capsys, *argv)
    timing = report["timing"]
    assert set(timing) == {"seconds", "assemble_s", "psi_s", "pair_s", "closure_s",
                           "solve_s"}
    assert all(seconds >= 0 for seconds in timing.values())


def test_budget_overflow_keeps_the_solve_seconds_before_it(capsys, monkeypatch):
    """``0 5 1,1,2`` solves round 1 and overflows in round 2, so its report
    keeps the seconds of the round-1 solve, and the closure rounds' too."""
    solve = reduce._solve_exact

    def slow_solve(*args):
        time.sleep(0.01)
        return solve(*args)

    monkeypatch.setattr(reduce, "_solve_exact", slow_solve)
    code, report = run_json(capsys, "verify", "--g", "0", "--m", "5", "--d", "1,1,2",
                            "--max-relations", "5000")
    assert code == 2 and report["outcome"]["error"] == "budget-overflow"
    assert report["timing"]["solve_s"] >= 0.01
    assert report["timing"]["closure_s"] > 0


def test_report_seconds_ignore_a_wall_clock_that_steps_back(capsys, monkeypatch):
    """``timing.seconds`` is measured on the monotonic clock of the stages,
    so a wall clock that an NTP step sets back cannot make it negative."""
    class SteppingClock:
        perf_counter = staticmethod(time.perf_counter)
        wall = time.time()

        @classmethod
        def time(cls):
            cls.wall -= 3600
            return cls.wall

    monkeypatch.setattr(cli, "time", SteppingClock)
    code, report = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "2,1,1")
    assert code == 0
    timing = report["timing"]
    assert timing["seconds"] >= 0
    assert timing["seconds"] >= max(timing.values())


def test_compute_b_json_reports_stage_seconds_on_one_compact_line(capsys):
    _code, printed = run_cli(capsys, "compute-b", "--g", "1", "--m", "2", "--d", "2,1",
                             "--format", "json", "--stage", "psi-free")
    report = json.loads(printed)
    assert set(report["timing"]) == {"seconds", "assemble_s", "psi_s"}
    assert all(seconds >= 0 for seconds in report["timing"].values())
    assert printed.count("\n") == 1 and printed.endswith("\n")


B21_RAW = os.path.join(FIXTURES, "b21_raw.bracket")
REPORT_CALLS = {
    "compute-b": ("compute-b", "--g", "1", "--m", "2", "--d", "2,1", "--format", "json",
                  "--stage", "psi-free"),
    "verify-proved": ("verify", "--g", "1", "--m", "2", "--d", "2,1,1"),
    "verify-unknown": ("verify", "--g", "1", "--m", "3", "--d", "1,1,1"),
    "overflow": ("verify", "--g", "1", "--m", "2", "--d", "2,1,1", "--max-relations", "10"),
    "reduce-pair": ("reduce", B21_RAW, "--mode", "pair"),
    "reduce-psi": ("reduce", B21_RAW, "--mode", "psi", "--format", "json"),
    "enumerate": ("enumerate", "--g", "1", "--n", "2", "--m", "2", "--with-extras", "2,1"),
    "check-pushforward": ("check-pushforward", "--g", "0", "--m", "2", "--l", "1",
                          "--d", "1,1"),
    "out-file": ("verify", "--g", "1", "--m", "2", "--d", "2,1,1", "--out"),
}


@pytest.mark.parametrize("argv", REPORT_CALLS.values(), ids=REPORT_CALLS)
def test_reports_are_compact_sorted_json_byte_for_byte(capsys, tmp_path, argv):
    """Every report, written in pieces, has the bytes of ``json.dumps`` with
    compact separators and sorted keys, plus a newline."""
    path = tmp_path / "report.json"
    if argv[-1] == "--out":
        argv += (str(path),)
    code, printed = run_cli(capsys, *argv)
    if argv[-2] == "--out":
        assert printed == ""
        printed = path.read_text()
    report = json.loads(printed)
    assert printed == json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"
    if argv == REPORT_CALLS["verify-proved"]:
        assert code == 0 and report["outcome"]["certificate"]["combination"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


def walked_lists_as_iterators(value):
    """``value`` with each list that ``_write_json`` walks to through dicts
    replaced by an iterator over its items, which stay as they are."""
    if isinstance(value, dict):
        return {key: walked_lists_as_iterators(item) for key, item in value.items()}
    return iter(value) if isinstance(value, list) else value


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    """A value, and the same value with its lists given as iterators, write
    the bytes of ``json.dumps``."""
    expected = json.dumps(value, separators=(",", ":"), sort_keys=True)
    for written in (value, walked_lists_as_iterators(value)):
        out = io.StringIO()
        cli._write_json(out, written)
        assert out.getvalue() == expected


@pytest.mark.parametrize("stage", ["raw", "psi-free"])
def test_report_expressions_are_expression_to_json(capsys, stage):
    """The expressions that reports write term by term, a class and a
    certificate's target, are what ``expression_to_json`` returns."""
    code, report = run_json(capsys, "compute-b", "--g", "1", "--m", "2", "--d", "2,1,1",
                            "--stage", stage, "--format", "json")
    expr = weighted_tree_class(1, 2, (2, 1, 1))
    if stage == "psi-free":
        expr = eliminate_all_psi(expr)
    assert code == 0 and report["outcome"]["expression"] == expression_to_json(expr)
    code, report = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "2,1,1")
    target = report["outcome"]["certificate"]["target"]
    assert code == 0 and target == expression_to_json(
        eliminate_all_psi(weighted_tree_class(1, 2, (2, 1, 1))))


NO_TREE_CALLS = {
    "compute-b": ("compute-b", "--g", "1", "--m", "2", "--d", "1,1,1,1",
                  "--stage", "psi-free", "--format", "json"),
    "verify-1-2": ("verify", "--g", "1", "--m", "2", "--d", "1,1,1"),
    "verify-0-4": ("verify", "--g", "0", "--m", "4", "--d", "1,1,1,1"),
}


@pytest.mark.parametrize("argv", NO_TREE_CALLS.values(), ids=NO_TREE_CALLS)
def test_reports_are_written_without_a_json_tree(monkeypatch, argv):
    """From the return of the last pipeline stage (psi elimination, or the
    span test) to the start of the write, traced memory grows by at most
    0.1 MB: the report's terms and relations are made as they are written,
    not held as a tree of JSON values first."""
    traced = {}

    def after(fn):
        def stage(*args, **kwargs):
            ret = fn(*args, **kwargs)
            traced["stage"] = tracemalloc.get_traced_memory()[0]
            return ret
        return stage

    def emit(args, write, real=cli._emit):
        traced["emit"] = tracemalloc.get_traced_memory()[0]
        real(args, write)

    for name in ("eliminate_all_psi", "span_zero_test"):
        monkeypatch.setattr(cli, name, after(getattr(cli, name)))
    monkeypatch.setattr(cli, "_emit", emit)
    tracemalloc.start()
    try:
        code = main([*argv, "--out", os.devnull])
    finally:
        tracemalloc.stop()
    assert code == 0
    assert traced["emit"] - traced["stage"] <= 0.1 * 2 ** 20


@pytest.mark.parametrize("argv", [NO_TREE_CALLS["compute-b"], NO_TREE_CALLS["verify-0-4"]],
                         ids=["compute-b", "verify-0-4"])
def test_a_reader_closing_the_pipe_mid_report_is_an_error(argv):
    """A reader that closes standard output after 10 bytes of a report, which
    is far longer than a pipe holds, ends the call with exit 1 and one line
    on standard error."""
    proc = subprocess.Popen([sys.executable, "-m", "tautrel.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    code = proc.wait(timeout=120)
    with proc.stderr:
        err = proc.stderr.read()
    assert code == 1
    assert head == b'{"budgets"'
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_reduce_pair_mode(capsys):
    path = os.path.join(FIXTURES, "b21_raw.bracket")
    code, report = run_json(capsys, "reduce", path, "--mode", "pair")
    assert code == 0
    assert report["outcome"]["all_zero"] is True


EXTRA_LEG_TEXTS = [
    "<P^1(U1) U2 U3 U4 U5 W>_0",          # an extra leg at a genus-0 psi site
    "<U1 U2 U3 a>_0 <a* W W>_0",          # more edges than the ambient dimension
    "<P^1(U1) U2 U3 a>_0 <a* W W>_0",
]


@pytest.mark.parametrize("text", EXTRA_LEG_TEXTS)
def test_reduce_psi_with_extra_legs(capsys, tmp_path, text):
    path = tmp_path / "extras.bracket"
    path.write_text(text)
    code, report = run_json(capsys, "reduce", str(path), "--mode", "psi")
    assert code == 0
    reduced = parse_bracket(report["outcome"]["expression"])
    assert psi_free(reduced)
    assert reduced == reference_eliminate_all_psi(parse_bracket(text))


@pytest.mark.parametrize("text", EXTRA_LEG_TEXTS + [
    # the pushforward of psi_1 from M_{0,5}, which is the fundamental class
    # of M_{0,4}: degree equal to the ambient dimension, but not top degree
    "<P^1(U1) U2 U3 U4 W>_0",
])
def test_reduce_zero_test_with_extra_legs(capsys, tmp_path, text):
    """A class with extra legs gets no top-degree verdict, and one whose
    degree exceeds the ambient dimension pairs with no psi monomial: both go
    on to psi elimination and the span test."""
    path = tmp_path / "extras.bracket"
    path.write_text(text)
    code, report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert code == 2
    assert report["outcome"]["proved"] is False
    assert report["outcome"]["method"] == "wdvv-span"


def test_reduce_parse_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.bracket"
    bad.write_text("<x1 x1 x2>_0")
    code = main(["reduce", str(bad), "--mode", "psi"])
    assert code == 1


def test_reduce_zero_denominator_is_a_parse_error():
    proc = run_child("reduce", "-", "--mode", "psi", input="1/0 * <a b c>_0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "parse error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text,message", [
    # disconnected, with the wrong legs, and overweight
    ("<U1 U2 U3>_0 + <P^5(U1) U2 U3 U4>_0 <U5 U6 U7>_0",
     "invalid graph in term: disconnected"),
    # a disconnected first term, reported before the ambient is inferred
    ("<U1 U2 U3>_0 <x y z>_0", "invalid graph in term: disconnected"),
    ("<U1 U2 a>_0 <a* U3 U4>_0 <x>_0", "invalid graph in term: disconnected"),
    # genus 1 on a genus-0 ambient, and overweight
    ("<P^1(U1) U2 U3 U4>_0 + <P^9(U1) U2 U3 U4>_1",
     "term genus 1 does not match ambient genus 0"),
    # unstable, with a zero coefficient
    ("<U1 U2 U3 U4>_0 + 0 * <U1 U2>_0", "unstable graph in term"),
    # two bare vertices: disconnected, reported before their ambient
    ("<>_1 <>_1", "invalid graph in term: disconnected"),
    # one bare vertex: its ambient has no legs and is unstable
    ("<>_1", "unstable ambient space (genus 1 with 0 legs)"),
    # a coefficient where a sign should join two terms
    ("<U1 U2 U3>_0 3 * <U1 U2 U3>_0", "expected '+' or '-' at position 12"),
])
def test_malformed_zero_or_overweight_terms_are_parse_errors(text, message):
    proc = run_child("reduce", "-", "--mode", "psi", input=text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "parse error: %s\n" % message


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--g", "1"])
    assert err.value.code == 1


def test_reports_are_deterministic(capsys):
    _c1, r1 = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "2,1")
    _c2, r2 = run_json(capsys, "verify", "--g", "1", "--m", "2", "--d", "2,1")
    assert strip_timing(r1) == strip_timing(r2)


def test_reduce_reads_stdin():
    proc = run_child("reduce", "-", "--mode", "zero-test",
                     input="<x1 x2 a>_0 <a* x3 x4>_0 - <x1 x3 a>_0 <a* x2 x4>_0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"]["proved"] is True


F_BRACKET = os.path.join(FIXTURES, "f.bracket")


@pytest.mark.parametrize("argv, rounds", [
    (("compute-b", "--g", "1", "--m", "1", "--d", "2,1"), None),
    (("--help",), None),
    (("verify", "--help"), None),
    (("enumerate", "--g", "1", "--n", "1", "--m", "2"), None),
    (("reduce", F_BRACKET, "--mode", "psi"), None),
    (("reduce", F_BRACKET, "--mode", "pair"), None),
    (("verify", "--g", "1", "--m", "2", "--d", "2,1"), 3),
    (("check-pushforward", "--g", "1", "--m", "2", "--l", "1", "--d", "2,1"), 3),
    (("reduce", F_BRACKET, "--mode", "zero-test"), 3),
], ids=["compute-b", "help", "verify-help", "enumerate", "reduce-psi", "reduce-pair",
        "verify", "check-pushforward", "reduce-zero-test"])
def test_budget_env_is_read_only_by_a_check(argv, rounds):
    """The environment is not an input: ``TAUTREL_BUDGET``, once read for the
    rounds of a check, changes neither the exit code nor the output, and a
    check runs its default rounds."""
    env = {k: v for k, v in os.environ.items() if k != "TAUTREL_BUDGET"}

    def result(**extra):
        proc = run_child(*argv, env=dict(env, **extra))
        assert not proc.stderr
        if not proc.stdout.startswith("{"):
            return proc.returncode, proc.stdout
        return proc.returncode, strip_timing(json.loads(proc.stdout))

    code, out = result()
    assert code == 0 and out
    if isinstance(out, dict):
        assert out["budgets"]["rounds"] == rounds
    assert result(TAUTREL_BUDGET="junk") == result(TAUTREL_BUDGET="5") == (code, out)


@pytest.mark.parametrize("mode", ["psi", "pair"])
def test_reduce_outside_zero_test_has_no_budgets(capsys, mode):
    _code, report = run_json(capsys, "reduce", F_BRACKET, "--mode", mode)
    assert report["budgets"] == {"rounds": None, "max_relations": None}
    for flag in ("--budget", "--max-relations"):
        with pytest.raises(SystemExit) as err:
            main(["reduce", F_BRACKET, "--mode", mode, flag, "7"])
        assert err.value.code == 1
        assert "need --mode zero-test" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["zero-test", "pair"])
def test_format_needs_mode_psi(capsys, mode):
    with pytest.raises(SystemExit) as err:
        main(["reduce", F_BRACKET, "--mode", mode, "--format", "latex"])
    assert err.value.code == 1
    assert "--format needs --mode psi" in capsys.readouterr().err


def test_zero_test_budgets_default_and_follow_the_flags(capsys):
    _code, report = run_json(capsys, "reduce", F_BRACKET, "--mode", "zero-test")
    assert report["budgets"] == {"rounds": 3, "max_relations": 200000}
    _code, report = run_json(capsys, "reduce", F_BRACKET, "--mode", "zero-test",
                             "--budget", "2", "--max-relations", "900")
    assert report["budgets"] == {"rounds": 2, "max_relations": 900}


@pytest.mark.parametrize("flag", ["--budget", "--max-relations"])
@pytest.mark.parametrize("value", ["junk", "0", "-3"])
def test_bad_budget_flag_is_a_usage_error(flag, value):
    proc = run_child("verify", "--g", "1", "--m", "2", "--d", "2,1", flag, value)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "%s: must be a positive integer" % flag in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("compute-b", "--g", "1", "--m", "2", "--d", "2,x"),
     "tautrel compute-b: error: argument --d: weights must look like 2,1"),
    (("compute-b", "--g", "1", "--m", "2", "--d", "1,-1"),
     "error: weights must be nonnegative"),
    (("enumerate", "--g", "1", "--n", "0", "--m", "2"),
     "error: need at least one regular leg"),
    (("enumerate", "--g", "1", "--n", "1", "--m", "-1"),
     "error: negative frozen leg count"),
    (("check-pushforward", "--g", "1", "--m", "2", "--l", "0", "--d", "2,1"),
     "tautrel check-pushforward: error: argument --l: must be a positive integer,"
     " not '0'"),
    (("check-pushforward", "--g", "1", "--m", "2", "--l", "-1", "--d", "2,1"),
     "tautrel check-pushforward: error: argument --l: must be a positive integer,"
     " not '-1'"),
    (("check-pushforward", "--g", "1", "--m", "-1", "--l", "1", "--d", "2,1"),
     "error: negative frozen leg count"),
], ids=["d-not-integers", "d-negative", "n-zero", "m-negative", "l-zero", "l-negative",
        "m-negative-pushforward"])
def test_input_errors_exit_1_with_one_line(argv, message):
    proc = run_child(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("argv", [
    ("compute-b", "--g", "1", "--m", "2", "--d", "2,1"),
    ("enumerate", "--g", "1", "--n", "2", "--m", "2"),
], ids=["compute-b", "enumerate"])
@pytest.mark.parametrize("flag", ["--budget", "--max-relations"])
def test_commands_without_a_check_take_no_budgets(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main([*argv, flag, "2"])
    assert err.value.code == 1
    assert "unrecognized arguments: %s 2" % flag in capsys.readouterr().err


def test_console_entry_point():
    proc = run_child("enumerate", "--g", "1", "--n", "1", "--m", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"]["count"] == 2


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The library's records are named tuples, so a CLI process never loads
    ``dataclasses``, nor ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    which ``dataclasses`` would load with it.  ``-S`` keeps the ``.pth``
    files of the environment's site-packages from importing anything."""
    code = ("import sys, tautrel.cli; print(sorted({'dataclasses', 'inspect', 'ast',"
            " 'dis', 'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=child_env(), check=True)
    assert out.stdout == "[]\n"
