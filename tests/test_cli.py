import json
import os
import subprocess
import sys
import time

import pytest

from tautrel import cli, reduce
from tautrel.cli import main
from tautrel.expressions import parse_bracket

from conftest import FIXTURES, fixture_text
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


def run_child(*argv, env=None, **kwargs):
    """Run ``python -m tautrel.cli`` in a child process that imports from ``src/``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tautrel.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


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
    assert parse_bracket(out).psi_free()


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


def test_check_pushforward(capsys):
    code, report = run_json(capsys, "check-pushforward", "--g", "0", "--m", "2",
                            "--l", "1", "--d", "1,1")
    assert code == 0
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
    """A class that cancels to zero has no degree to pair at, and psi
    elimination proves it."""
    path = tmp_path / "cancels.bracket"
    path.write_text("<x1 x2 x3 x4>_0 - <x1 x2 x3 x4>_0\n")
    code, report = run_json(capsys, "reduce", str(path), "--mode", "zero-test")
    assert code == 0
    assert report["outcome"] == {"proved": True, "method": "psi-elimination"}


BIG = 10**100
D12, D13, D14 = ("<x1 %s a>_0 <a* %s>_0" % pair for pair in
                 [("x2", "x3 x4"), ("x3", "x2 x4"), ("x4", "x2 x3")])


def test_large_multiple_of_a_relation_proves(capsys, tmp_path):
    """10^100 times the WDVV relation on M_{0,4}: the solver divides the target
    by its content, so the coefficient does not outrun the primes."""
    path = tmp_path / "big.bracket"
    path.write_text("%d * %s - %d * %s\n" % (BIG, D12, BIG, D13))
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
    path.write_text("%d * %s - %d * %s + %s - %s\n" % (BIG, D12, BIG, D13, D12, D14))
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
    assert printed == json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"


def test_reduce_pair_mode(capsys):
    path = os.path.join(FIXTURES, "b21_raw.bracket")
    code, report = run_json(capsys, "reduce", path, "--mode", "pair")
    assert code == 0
    assert report["outcome"]["all_zero"] is True


@pytest.mark.parametrize("text", [
    "<P^1(U1) U2 U3 U4 U5 W>_0",          # an extra leg at a genus-0 psi site
    "<U1 U2 U3 a>_0 <a* W W>_0",          # more edges than the ambient dimension
    "<P^1(U1) U2 U3 a>_0 <a* W W>_0",
])
def test_reduce_psi_with_extra_legs(capsys, tmp_path, text):
    path = tmp_path / "extras.bracket"
    path.write_text(text)
    code, report = run_json(capsys, "reduce", str(path), "--mode", "psi")
    assert code == 0
    reduced = parse_bracket(report["outcome"]["expression"])
    assert reduced.psi_free()
    assert reduced == reference_eliminate_all_psi(parse_bracket(text))


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


def test_budget_env_variable(monkeypatch):
    from tautrel.cli import default_budget
    monkeypatch.setenv("TAUTREL_BUDGET", "5")
    assert default_budget() == 5
    monkeypatch.setenv("TAUTREL_BUDGET", "junk")
    with pytest.raises(ValueError, match="TAUTREL_BUDGET"):
        default_budget()


@pytest.mark.parametrize("value", ["junk", "2.5", "", "0", "-1"])
def test_bad_budget_env_is_a_usage_error(value):
    env = dict(os.environ, TAUTREL_BUDGET=value)
    proc = run_child("verify", "--g", "1", "--m", "2", "--d", "2,1", env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "TAUTREL_BUDGET" in proc.stderr


@pytest.mark.parametrize("flag", ["--budget", "--max-relations"])
@pytest.mark.parametrize("value", ["junk", "0", "-3"])
def test_bad_budget_flag_is_a_usage_error(flag, value):
    proc = run_child("verify", "--g", "1", "--m", "2", "--d", "2,1", flag, value)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "%s: must be a positive integer" % flag in proc.stderr


def test_console_entry_point():
    proc = run_child("enumerate", "--g", "1", "--n", "1", "--m", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"]["count"] == 2
