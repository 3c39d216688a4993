import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from legsums import randmodel
from legsums.cli import main
from test_acceptance import DENSITY_TABLE_1000, DENSITY_TABLE_10000

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_density_verify_pass(capsys):
    code, out = run(capsys, "density", "--alpha", "2/5", "--primes", "1000",
                    "--verify", "896")
    assert code == 0
    assert "896" in out


def test_density_verify_fail(capsys):
    code, _ = run(capsys, "density", "--alpha", "2/5", "--primes", "1000",
                  "--verify", "895")
    assert code == 1


def test_density_alpha_zero(capsys):
    code, out = run(capsys, "density", "--alpha", "0", "--primes", "10",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["nonneg"] == 10


def test_density_json_csv_key_match(capsys):
    _, csv_out = run(capsys, "density", "--alpha", "1/3", "--primes", "50")
    _, json_out = run(capsys, "density", "--alpha", "1/3", "--primes", "50",
                      "--format", "json")
    header = csv_out.strip().splitlines()[0].split(",")
    assert header == list(json.loads(json_out))


def test_density_thread_invariance(monkeypatch, capsys):
    # 12300 primes run past 131071: on four usable cores the primes above it
    # are counted in a pool of four threads, on one core on the calling thread
    outs = []
    for cores in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        outs.append(run(capsys, "density", "--alpha", "3/8", "--primes", "12300"))
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_density_output_bytes_and_verify(capsys):
    base = ["density", "--alpha", "2/5", "--primes", "1000"]
    code, out = run(capsys, *base, "--format", "json")
    assert code == 0
    assert out == (
        '{"alpha": "2/5", "primes": 1000, "nonneg": 896, "strictpos": 879, "zero": 17, '
        '"nonneg_1mod4": 391, "nonneg_3mod4": 504, "mode": "ge"}\n'
    )
    code, out = run(capsys, *base, "--mode", "gt")
    assert code == 0
    assert out == (
        "alpha,primes,nonneg,strictpos,zero,nonneg_1mod4,nonneg_3mod4,mode\n"
        "2/5,1000,896,879,17,391,504,gt\n"
    )
    # --verify reads the count the mode selects: nonneg for ge, strictpos for gt
    for mode, count in (("ge", 896), ("gt", 879)):
        for verify, expected_code in ((count, 0), (count - 1, 1)):
            code = main(base + ["--mode", mode, "--verify", str(verify)])
            captured = capsys.readouterr()
            assert code == expected_code, (mode, verify)
            assert captured.err == ("" if code == 0 else
                                    f"verify failed: expected {verify}, got {count}\n")


@pytest.mark.parametrize("argv", [
    ["density", "--alpha", "2/5", "--primes", "100"],
    ["dirichlet", "--max-p", "100"],
    ["fourier-check", "--alpha", "2/5", "--p", "101", "--truncation", "100"],
    ["simulate", "--alpha", "1/3", "--samples", "50", "--prime-cutoff", "100"],
    ["decompose", "--alpha", "1/4", "--parity", "minus"],
    ["moments", "--alpha", "1/3", "--parity", "minus", "--truncation", "100",
     "--samples", "50"],
    ["certify", "--alpha", "1/3"],
    ["constants"],
], ids=lambda argv: argv[0])
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    path = tmp_path / "out.txt"
    code, out = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out and path.read_text() == out


@pytest.mark.parametrize("argv,target", [
    (["constants"], "missing/x.csv"),
    (["density", "--alpha", "2/5", "--primes", "100"], "."),
], ids=["missing-dir", "is-a-directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target):
    path = tmp_path / target
    code = main(argv + ["--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"legsums: error: --out {path}")


def _assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("legsums: error: ")
    return lines[0]


HUGE = str(10**22)


@pytest.mark.parametrize("argv", [
    ["density", "--alpha", "1/3", "--primes", HUGE],
    ["dirichlet", "--max-p", HUGE],
    ["simulate", "--alpha", "1/3", "--samples", HUGE],
    ["simulate", "--alpha", "1/3", "--prime-cutoff", HUGE],
    ["simulate", "--alpha", "1/3", "--evaluator", "series", "--truncation", HUGE],
    ["moments", "--alpha", "1/3", "--parity", "minus", "--truncation", HUGE],
    ["fourier-check", "--alpha", "1/3", "--p", "101", "--truncation", HUGE],
    ["positivity-table", "--samples", HUGE],
    ["positivity-table", "--prime-cutoff", HUGE],
    ["certification-chain", "--prime-cutoff", HUGE],
], ids=["density-primes", "dirichlet-max-p", "simulate-samples", "simulate-prime-cutoff",
        "simulate-series-truncation", "moments-truncation", "fourier-check-truncation",
        "positivity-table-samples", "positivity-table-prime-cutoff",
        "certification-chain-prime-cutoff"])
def test_size_numpy_cannot_index_is_a_usage_error(capsys, argv):
    # 10^22 is past int64, where numpy indexes nothing: argparse refuses it
    # before any work and names the flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: " in captured.err and repr(HUGE) in captured.err


def test_refused_allocation_is_a_usage_error(monkeypatch, capsys):
    from legsums import charsum

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(charsum, "density_scan", refuse)
    # a MemoryError raised without a message is named by its type
    line = _assert_one_error_line(capsys, main(["density", "--alpha", "1/3", "--primes", "10"]))
    assert line == "legsums: error: MemoryError"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--alpha", "1/3", "--primes", "10", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dirichlet_passes(capsys):
    code, out = run(capsys, "dirichlet", "--max-p", "200")
    assert code == 0
    assert "True" in out


def test_fourier_check_rows(capsys):
    code, out = run(capsys, "fourier-check", "--alpha", "2/5", "--p", "101",
                    "--truncation", "1000", "10000", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[1]["abs_error"] < rows[0]["abs_error"]


def test_simulate_combined(capsys):
    code, out = run(capsys, "simulate", "--alpha", "1/3", "--samples", "100",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)
    parities = [r["parity"] for r in rows]
    assert parities == ["plus", "minus", "combined"]
    assert rows[2]["nonneg_fraction"] == 1.0


def test_simulate_seed_reproducible(capsys):
    _, a = run(capsys, "simulate", "--alpha", "1/5", "--samples", "200",
               "--seed", "3")
    _, b = run(capsys, "simulate", "--alpha", "1/5", "--samples", "200",
               "--seed", "3")
    assert a == b


def test_simulate_series_both_parities_match_single_runs(capsys):
    argv = ["simulate", "--alpha", "1/5", "--evaluator", "series", "--samples", "300",
            "--truncation", "3000", "--seed", "2", "--format", "json"]
    _, both = run(capsys, *argv)
    rows = json.loads(both)
    for parity, row in zip(("plus", "minus"), rows):
        _, single = run(capsys, *argv, "--parity", parity)
        assert json.loads(single) == [row]


def test_moments_direct_matches_moment_direct(capsys):
    from fractions import Fraction

    from legsums import randmodel

    code, out = run(capsys, "moments", "--alpha", "1/4", "--parity", "minus",
                    "--k", "2", "3", "4", "5", "--truncation", "300",
                    "--samples", "500", "--format", "json")
    assert code == 0
    c = randmodel.CoefficientSpec("minus", Fraction(1, 4)).coefficients(300)
    for row in json.loads(out):
        expected = randmodel.moment_direct(c, row["k"])
        assert row["direct"] == pytest.approx(expected, rel=1e-12)


def test_bad_threads_flag_exits_2(capsys):
    # a scan picks its own threads: density has no --threads option
    with pytest.raises(SystemExit) as exc:
        main(["density", "--alpha", "1/3", "--primes", "10", "--threads", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --threads 2" in captured.err


def test_simulate_unsupported_alpha_exits_2(capsys):
    code = main(["simulate", "--alpha", "1/7", "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "1/7" in lines[0] and "supported alphas: 0, 1/12" in lines[0]


@pytest.mark.parametrize("argv", [
    ["moments", "--k", "7"],
    ["moments", "--k", "0"],
    ["moments", "--truncation", "0"],
    ["moments", "--samples", "1"],
    ["moments", "--samples", "0"],
    ["simulate", "--samples", "0"],
], ids=["k7", "k0", "truncation0", "samples1", "samples0", "simulate-samples0"])
def test_bad_numeric_input_exits_2(capsys, argv):
    extra = ["--parity", "minus"] if argv[0] == "moments" else []
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--alpha", "1/3"] + extra + argv[1:])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err


@pytest.mark.parametrize("argv,flag,bad", [
    (["density", "--alpha", "1/0", "--primes", "10"], "--alpha", "1/0"),
    (["simulate", "--alpha", "1/0", "--samples", "10"], "--alpha", "1/0"),
    (["moments", "--alpha", "1/0", "--parity", "minus"], "--alpha", "1/0"),
    (["certify", "--alpha", "abc"], "--alpha", "abc"),
    (["decompose", "--alpha", "1/0", "--parity", "plus"], "--alpha", "1/0"),
    (["fourier-check", "--alpha", "2/5", "--p", "101", "--truncation", "0"], "--truncation", "0"),
    (["density", "--alpha", "1.5", "--primes", "10"], "--alpha", "1.5"),
    (["density", "--alpha", "2/5", "--primes", "0"], "--primes", "0"),
    (["simulate", "--alpha", "1/3", "--prime-cutoff", "0"], "--prime-cutoff", "0"),
    (["simulate", "--alpha", "1/3", "--prime-cutoff", "1"], "--prime-cutoff", "1"),
    (["moments", "--alpha", "2", "--parity", "plus"], "--alpha", "2"),
    (["simulate", "--evaluator", "series", "--alpha", "1.5"], "--alpha", "1.5"),
    (["certify", "--alpha", "5"], "--alpha", "5"),
    (["dirichlet", "--max-p", "2", "--all"], "--max-p", "2"),
    (["dirichlet", "--max-p", "0"], "--max-p", "0"),
    (["dirichlet", "--max-p", "-5"], "--max-p", "-5"),
    (["positivity-table", "--samples", "0"], "--samples", "0"),
    (["positivity-table", "--prime-cutoff", "1"], "--prime-cutoff", "1"),
    (["positivity-table", "--samples", str(2**63)], "--samples", str(2**63)),
    (["certification-chain", "--prime-cutoff", "50"], "--prime-cutoff", "50"),
], ids=["density-1/0", "simulate-1/0", "moments-1/0", "certify-abc", "decompose-1/0",
        "fourier-truncation0", "density-alpha1.5", "density-primes0",
        "simulate-prime-cutoff0", "simulate-prime-cutoff1", "moments-alpha2",
        "simulate-series-alpha1.5", "certify-alpha5", "dirichlet-max-p2",
        "dirichlet-max-p0", "dirichlet-max-p-5", "positivity-table-samples0",
        "positivity-table-prime-cutoff1", "positivity-table-samples-2^63",
        "certification-chain-prime-cutoff50"])
def test_bad_argument_is_a_usage_error(capsys, argv, flag, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err and repr(bad) in captured.err


def test_fourier_check_composite_p_exits_2(capsys):
    code = main(["fourier-check", "--alpha", "2/5", "--p", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "needs a prime, got 100" in lines[0]


def test_fourier_check_huge_prime_is_refused_at_once():
    # p = 2^61 - 1 is prime; trial division up to sqrt(p) ran for minutes
    # before the p-sized table was refused
    argv = ["fourier-check", "--alpha", "1/3", "--p", str(2**61 - 1), "--truncation", "10"]
    proc = subprocess.run([sys.executable, "-m", "legsums.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("legsums: error: ")


def test_fourier_check_boundary_is_exact_for_floats(capsys):
    # the float nearest 1/3 sits just above it, so 3 alpha is not an integer
    code, out = run(capsys, "fourier-check", "--alpha", "0.33333333333333337", "--p", "3",
                    "--truncation", "100")
    assert code == 0
    assert out.splitlines()[1].startswith("0.33333333333333337,3,100,1,")
    code = main(["fourier-check", "--alpha", "0.0", "--p", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "alpha*p integral" in captured.err


def test_decompose_table(capsys):
    code, out = run(capsys, "decompose", "--alpha", "1/4", "--parity", "minus")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two terms


def test_decompose_unsupported(capsys):
    code = main(["decompose", "--alpha", "1/7", "--parity", "minus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "1/7" in lines[0] and "supported alphas: 0, 1/12" in lines[0]


def test_simulate_names_a_float_alpha_as_typed(capsys):
    # simulate keeps a decimal's binary float, which is not 1/5; the error
    # names it as typed and says how to ask for the fraction
    code = main(["simulate", "--alpha", "0.2", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("legsums: error: no decomposition for alpha=0.2 ")
    assert "write 1/5 for the fraction" in lines[0]
    assert "3602879701896397" not in lines[0]
    # a decimal no supported fraction spells gets no such hint
    assert main(["simulate", "--alpha", "0.3", "--samples", "10"]) == 2
    assert "alpha=0.3, parity=plus" in capsys.readouterr().err
    # a float that stores a supported fraction exactly is that fraction
    _, half = run(capsys, "simulate", "--alpha", "0.5", "--samples", "10")
    _, fraction = run(capsys, "simulate", "--alpha", "1/2", "--samples", "10")
    assert half.replace("\n0.5,", "\n1/2,") == fraction


def test_decompose_reads_decimals_exactly(capsys):
    # 0.2 is read as the fraction it spells, not as the binary float near it
    _, decimal = run(capsys, "decompose", "--alpha", "0.2", "--parity", "plus")
    _, fraction = run(capsys, "decompose", "--alpha", "1/5", "--parity", "plus")
    assert decimal == fraction
    assert "chi_5_1" in decimal


@pytest.mark.parametrize("parity", ["plus", "minus"])
@pytest.mark.parametrize("alpha", [str(a) for a in randmodel.SUPPORTED_ALPHAS])
def test_decompose_json_reads_back_exactly(capsys, alpha, parity):
    code, out = run(capsys, "decompose", "--alpha", alpha, "--parity", parity, "--format", "json")
    assert code == 0
    terms = randmodel.decompose_rational(Fraction(alpha), parity).terms
    rows = json.loads(out)
    if not terms:
        assert [r["character"] for r in rows] == ["(empty)"]
        return
    assert len(rows) == len(terms)
    for row, t in zip(rows, terms):
        assert complex(row["coeff"]) == complex(t.coeff)
        assert [complex(v) for v in row["values"].split()] == [complex(v) for v in t.chi.values]
        assert (row["character"], row["period"], row["dilation"]) == (
            t.chi.name, t.chi.period, t.dilation)


def test_moments_output(capsys):
    code, out = run(capsys, "moments", "--alpha", "1/3", "--parity", "minus",
                    "--k", "1", "2", "--truncation", "1000",
                    "--samples", "2000", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(abs(r["z"]) < 4 for r in rows)


def test_moments_every_order_has_a_z(capsys):
    argv = ["moments", "--alpha", "1/3", "--parity", "minus", "--truncation", "300",
            "--samples", "500"]
    code = main(argv + ["--k", "2", "3", "5", "6"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert [line.rsplit(",", 1)[1] != "" for line in lines[1:]] == [True] * 4
    assert captured.err == ""
    # the k <= 4 rows do not change when k = 5, 6 are asked for too
    code = main(argv + ["--k", "2", "3"])
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == lines[:3]
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["moments", "--alpha", "1/3", "--parity", "minus", "--samples", "2000"],
    ["simulate", "--alpha", "1/12", "--samples", "2500", "--prime-cutoff", "10000"],
    # 1/5 plus reads the complex columns of the Euler products
    ["simulate", "--alpha", "1/5", "--evaluator", "euler", "--samples", "2500",
     "--prime-cutoff", "10000"],
    ["fourier-check", "--alpha", "2/5", "--p", "101"],
    # at M = 10^6 the series engine's large-prime products are wide
    ["fourier-check", "--alpha", "1/3", "--p", "10007", "--truncation", "1000000"],
    ["moments", "--alpha", "1/3", "--parity", "minus", "--k", "5", "6", "--truncation", "3000",
     "--samples", "2000"],
], ids=["moments", "simulate", "simulate-fifth", "fourier-check", "fourier-check-wide",
        "moments-k5-k6"])
def test_output_does_not_depend_on_blas_threads(argv):
    # OpenBLAS splits long dot products and matrix products across its
    # threads, which can change the last bits of a sum
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "legsums.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("N,k", [(11449, ["5"]), (11449, ["2", "6"]), (20000, ["6"])])
def test_moments_refuses_k5_above_27_small_primes(monkeypatch, capsys, N, k):
    from legsums import randmodel

    def refuse(*args):
        raise AssertionError("the refused pass did work")

    monkeypatch.setattr(randmodel, "_kernel_weights", refuse)
    monkeypatch.setattr(randmodel, "sample_series_matrix", refuse)
    code = main(["moments", "--alpha", "1/3", "--parity", "minus", "--truncation", str(N),
                 "--k", *k])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("legsums: error: ") and "11449" in lines[0]


def test_certify_json(capsys):
    code, out = run(capsys, "certify", "--alpha", "0.333335333")
    assert code == 0
    rep = json.loads(out)
    assert rep["certified"] is True
    assert rep["c_lower"] >= 0.534
    assert set(rep) == {
        "alpha", "delta", "d_minus", "d_plus", "u_minus", "u_plus",
        "p_neg_minus", "p_neg_plus", "c_lower", "certified",
    }


def test_constants_table(capsys):
    code, out = run(capsys, "constants", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    names = [r["constant"] for r in rows]
    assert any("sigma2" in n for n in names)
    assert any("c_lower" in n for n in names)
    by_name = {r["constant"]: r for r in rows}
    assert by_name["zeta(4/3)^3/zeta(8/3) * 2^(4/3)"]["recomputed"] < 92


def test_seeds_past_int64_are_distinct_samples(capsys):
    # the two samples are seeds 2^63 - 1 and 2^63; equal ones would give mc_se 0
    code, out = run(capsys, "moments", "--alpha", "1/3", "--parity", "plus", "--seed",
                    str(2**63 - 1), "--samples", "2", "--truncation", "10", "--format", "json")
    assert code == 0
    assert all(row["mc_se"] > 0 for row in json.loads(out))
    # seeds are read mod 2^64: -1 is 2^64 - 1, and below -2^63 still runs
    simulate = ("simulate", "--alpha", "1/3", "--samples", "3", "--truncation", "1000", "--seed")
    assert run(capsys, *simulate, str(2**64 - 1)) == run(capsys, *simulate, "-1")
    assert run(capsys, *simulate, str(-(2**63) - 1))[0] == 0


def test_help_lists_the_report_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in ("density-table", "positivity-table", "certification-chain"))


def test_density_table_matches_pinned_counts(capsys):
    code, out = run(capsys, "density-table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["alpha", "primes", "nonneg", "strict", "1mod4", "3mod4"]
    counts = {(label, int(n)): int(nonneg) for label, n, nonneg, *_ in map(str.split, lines[1:])}
    assert len(counts) == 10
    for size, table in ((1000, DENSITY_TABLE_1000), (10000, DENSITY_TABLE_10000)):
        labels = ["2/5", "3/8", "1/12", "1/(2pi)", "1/e"]
        assert [counts[label, size] for label in labels] == [count for _, count in table]


def test_positivity_table_agrees_with_simulate(capsys):
    code, out = run(capsys, "positivity-table", "--samples", "300", "--seed", "7")
    assert code == 0
    rows = {row[0]: row[1:] for row in map(str.split, out.splitlines()[1:])}
    assert list(rows) == [str(alpha) for alpha in randmodel.SUPPORTED_ALPHAS]
    for alpha, (plus_strict, plus_nonneg, minus_strict, minus_nonneg, _) in rows.items():
        assert float(plus_strict) <= float(plus_nonneg), alpha
        assert float(minus_strict) <= float(minus_nonneg), alpha
    # simulate's Euler evaluator at the same samples, seed and cutoff
    _, sim = run(capsys, "simulate", "--alpha", "1/5", "--samples", "300", "--seed", "7",
                 "--format", "json")
    plus, minus, combined = json.loads(sim)
    expected = [plus["strict_fraction"], plus["nonneg_fraction"], minus["strict_fraction"],
                minus["nonneg_fraction"], combined["nonneg_fraction"]]
    assert rows["1/5"] == [f"{x:.4f}" for x in expected]


def test_certification_chain_marks_the_certified_radius(capsys):
    code, out = run(capsys, "certification-chain")
    assert code == 0
    marked = [line for line in out.splitlines() if line.endswith("<- certified radius")]
    assert len(marked) == 1 and marked[0].split()[0] == "2.0e-06"


def test_certification_chain_small_cutoff_fails_with_exit_1(capsys):
    # below 1340 the partial sum plus its tail is not below sigma2 = 0.395
    code = main(["certification-chain", "--prime-cutoff", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: variance bound violated")

