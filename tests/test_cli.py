import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import latpack
from latpack import cli, codes, lift
from latpack.cli import run
from latpack.craig import MAX_L, MAX_N, read_basis
from latpack.exactnum import gram_det, is_prime, next_prime


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


def test_density_report():
    code, out = invoke("density", "--n", "52", "--m", "6", "--l", "53", "--k", "1")
    assert code == 0
    assert "10.705" in out
    assert "n=52 m=6 l=53" in out


@pytest.mark.parametrize("argv", [
    pytest.param(["density", "--n", "52", "--m", "6", "--l", "54"], id="k0"),
    pytest.param(["density", "--n", "52", "--m", "6", "--l", "54", "--k", "1"], id="k1"),
    # l = 53 is prime, but 8m = 56 > n+1 = 53: no [53, 1, 56] code exists.
    pytest.param(["density", "--n", "52", "--m", "7", "--l", "53", "--k", "1"],
                 id="d-above-length"),
    pytest.param(["conditional", "--n", "128", "--m", "4", "--l", "133", "--req-n", "128",
                  "--req-k", "59", "--req-d", "32"], id="conditional"),  # 133 = 7 * 19
    pytest.param(["construct", "--n", "10", "--m", "2", "--l", "12"], id="construct"),
    pytest.param(["lift", "--n", "10", "--m", "1", "--l", "12"], id="lift"),
])
def test_density_composite_l_prints_nothing(argv, tmp_path):
    # A composite l backs no norm bound, and a code with d > its length backs
    # no 8m: CraigParams, cmd_density or CodeSpec refuses each before the
    # first line.
    code = tmp_path / "code.txt"
    code.write_text("2 10 1\n" + " ".join(["1"] * 10) + "\n")  # [10, 1, 10] >= 8m
    if argv[0] == "lift":
        argv = argv + ["--code", str(code)]
    assert invoke(*argv) == (2, "")


def test_density_names_8m_and_code_length(capsys):
    # The refusal names the code length n+1, not the CodeSpec's own n.
    assert invoke("density", "--n", "52", "--m", "7", "--l", "53", "--k", "1") == (2, "")
    assert capsys.readouterr().err == (
        "error: no code of length n+1 = 53 reaches distance 8m = 56\n")


def test_gv_report():
    code, out = invoke("gv", "--n", "4096", "--d", "1024")
    assert code == 0
    assert "781" in out
    assert "772" in out


def test_construct_rows():
    code, out = invoke("construct", "--n", "2", "--m", "1", "--l", "3")
    assert code == 0
    assert out.splitlines() == ["3 2", "-1 1 0", "0 -1 1"]


def test_construct_verify_round_trip(tmp_path):
    path = tmp_path / "basis.txt"
    code, _ = invoke("construct", "--n", "6", "--m", "2", "--l", "7", "--out", str(path))
    assert code == 0
    with open(path) as fh:
        lat = read_basis(fh)
    assert gram_det(lat.basis) == 343
    code, out = invoke("verify", "--basis", str(path), "--bound", "4")
    assert code == 0
    assert "holds" in out
    code, out = invoke("verify", "--basis", str(path), "--bound", "5")
    assert code == 0
    assert "violated" in out and "witness" in out


def test_lift_subcommand(tmp_path):
    gen = tmp_path / "rep.txt"
    gen.write_text("2 12 1\n" + " ".join(["1"] * 12) + "\n")
    code, out = invoke("lift", "--n", "12", "--m", "1", "--l", "13", "--code", str(gen))
    assert code == 0
    assert "k=1" in out and "constructed basis rank 12" in out


def _count_walks(monkeypatch) -> list:
    """Record (n, k) of every code whose codewords `codes.min_distance` walks."""
    walks = []
    walk = codes.min_distance

    def counted(c):
        walks.append((c.n, c.k))
        return walk(c)

    monkeypatch.setattr(codes, "min_distance", counted)
    return walks


def test_lift_walks_each_code_once(tmp_path, monkeypatch):
    # Parity extension takes d + (d mod 2) by rule, so a length-n code is
    # walked once, when it is read; [31, 2, 9] extends to [32, 2, 10].
    walks = _count_walks(monkeypatch)
    gen = tmp_path / "odd.txt"
    gen.write_text("2 31 2\n" + " ".join(["1"] * 9 + ["0"] * 22) + "\n"
                   + " ".join(["0"] * 22 + ["1"] * 9) + "\n")
    code, out = invoke("lift", "--n", "31", "--m", "1", "--l", "37", "--code", str(gen))
    assert code == 0
    assert "code: [31,2,9]" in out and "min norm guarantee: 8" in out
    assert walks == [(31, 2)]
    walks.clear()
    gen.write_text("2 32 2\n" + " ".join(["1"] * 10 + ["0"] * 22) + "\n"
                   + " ".join(["0"] * 22 + ["1"] * 10) + "\n")
    code, out = invoke("lift", "--n", "31", "--m", "1", "--l", "37", "--code", str(gen))
    assert code == 0 and "code: [32,2,10]" in out
    assert walks == [(32, 2)]


@pytest.mark.parametrize("q, n, k", [(4, 16, 12), (4, 16, 14), (2, 18, 3)])
def test_lift_rejects_by_header_before_any_walk(tmp_path, monkeypatch, q, n, k):
    # Non-binary or wrong-length files exit 2 before a codeword is visited;
    # 4^14 codewords exceed the enumeration cap, which is never reached.
    walks = _count_walks(monkeypatch)
    gen = tmp_path / "gen.txt"
    rows = [[int(j == i) if j < k else (i + j) % q for j in range(n)] for i in range(k)]  # [I | A]
    gen.write_text(f"{q} {n} {k}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    assert invoke("lift", "--n", "15", "--m", "1", "--l", "17", "--code", str(gen)) == (2, "")
    assert walks == []


def test_rows_past_the_header_count_exit_2(tmp_path):
    # The header declares two rows; a third would be left out of the
    # certificate, so the file is rejected rather than half read.
    basis = tmp_path / "basis.txt"
    basis.write_text("3 2\n-1 1 0\n0 -1 1\n1 0 -1\n")
    assert invoke("verify", "--basis", str(basis), "--bound", "2") == (2, "")
    basis.write_text("3 2\n-1 1 0\n0 -1 1\n\n  \n")  # trailing blank lines are fine
    code, out = invoke("verify", "--basis", str(basis), "--bound", "2")
    assert code == 0 and "holds" in out
    gen = tmp_path / "rep.txt"
    extra = " ".join(["1", "1"] + ["0"] * 10)
    gen.write_text("2 12 1\n" + " ".join(["1"] * 12) + "\n" + extra + "\n")
    assert invoke("lift", "--n", "12", "--m", "1", "--l", "13", "--code", str(gen)) == (2, "")


def test_exit_codes(tmp_path, monkeypatch):
    assert run(["nosuchcommand"], io.StringIO()) == 2
    assert run(["density", "--n", "4", "--m", "9", "--l", "5"], io.StringIO()) == 2
    assert run(["construct", "--n", "600"], io.StringIO()) == 3
    assert run(["table", "--id", "11"], io.StringIO()) == 2
    # The 2m norm guarantee needs a prime l; 55 = 5 * 11.
    assert run(["density", "--n", "52", "--m", "6", "--l", "55"], io.StringIO()) == 2
    # A strong pseudoprime to the twelve bases 2..37 (Sorenson & Webster 2017),
    # and above MAX_L.
    assert run(["density", "--n", "52", "--m", "6", "--l", "318665857834031151167461"],
               io.StringIO()) == 2
    # k > n: no subcode of the [n+1, n, 2] even-weight code has dimension k.
    assert run(["density", "--n", "52", "--m", "6", "--l", "53", "--k", "999"],
               io.StringIO()) == 2
    # Precision is capped at 1000 digits, so every precision answers promptly.
    start = time.perf_counter()
    assert run(["--precision", "1001", "density", "--n", "52"], io.StringIO()) == 2
    assert run(["--precision", "100000", "density", "--n", "52"], io.StringIO()) == 2
    assert run(["--precision", "1000", "density", "--n", "52"], io.StringIO()) == 0
    assert time.perf_counter() - start < 10
    # Outside input is converted where it is read.
    assert run(["table", "--id", "1", "--tolerance", "1/0"], io.StringIO()) == 2
    assert run(["table", "--id", "1", "--tolerance", "-1"], io.StringIO()) == 2
    assert run(["compare", "--dim", "4096", "--value", "1/0"], io.StringIO()) == 2
    assert run(["compare", "--dim", "4096", "--value", "x"], io.StringIO()) == 2
    basis = tmp_path / "basis.txt"
    basis.write_text("3 2\n1 -1 0\n0 one -1\n")
    assert run(["verify", "--basis", str(basis), "--bound", "2"], io.StringIO()) == 2
    basis.write_bytes(bytes(range(128, 256)))
    assert run(["verify", "--basis", str(basis), "--bound", "2"], io.StringIO()) == 2
    gen = tmp_path / "gen.txt"
    gen.write_text("2 12 1\n" + " ".join(["1"] * 11) + " 1e0\n")
    assert run(["lift", "--n", "12", "--m", "1", "--l", "13", "--code", str(gen)],
               io.StringIO()) == 2
    monkeypatch.setenv("LATPACK_PRECISION", "four")
    assert run(["density", "--n", "52"], io.StringIO()) == 2


def test_table_subcommand():
    code, out = invoke("table", "--id", "1")
    assert code == 0
    assert "2908.8254" in out
    code, out = invoke("table", "--id", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "table,dim,computed,stated,diff,agrees,note"


def test_compare_subcommand():
    code, out = invoke("compare", "--dim", "4096", "--value", "11529")
    assert code == 0
    assert "beats by 2.0000" in out


def test_sweep_and_pipelines():
    code, out = invoke("sweep", "--n", "100")
    assert code == 0 and "log2 center density" in out
    code, out = invoke("pipeline24", "--dim", "4104")
    assert code == 0 and "11555.3287" in out
    code, out = invoke("mwbeat", "--p", "1667")
    assert code == 0 and "8921.2677" in out and "8895.4142" in out


def test_conditional_subcommand():
    code, out = invoke(
        "conditional", "--n", "128", "--m", "4", "--l", "131",
        "--req-n", "128", "--req-k", "59", "--req-d", "32",
    )
    assert code == 0
    assert "98.3941" in out and "open" in out
    # Griesmer: a [20, 20, 8] code needs length 8 + 4 + 2 + 1 + 16 = 31.
    code, out = invoke(
        "conditional", "--n", "20", "--m", "1", "--l", "23",
        "--req-n", "20", "--req-k", "20", "--req-d", "8",
    )
    assert code == 0
    assert "status: refuted-by-bound" in out


def test_precision_flag():
    code, out = invoke("--precision", "6", "density", "--n", "2", "--m", "1", "--l", "3")
    assert code == 0
    assert "-1.792481" in out
    # Margins keep 4 decimals whatever the precision.
    code, out = invoke("--precision", "8", "compare", "--dim", "4096", "--value", "11529")
    assert (code, out.splitlines()[-1]) == (0, "candidate 11529: beats by 2.0000")


def test_invalid_precision_prints_nothing(tmp_path, monkeypatch):
    gen = tmp_path / "rep.txt"
    gen.write_text("2 20 1\n" + " ".join(["1"] * 20) + "\n")
    basis = tmp_path / "basis.txt"
    assert invoke("construct", "--n", "6", "--m", "2", "--l", "7", "--out", str(basis))[0] == 0
    # Every subcommand, including those that print no logarithm.
    commands = [["construct", "--n", "20"],
                ["density", "--n", "20"],
                ["lift", "--n", "20", "--m", "1", "--l", "23", "--code", str(gen)],
                ["gv", "--n", "100", "--d", "10"],
                ["verify", "--basis", str(basis), "--bound", "4"],
                ["table", "--id", "1"],
                ["sweep", "--n", "100"],
                ["mwbeat", "--p", "1667"],
                ["pipeline24", "--dim", "4104"],
                ["conditional", "--n", "20", "--m", "1", "--l", "23",
                 "--req-n", "20", "--req-k", "20", "--req-d", "8"],
                ["compare", "--dim", "4096", "--value", "11529"]]
    for argv in commands:
        for digits in ("0", "-1", "1001"):
            assert invoke("--precision", digits, *argv) == (2, ""), (digits, argv)
        monkeypatch.setenv("LATPACK_PRECISION", "0")
        assert invoke(*argv) == (2, ""), argv
        monkeypatch.delenv("LATPACK_PRECISION")
        assert invoke(*argv)[0] == 0, argv


def test_negative_rational_flag_with_exponent(capsys):
    # argparse takes -1e999 for an option unless it is joined to its flag.
    code, out = invoke("compare", "--dim", "4096", "--value", "-1e999")
    assert code == 0 and "candidate -1e999: below by" in out
    assert invoke("compare", "--dim", "4096", "--value=-1e999") == (code, out)
    capsys.readouterr()
    assert invoke("table", "--id", "1", "--tolerance", "-1e-3") == (2, "")
    assert "--tolerance must be >= 0, got -1e-3" in capsys.readouterr().err


def test_internal_value_error_propagates(monkeypatch):
    def broken(n):
        raise ValueError("internal bug")

    monkeypatch.setattr(lift, "sweep_dimension", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["sweep", "--n", "100"], io.StringIO())


def _child(argv, timeout=60, stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    """latpack run in a child process; a hang fails the test at the timeout."""
    src = str(Path(latpack.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-m", "latpack.cli", *argv], env=env, timeout=timeout,
                          stdout=stdout, stderr=subprocess.DEVNULL, text=True)


def _exit_code_within(argv, timeout=60) -> int:
    return _child(argv, timeout).returncode


def test_one_process_answers_as_fresh_processes():
    # The parser is shared by every run in a process: a failed parse and an
    # earlier --k leave nothing behind for the next call.
    calls = [
        ["density", "--n", "52", "--m", "6", "--k", "x"],
        ["density", "--n", "52", "--m", "6", "--l", "53", "--k", "1"],
        ["density", "--n", "52", "--m", "6", "--l", "53"],
        ["density", "--n", "52", "--m", "6", "--l", "53", "--k", "1", "--l", "52"],
        ["density", "--n", "52", "--m", "6", "--l", "53"],
    ]
    in_process = [invoke(*argv) for argv in calls]
    fresh = [_child(argv, stdout=subprocess.PIPE) for argv in calls]
    assert in_process == [(c.returncode, c.stdout) for c in fresh]
    assert [code for code, _ in in_process] == [2, 0, 0, 2, 0]
    assert "k=1" in in_process[1][1] and "k=0" in in_process[2][1]


def test_parser_is_built_once():
    cli.build_parser.cache_clear()
    invoke("gv", "--n", "100", "--d", "10")
    invoke("gv", "--n", "100")  # exit 2: --d is required
    invoke("compare", "--dim", "4096", "--value", "1")
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_size_inputs_answer_in_bounded_time(tmp_path):
    # n <= MAX_N and l <= MAX_L bound every exact integer a subcommand builds:
    # at the caps each subcommand with a size input answers, just above them
    # it exits 2, and none runs past the timeout.
    n, m = str(MAX_N), str(MAX_N // 8)
    l = MAX_L
    while not is_prime(l):
        l -= 1
    top, over = str(l), str(next_prime(MAX_L + 1))
    code = tmp_path / "code.txt"
    code.write_text(f"2 {MAX_N} 1\n" + " ".join(["1"] * MAX_N) + "\n")  # [n, 1, n]
    ambient = tmp_path / "ambient.txt"
    ambient.write_text("2 512 1\n" + " ".join(["1"] * 512) + "\n")  # [512, 1, 512]
    huge_prime = "1000000000000000000000000007"  # above exactnum._MR_LIMIT
    at_caps = [
        # the largest l^(2(m-1)); a lift needs 8m <= n+1, so it takes m = n/8
        (["density", "--n", n, "--m", str((MAX_N + 1) // 2), "--l", top], 0),
        (["density", "--n", n, "--m", m, "--l", top, "--k", n], 0),
        (["construct", "--n", "10", "--m", "2", "--l", top], 0),
        (["construct", "--n", n], 3),  # basis construction stops at ambient 512
        (["lift", "--n", n, "--m", m, "--l", top, "--code", str(code)], 0),
        # the lift above builds no basis; this one builds it at ambient 512
        (["lift", "--n", "511", "--m", "1", "--l", "521", "--code", str(ambient)], 0),
        # 8m = 512 = d: the largest m a length-512 code supports
        (["lift", "--n", "511", "--m", "64", "--l", "521", "--code", str(ambient)], 0),
        (["gv", "--n", n, "--d", n], 0),
        (["sweep", "--n", n], 0),
        (["conditional", "--n", n, "--m", m, "--l", top, "--req-n", str(MAX_N + 1),
          "--req-k", "1", "--req-d", n], 0),
        (["mwbeat", "--p", "2039"], 0),
        (["pipeline24", "--dim", "8640"], 0),
    ]
    above_caps = [
        ["density", "--n", str(MAX_N + 1), "--m", "2"],
        ["density", "--n", "10000000000000000000000000", "--m", "2"],
        ["density", "--n", "52", "--m", "6", "--l", over],
        ["density", "--n", "52", "--m", "6", "--l", huge_prime],
        ["construct", "--n", str(MAX_N + 1)],
        ["construct", "--n", "10", "--m", "2", "--l", over],
        ["lift", "--n", str(MAX_N + 1), "--m", m, "--code", str(code)],
        ["gv", "--n", str(MAX_N + 1), "--d", "3"],
        ["sweep", "--n", str(MAX_N + 1)],
        ["conditional", "--n", str(MAX_N + 1), "--m", m, "--l", over, "--req-n", n,
         "--req-k", "1", "--req-d", n],
        ["mwbeat", "--p", "2063"],
        ["mwbeat", "--p", huge_prime],
        ["pipeline24", "--dim", "8664"],
        # Fraction would expand the exponent: 10^40000000 has about 17 MB.
        ["compare", "--dim", "4096", "--value", "1e40000000"],
        ["compare", "--dim", "4096", "--value", "1e5000"],
        ["table", "--id", "1", "--tolerance", "1e40000000"],
    ]
    for argv, want in at_caps:
        assert _exit_code_within(argv) == want, argv
    for argv in above_caps:
        assert _exit_code_within(argv) == 2, argv
