"""Command line surface: exit codes, formats, and determinism."""

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qgordon
from qgordon import cli
from qgordon.cli import ORACLE_MAX_M, ORACLE_MAX_W, VERIFY_MAX_Q, main
from qgordon.series import MAX_CELLS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child(memory_mb):
    """The command line of the CLI in a child process, its environment, and
    a preexec_fn that caps the child at memory_mb of address space."""

    def cap():
        limit = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(qgordon.__file__).parents[1]))
    return [sys.executable, "-m", "qgordon.cli"], env, cap


def run_limited(*argv, memory_mb=1024, timeout=120):
    """Run the command in a child process capped at memory_mb of address
    space, so an unguarded allocation fails there instead of exhausting the
    machine, and killed after timeout seconds, so a hang fails the test.
    Returns (exit code, stdout, stderr, wall seconds)."""
    command, env, cap = _child(memory_mb)
    start = time.perf_counter()
    proc = subprocess.run(
        [*command, *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "4", "--qmax", "10",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 1 and len(obj["F"]) == 2
    assert obj["F"][1]["terms"][0] == [0, 0, "1"]
    assert [1, 1, "1"] in obj["F"][1]["terms"]


def test_solve_tsv(capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--xmax", "2", "--qmax", "4",
                       "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i\ta\tb\tcoeff"
    assert all(len(line.split("\t")) == 4 for line in lines[1:])
    assert "0\t0\t0\t1" in lines


def test_solve_usage_errors(capsys):
    assert run(capsys, "solve", "--k", "0", "--xmax", "2", "--qmax", "2")[0] == 2
    assert run(capsys, "solve", "--k", "1", "--xmax", "-1", "--qmax", "2")[0] == 2
    # non-integer flag value is rejected by the parser
    assert run(capsys, "solve", "--k", "x", "--xmax", "2", "--qmax", "2")[0] == 2


def test_solve_over_the_cell_cap():
    code, out, err, wall = run_limited("solve", "--k", "1", "--xmax", "10",
                                       "--qmax", "100000000", memory_mb=400)
    assert (code, out) == (2, "")
    assert "MAX_CELLS" in err and wall < 30


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_solve_into_a_closed_pipe(fmt):
    # like `qgordon solve ... | head -c 20`: the reader leaves after a few bytes
    command, env, cap = _child(1024)
    proc = subprocess.Popen(
        [*command, "solve", "--k", "4", "--xmax", "80", "--qmax", "1200", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, preexec_fn=cap,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    err = err.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_solve_json_within_a_memory_cap():
    # the writer holds one member's text at a time, not the family's term lists
    code, out, err, _ = run_limited("solve", "--k", "1", "--xmax", "9", "--qmax", "49999",
                                    "--format", "json", memory_mb=200)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["k"] == 1 and len(obj["F"]) == 2


def test_solve_out_of_memory():
    # the solver's table outgrows the cap: one error line, exit 2, no partial output
    code, out, err, _ = run_limited("solve", "--k", "1", "--xmax", "9", "--qmax", "49999",
                                    "--format", "json", memory_mb=40)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_solve_out_of_memory_after_the_header():
    # near the writer's need the run may succeed, or fail once the header is
    # out: then stdout holds a cut document, which exit 2 says to discard
    code, out, err, _ = run_limited("solve", "--k", "1", "--xmax", "9", "--qmax", "49999",
                                    "--format", "json", memory_mb=55)
    if code == 0:
        assert json.loads(out)["k"] == 1
        return
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if out:
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_tall_solve_within_a_memory_cap():
    # on x-window 0, members 0 < i < k are member 0's object, so solve builds
    # two series (F_0 and F_k) and a tuple of k + 1 references to them
    code, out, err, _ = run_limited("solve", "--k", "1000000", "--xmax", "0", "--qmax", "0",
                                    "--format", "tsv", memory_mb=100)
    assert code == 0, err
    assert len(out.splitlines()) == 1_000_002


def test_no_command_and_unknown_command(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_one_parser_per_process(capsys, monkeypatch):
    # main() reuses one parser, and neither a usage error nor --help leaves
    # anything behind in it. Each construction, subparsers included, passes
    # through ArgumentParser.__init__
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    verify = ("verify-gordon", "--l", "3", "--t", "2", "--qmax", "20")
    first = run(capsys, *verify)
    usage = run(capsys, "verify-gordon", "--l", "3", "--t", "x", "--qmax", "20")
    assert usage[0] == 2 and usage[1] == "" and "invalid int value" in usage[2]
    assert run(capsys, "--help")[0] == 0
    second = run(capsys, *verify)
    assert first[0] == second[0] == 0
    assert first[1] == second[1] and first[1].count("\tmatch\n") == 3
    assert len(built) <= 1


def test_verify_gordon(capsys):
    code, out, _ = run(capsys, "verify-gordon", "--l", "2", "--t", "2",
                       "--qmax", "25")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith("match") for line in lines)
    assert lines[0].startswith("gordon-count\tcongruence-count\tq<=25")


def test_verify_gordon_t_equal_l(capsys):
    code, out, _ = run(capsys, "verify-gordon", "--l", "3", "--t", "3",
                       "--qmax", "20")
    assert code == 0
    assert all(line.endswith("match") for line in out.splitlines())


def test_verify_gordon_usage(capsys):
    assert run(capsys, "verify-gordon", "--l", "1", "--t", "1", "--qmax", "5")[0] == 2
    assert run(capsys, "verify-gordon", "--l", "2", "--t", "3", "--qmax", "5")[0] == 2


def test_verify_gordon_qmax_limit(capsys):
    code, out, err = run(capsys, "verify-gordon", "--l", "3", "--t", "1",
                         "--qmax", str(VERIFY_MAX_Q + 1))
    assert (code, out) == (2, "")
    assert "VERIFY_MAX_Q" in err
    code, out, _ = run(capsys, "verify-gordon", "--l", "2", "--t", "2",
                       "--qmax", str(VERIFY_MAX_Q))
    assert code == 0 and len(out.splitlines()) == 3


def test_verify_gordon_clamps_xmax():
    code, out, _, wall = run_limited("verify-gordon", "--l", "3", "--t", "1",
                                     "--qmax", "10", "--xmax", "100000000",
                                     memory_mb=400)
    assert code == 0 and wall < 30
    assert out.splitlines()[2] == "product\tmultisum(x=1)\tq<=10\tmatch"


@pytest.mark.parametrize("argv", [
    ("verify-gordon", "--l", "3000", "--t", "1", "--qmax", "3"),
    ("crosscheck", "--k", "3000", "--mmax", "2", "--wmax", "2"),
])
def test_level_far_beyond_the_window(capsys, argv):
    # the multisum must not recurse once per level
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out and all(line.endswith("\tmatch") for line in out.splitlines())


def test_verify_gordon_reports_the_first_mismatch(capsys, monkeypatch):
    count = cli.count_gordon_partitions
    monkeypatch.setattr(cli, "count_gordon_partitions",
                        lambda cond, n: count(cond, n) + (n == 17))
    code, out, _ = run(capsys, "verify-gordon", "--l", "3", "--t", "2", "--qmax", "30")
    assert code == 1
    assert out == (
        "gordon-count\tcongruence-count\tq<=30\tmismatch\tm=0\tw=17"
        "\tgordon-count=57\tcongruence-count=56\n"
        "congruence-count\tproduct\tq<=30\tmatch\n"
        "product\tmultisum(x=1)\tq<=30\tmatch\n"
    )


def test_crosscheck_reports_the_first_mismatch(capsys, monkeypatch):
    table = cli.hilbert_table

    def faulty(k, e, m_max, w_max):
        t = table(k, e, m_max, w_max)
        entries = [list(row) for row in t.entries]
        entries[3][9] += 1
        return type(t)(t.k, t.e, tuple(map(tuple, entries)))

    monkeypatch.setattr(cli, "hilbert_table", faulty)
    code, out, _ = run(capsys, "crosscheck", "--k", "1", "--mmax", "4", "--wmax", "10")
    assert code == 1
    window = "x<=4,q<=10"
    assert out.splitlines() == [
        f"solve[F0]\tmultisum[i=0]\t{window}\tmatch",
        f"solve[F0]\tideal-quotient[e=1]\t{window}\tmismatch\tm=3\tw=9"
        "\tsolve[F0]=0\tideal-quotient[e=1]=1",
        f"multisum[i=0]\tideal-quotient[e=1]\t{window}\tmismatch\tm=3\tw=9"
        "\tmultisum[i=0]=0\tideal-quotient[e=1]=1",
        f"solve[F1]\tmultisum[i=1]\t{window}\tmatch",
        f"solve[F1]\tideal-quotient[e=2]\t{window}\tmismatch\tm=3\tw=9"
        "\tsolve[F1]=1\tideal-quotient[e=2]=2",
        f"multisum[i=1]\tideal-quotient[e=2]\t{window}\tmismatch\tm=3\tw=9"
        "\tmultisum[i=1]=1\tideal-quotient[e=2]=2",
    ]


def test_oracle_tsv(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "1", "--e", "2", "--mmax", "2",
                       "--wmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m\tw\tdim"
    assert "1\t1\t1" in lines
    assert "2\t4\t1" in lines


def test_oracle_tsv_shape(capsys):
    # the header, then one line per cell of the window, m outer and w inner
    code, out, _ = run(capsys, "oracle", "--k", "1", "--e", "1", "--mmax", "1",
                       "--wmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m\tw\tdim"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == "0\t0\t1"


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "1", "--e", "2", "--mmax", "2",
                       "--wmax", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["x_order"] == 2 and obj["q_order"] == 5
    assert [1, 1, "1"] in obj["terms"]


def test_oracle_usage(capsys):
    assert run(capsys, "oracle", "--k", "1", "--e", "3", "--mmax", "2",
               "--wmax", "5")[0] == 2
    assert run(capsys, "oracle", "--k", "2", "--e", "0", "--mmax", "2",
               "--wmax", "5")[0] == 2


def test_oracle_window_limit(capsys):
    over = [("--mmax", str(ORACLE_MAX_M + 4), "--wmax", "40"),
            ("--mmax", "2", "--wmax", str(ORACLE_MAX_W + 1)),
            ("--mmax", str(ORACLE_MAX_M + 1), "--wmax", "2")]
    for window in over:
        code, out, err = run(capsys, "oracle", "--k", "2", "--e", "1", *window)
        assert (code, out) == (2, ""), window
        assert "soft limit" in err
    edge = ("--mmax", str(ORACLE_MAX_M), "--wmax", "4")
    assert run(capsys, "oracle", "--k", "1", "--e", "2", *edge)[0] == 0


def test_oracle_smallest_exponent_kills_charge_one(capsys):
    # with e = 1 the variable y_1 itself is a generator, so (m, w) = (1, 1) dies
    code, out, _ = run(capsys, "oracle", "--k", "2", "--e", "1", "--mmax", "3",
                       "--wmax", "8")
    assert code == 0
    assert "1\t1\t0" in out.splitlines()


def test_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", "--k", "1", "--mmax", "3", "--wmax", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # three route pairs for each of e = 1, 2
    assert all(line.endswith("match") for line in lines)


def test_crosscheck_level_two(capsys):
    code, out, _ = run(capsys, "crosscheck", "--k", "2", "--mmax", "3", "--wmax", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9  # three route pairs for each of e = 1, 2, 3
    assert all(line.endswith("match") for line in lines)


def test_crosscheck_trivial_window(capsys):
    code, out, _ = run(capsys, "crosscheck", "--k", "1", "--mmax", "0", "--wmax", "0")
    assert code == 0
    assert all(line.endswith("match") for line in out.splitlines())


def test_crosscheck_over_the_cell_cap():
    # the (m, w) window is small, but solve would build k+1 tables of it
    code, out, err, wall = run_limited("crosscheck", "--k", "100000000", "--mmax", "8",
                                       "--wmax", "20", memory_mb=400)
    assert (code, out) == (2, "")
    assert "MAX_CELLS" in err and wall < 30


def test_tall_crosscheck_within_a_memory_cap():
    # the 300,003 report lines are printed as they come, not held until the
    # end; holding them needs more than 60 MB of address space
    code, out, err, _ = run_limited("crosscheck", "--k", "100000", "--mmax", "0",
                                    "--wmax", "0", memory_mb=50)
    assert code == 0, err[-300:]
    lines = out.splitlines()
    assert len(lines) == 300_003
    assert all(line.endswith("\tmatch") for line in lines)


def test_crosscheck_reports_a_fault_in_the_shared_table_for_every_member(
    capsys, monkeypatch
):
    # at mmax=3 the members i = 3..12 share the ideal-quotient table of e=4,
    # and the searches that compare it; each still reports its own line
    table = cli.hilbert_table

    def faulty(k, e, m_max, w_max):
        t = table(k, e, m_max, w_max)
        if e < 4:
            return t
        entries = [list(row) for row in t.entries]
        entries[2][7] += 1
        return type(t)(t.k, t.e, tuple(map(tuple, entries)))

    monkeypatch.setattr(cli, "hilbert_table", faulty)
    code, out, _ = run(capsys, "crosscheck", "--k", "12", "--mmax", "3", "--wmax", "10")
    assert code == 1
    window = "x<=3,q<=10"
    lines = out.splitlines()
    assert len(lines) == 39
    assert all(line.endswith("\tmatch") for line in lines[:9])
    for i in range(3, 13):
        a, b, c = f"solve[F{i}]", f"multisum[i={i}]", f"ideal-quotient[e={i + 1}]"
        assert lines[3 * i : 3 * i + 3] == [
            f"{a}\t{b}\t{window}\tmatch",
            f"{a}\t{c}\t{window}\tmismatch\tm=2\tw=7\t{a}=3\t{c}=4",
            f"{b}\t{c}\t{window}\tmismatch\tm=2\tw=7\t{b}=3\t{c}=4",
        ]


def test_crosscheck_searches_again_for_a_member_of_its_own(capsys, monkeypatch):
    # at mmax=3 solve's members 3..12 are one object; the injected fault
    # makes member 12 its own, and it is found although it shares the other
    # two tables
    real = cli.solve

    def faulty(k, x_order, q_order):
        fam = real(k, x_order, q_order)
        bad = fam.members[k] + qgordon.monomial(2, 7, x_order, q_order)
        return dataclasses.replace(fam, members=fam.members[:k] + (bad,))

    monkeypatch.setattr(cli, "solve", faulty)
    code, out, _ = run(capsys, "crosscheck", "--k", "12", "--mmax", "3", "--wmax", "10")
    assert code == 1
    window = "x<=3,q<=10"
    lines = out.splitlines()
    assert all(line.endswith("\tmatch") for line in lines[:36])
    a, b, c = "solve[F12]", "multisum[i=12]", "ideal-quotient[e=13]"
    assert lines[36:] == [
        f"{a}\t{b}\t{window}\tmismatch\tm=2\tw=7\t{a}=4\t{b}=3",
        f"{a}\t{c}\t{window}\tmismatch\tm=2\tw=7\t{a}=4\t{c}=3",
        f"{b}\t{c}\t{window}\tmatch",
    ]


def _crosscheck_below_the_x_window(capsys):
    """crosscheck at k=8 and the window (6, 3): shared = 3 < R = 6, so solve's
    members 4..6 are objects of their own, checked against the tables of e=4."""
    code, out, _ = run(capsys, "crosscheck", "--k", "8", "--mmax", "6", "--wmax", "3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 27
    return lines


def test_crosscheck_finds_a_fault_in_a_member_of_its_own_below_the_x_window(
    capsys, monkeypatch
):
    real = cli.solve

    def faulty(k, x_order, q_order):
        fam = real(k, x_order, q_order)
        bad = fam.members[5] + qgordon.monomial(2, 3, x_order, q_order)
        return dataclasses.replace(fam, members=fam.members[:5] + (bad,) + fam.members[6:])

    monkeypatch.setattr(cli, "solve", faulty)
    lines = _crosscheck_below_the_x_window(capsys)
    window = "x<=6,q<=3"
    a, b, c = "solve[F5]", "multisum[i=5]", "ideal-quotient[e=6]"
    assert lines[15:18] == [
        f"{a}\t{b}\t{window}\tmismatch\tm=2\tw=3\t{a}=2\t{b}=1",
        f"{a}\t{c}\t{window}\tmismatch\tm=2\tw=3\t{a}=2\t{c}=1",
        f"{b}\t{c}\t{window}\tmatch",
    ]
    assert all(line.endswith("\tmatch") for line in lines[:15] + lines[18:])


def test_crosscheck_finds_a_fault_in_the_shared_table_below_the_x_window(
    capsys, monkeypatch
):
    table = cli.hilbert_table

    def faulty(k, e, m_max, w_max):
        t = table(k, e, m_max, w_max)
        if e != 4:
            return t
        entries = [list(row) for row in t.entries]
        entries[2][3] += 1
        return type(t)(t.k, t.e, tuple(map(tuple, entries)))

    monkeypatch.setattr(cli, "hilbert_table", faulty)
    lines = _crosscheck_below_the_x_window(capsys)
    window = "x<=6,q<=3"
    assert all(line.endswith("\tmatch") for line in lines[:9])
    for i in range(3, 9):
        a, b, c = f"solve[F{i}]", f"multisum[i={i}]", f"ideal-quotient[e={i + 1}]"
        assert lines[3 * i : 3 * i + 3] == [
            f"{a}\t{b}\t{window}\tmatch",
            f"{a}\t{c}\t{window}\tmismatch\tm=2\tw=3\t{a}=1\t{c}=2",
            f"{b}\t{c}\t{window}\tmismatch\tm=2\tw=3\t{b}=1\t{c}=2",
        ]


def test_crosscheck_compares_a_wrongly_shared_member_with_its_own_tables(
    capsys, monkeypatch
):
    # the tables follow i <= min(mmax, wmax), not solve's object identity: a
    # solver that handed back F1's object as F2 is still checked against the
    # tables of e=3
    real = cli.solve

    def faulty(k, x_order, q_order):
        fam = real(k, x_order, q_order)
        return dataclasses.replace(fam, members=fam.members[:2] + fam.members[1:2])

    monkeypatch.setattr(cli, "solve", faulty)
    code, out, _ = run(capsys, "crosscheck", "--k", "2", "--mmax", "3", "--wmax", "8")
    assert code == 1
    lines = out.splitlines()
    assert all(line.endswith("\tmatch") for line in lines[:6])
    assert [line.split("\t")[3] for line in lines[6:]] == ["mismatch", "mismatch", "match"]


def test_crosscheck_names_the_members_that_share_tables_once(capsys):
    # members i <= min(mmax, wmax) = 2 build their own tables and get one
    # progress line each; e = 4..7 share the tables of e = 3 and get one in all
    code, out, err = run(capsys, "crosscheck", "--k", "6", "--mmax", "2", "--wmax", "5")
    assert code == 0 and len(out.splitlines()) == 21
    assert err.splitlines() == [
        "crosscheck e=1 (x<=2,q<=5)",
        "crosscheck e=2 (x<=2,q<=5)",
        "crosscheck e=3 (x<=2,q<=5)",
        "crosscheck e=4..7 (x<=2,q<=5), sharing the tables of e=3",
    ]


def test_crosscheck_soft_limit(capsys):
    code, _, err = run(capsys, "crosscheck", "--k", "1", "--mmax", "3", "--wmax", "50")
    assert code == 2
    assert "soft limit" in err


def test_check_recursions_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--xmax", "4", "--qmax", "8",
                       "--format", "json")
    assert code == 0
    path = tmp_path / "family.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check-recursions", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith("zero") for line in lines)


def test_check_recursions_detects_corruption(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "4", "--qmax", "8",
                    "--format", "json")
    obj = json.loads(out)
    # bump one interior coefficient of F_1
    for term in obj["F"][1]["terms"]:
        if term[0] == 1 and term[1] == 1:
            term[2] = "2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check-recursions", "--input", str(path))
    assert code == 1
    assert out == (
        "difference-eq[i=1]\tnonzero\tm=1\tw=1\tvalue=1\n"
        "shift-eq\tnonzero\tm=1\tw=2\tvalue=-1\n"
    )


def test_check_recursions_usage_errors(tmp_path, capsys):
    assert run(capsys, "check-recursions", "--input", str(tmp_path / "nope.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "check-recursions", "--input", str(bad))[0] == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"k": 2, "x_order": 1}))
    assert run(capsys, "check-recursions", "--input", str(malformed))[0] == 2


def test_check_recursions_rejects_non_canonical_files(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "2", "--qmax", "4",
                    "--format", "json")
    good = json.loads(out)
    assert good["F"][0]["terms"][:2] == [[0, 0, "1"], [1, 2, "1"]]
    edits = [
        lambda obj: obj.update(k=True),
        lambda obj: obj.update(k=0),
        lambda obj: obj.update(k=-1),
        lambda obj: obj.update(x_order=2.0),
        lambda obj: obj["F"][0]["terms"].insert(1, [0, 0, "1"]),  # duplicate
        lambda obj: obj["F"][0]["terms"].reverse(),  # unsorted
        lambda obj: obj["F"][0]["terms"].insert(1, [0, 1, "0"]),  # zero
        lambda obj: obj["F"][0]["terms"][1].__setitem__(0, 1.9),  # float index
        lambda obj: obj["F"][0]["terms"][1].__setitem__(0, True),  # bool index
        lambda obj: obj["F"].pop(),  # k members for level k
        lambda obj: obj["F"].append(obj["F"][0]),  # k + 2 members
        lambda obj: obj["F"][1].update(q_order=3),  # member off the family window
        lambda obj: obj.update(F={}),
        lambda obj: obj["F"].__setitem__(1, [0, 0, "1"]),
        # coefficients int() reads that are no canonical decimal string;
        # "\uff11" is a fullwidth digit one
        *(lambda obj, c=c: obj["F"][0]["terms"][1].__setitem__(2, c)
          for c in ["+1", "01", "1_0", " 7 ", "\uff11", 1]),
    ]
    for n, edit in enumerate(edits):
        obj = json.loads(out)
        edit(obj)
        path = tmp_path / f"bad{n}.json"
        path.write_text(json.dumps(obj))
        code, stdout, err = run(capsys, "check-recursions", "--input", str(path))
        assert (code, stdout) == (2, ""), n
        assert "malformed" in err, n


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "text, want_code",
    [
        pytest.param(lambda good: good, 0, id="good"),
        pytest.param(lambda good: good.replace('[0, 0, "1"]', '[0, 0, "2"]', 1), 1,
                     id="wrong-coefficient"),
        pytest.param(lambda good: good.replace('[1, 2, "1"]', '[1, 2, "01"]', 1), 2,
                     id="malformed-term"),
        pytest.param(lambda good: good[:100], 2, id="cut"),
    ],
)
def test_check_recursions_leaves_the_collector_as_it_found_it(
    tmp_path, capsys, collecting, text, want_code
):
    # the cyclic collector is paused while the file is parsed, and its state
    # before the command is restored however the parse ends
    good = run(capsys, "solve", "--k", "1", "--xmax", "2", "--qmax", "4", "--format", "json")[1]
    path = tmp_path / "family.json"
    path.write_text(text(good))
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        code = run(capsys, "check-recursions", "--input", str(path))[0]
        assert (code, gc.isenabled()) == (want_code, collecting)
    finally:
        (gc.enable if was else gc.disable)()


# a 100,000-digit coefficient (its leading zero makes it no canonical string
# on every Python) and a term with 100,000 extra elements
@pytest.mark.parametrize(
    "term",
    [pytest.param([0, 0, "0" + "9" * 99_999], id="long-coefficient"),
     pytest.param([0, 0, "1", *[0] * 100_000], id="long-term")],
)
def test_check_recursions_quotes_a_short_prefix_of_a_bad_term(tmp_path, capsys, term):
    _, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "2", "--qmax", "4",
                    "--format", "json")
    obj = json.loads(out)
    obj["F"][0]["terms"][0] = term
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, "check-recursions", "--input", str(path))
    assert (code, stdout) == (2, "")
    assert "malformed" in err and len(err.splitlines()) == 1
    assert len(err.encode()) < 1000


# a short term, a bare number, a non-decimal string, a coefficient past the
# interpreter's digit limit and an object as a term
@pytest.mark.parametrize(
    "term",
    [[0, 0], [0, 0, 1], [0, 0, "x"], [0, 0, "1" * 5000], {"a": 1}],
    ids=["short", "number", "not-decimal", "5000-digits", "object"],
)
def test_check_recursions_names_the_term_shape(tmp_path, capsys, term):
    _, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "2", "--qmax", "4",
                    "--format", "json")
    obj = json.loads(out)
    obj["F"][0]["terms"][0] = term
    path = tmp_path / "term.json"
    path.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, "check-recursions", "--input", str(path))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1 and '[a, b, "c"]' in err
    assert not any(word in err for word in ("unpack", "int()", "invalid literal", "Exceeds"))


def test_check_recursions_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "check-recursions", "--input", str(path))
    assert (code, out) == (2, "")
    assert "cannot load family" in err


def _fifo(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    return str(path)


# a device that never ends, and a named pipe that no writer ever opens
@pytest.mark.parametrize(
    "make_input",
    [pytest.param(lambda tmp_path: "/dev/zero", id="dev-zero"),
     pytest.param(_fifo, id="fifo")],
)
def test_check_recursions_refuses_endless_input(tmp_path, make_input):
    code, out, err, wall = run_limited("check-recursions", "--input", make_input(tmp_path),
                                       memory_mb=400, timeout=30)
    assert (code, out) == (2, "")
    assert "not a regular file" in err and wall < 30


def _declare_family_window(obj, q_order):
    obj["q_order"] = q_order
    for member in obj["F"]:
        member["q_order"] = q_order


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: obj["F"][0].update(x_order=10**30), id="member-window"),
        pytest.param(lambda obj: obj.update(x_order=10**30), id="family-window"),
        pytest.param(lambda obj: _declare_family_window(obj, 2 * 10**6), id="family-over-cap"),
        # each member fits under the cap, the three together do not, and only
        # the members declare it: the second is refused before it is built
        pytest.param(lambda obj: [m.update(q_order=2 * 10**6) for m in obj["F"]],
                     id="members-over-cap-together"),
        pytest.param(lambda obj: obj.update(k=10**6), id="level-over-cap"),
    ],
)
def test_check_recursions_refuses_oversized_windows(tmp_path, capsys, edit):
    _, out, _ = run(capsys, "solve", "--k", "2", "--xmax", "2", "--qmax", "4",
                    "--format", "json")
    obj = json.loads(out)
    edit(obj)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, stdout, err, wall = run_limited("check-recursions", "--input", str(path))
    assert (code, stdout) == (2, "")
    assert "malformed" in err and "MAX_CELLS" in err and wall < 30


SERIES = {"x_order": 0, "q_order": 0, "terms": [[0, 0, "1"]]}


# a series object where the loader expects no member: the level, the whole
# document, a term, a member's term list and a member's order
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: obj.update(k=SERIES), id="as-k"),
        pytest.param(lambda obj: SERIES, id="top-level"),
        pytest.param(lambda obj: obj["F"][0]["terms"].__setitem__(1, SERIES), id="as-term"),
        pytest.param(lambda obj: obj["F"][1].update(terms=SERIES), id="as-terms"),
        pytest.param(lambda obj: obj["F"][1].update(x_order=SERIES), id="as-order"),
        pytest.param(lambda obj: obj.update(F=SERIES), id="as-F"),
    ],
)
def test_check_recursions_refuses_misplaced_series(tmp_path, capsys, edit):
    _, out, _ = run(capsys, "solve", "--k", "1", "--xmax", "2", "--qmax", "4",
                    "--format", "json")
    obj = json.loads(out)
    obj = edit(obj) or obj
    path = tmp_path / "misplaced.json"
    path.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, "check-recursions", "--input", str(path))
    assert (code, stdout) == (2, "")
    assert "cannot load family" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "document", [[1, 2], "x", 3, None, SERIES], ids=["list", "string", "number", "null", "series"]
)
def test_check_recursions_refuses_a_document_that_is_no_family_object(
    tmp_path, capsys, document
):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    code, stdout, err = run(capsys, "check-recursions", "--input", str(path))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1
    assert "k, x_order, q_order and F" in err
    assert "subscriptable" not in err and "indices" not in err


def test_output_determinism(capsys):
    first = run(capsys, "solve", "--k", "2", "--xmax", "5", "--qmax", "12",
                "--format", "json")
    second = run(capsys, "solve", "--k", "2", "--xmax", "5", "--qmax", "12",
                 "--format", "json")
    assert first == second
    a = run(capsys, "oracle", "--k", "1", "--e", "1", "--mmax", "3", "--wmax", "7")
    b = run(capsys, "oracle", "--k", "1", "--e", "1", "--mmax", "3", "--wmax", "7")
    assert a == b


# exit code and sha256 of stdout for a fixed list of small commands; a
# change to any route or to the report format shows up here
PINNED_STDOUT = [
    (("solve", "--k", "2", "--xmax", "6", "--qmax", "40", "--format", "json"), 0,
     "f70df91564cd244235bef1da5376575a596cf996dbc76f2df0a13025f5bf3406"),
    (("solve", "--k", "2", "--xmax", "6", "--qmax", "40", "--format", "tsv"), 0,
     "b134a10c588cd93ae8add36c5f7c46bddf928027e22801e22a77d264cb0c9a9e"),
    # a wide family, a window of x-degree 0 only, and the smallest window
    (("solve", "--k", "4", "--xmax", "80", "--qmax", "1200", "--format", "json"), 0,
     "6ee2e9e06ce7da41e6503a785dac7db15fd2429104d8ea7dc6f0fd3972f43778"),
    (("solve", "--k", "3", "--xmax", "0", "--qmax", "5", "--format", "json"), 0,
     "0f79785cc9262def6319a96db24e865be6ec304d867ee0758c354a0370e58bde"),
    (("solve", "--k", "1", "--xmax", "0", "--qmax", "0", "--format", "json"), 0,
     "476af4ff9833a99152eb3a6b35bd4b44ea601da97f66c127411dac2da91e4d22"),
    # levels above the x-window, where members i > m share row m
    (("solve", "--k", "6", "--xmax", "4", "--qmax", "30", "--format", "json"), 0,
     "13d74a608aae4ff83ce10e3c84e809df53db6dcf43839cbafdcef4051bfb7f3b"),
    (("solve", "--k", "9", "--xmax", "12", "--qmax", "60", "--format", "tsv"), 0,
     "ec7fcf8ed0c88d637aaf59f32629fc74b4aa0450050fe7df0bb4de5ac45fe21d"),
    # the wide family as TSV: 268,474 lines of rows written one string each
    (("solve", "--k", "4", "--xmax", "80", "--qmax", "1200", "--format", "tsv"), 0,
     "4fa73673a028ef563a28a5badc2ee3c2cbf2bf85a04013abd1e4703418939b08"),
    # a level far above the x-window: members 3..2999 are member 2's object
    (("solve", "--k", "3000", "--xmax", "2", "--qmax", "6", "--format", "json"), 0,
     "bcdb90b949659a2ebe943d40a427b0b41eecd7ac4ca8d1a2ccf038a2c18016f9"),
    (("verify-gordon", "--l", "3", "--t", "2", "--qmax", "30"), 0,
     "29140ef5d75174bfd636a9095f2c0d6cd7206ce770dbb5c512ac922eba5846b8"),
    (("verify-gordon", "--l", "3", "--t", "1", "--qmax", "50"), 0,
     "72b9ce83f70d7b08f3eaa61e0b0dcaee5e454028807761b54b892cc3921a18f7"),
    (("verify-gordon", "--l", "6", "--t", "3", "--qmax", "50"), 0,
     "4dc9624eb15b76cc9724587b3e9c283a55c8d9a5e2ec852893db4c991d50496a"),
    # at VERIFY_MAX_Q: a middle level, the tallest level the bound names, and
    # the second Rogers-Ramanujan identity
    (("verify-gordon", "--l", "6", "--t", "3", "--qmax", "200"), 0,
     "3d73487af0789e15f99ca61bbe154f8889240027f2a44341a5b7e60ec90d6dbc"),
    (("verify-gordon", "--l", "201", "--t", "201", "--qmax", "200"), 0,
     "fbe35c14dd0d80edb3abfb0fe88838ab9e2907093b50196cedc3b6cd68645da4"),
    (("verify-gordon", "--l", "2", "--t", "1", "--qmax", "200"), 0,
     "ef63b8cc63960f51d96859bcc49466b3f8c9c3163b502917e67ab0d40ef11526"),
    (("crosscheck", "--k", "2", "--mmax", "6", "--wmax", "16"), 0,
     "9e816b39a4da33a4a67db92c961076abed75b437db210280d68b0230adeb33bf"),
    # members i = 3..12 share one multisum and one ideal-quotient table
    (("crosscheck", "--k", "12", "--mmax", "3", "--wmax", "10"), 0,
     "5eaa482c79d12f4ab994e8667e910e66fddb5fe76bedddb7377acf74c096bfde"),
    (("oracle", "--k", "2", "--e", "1", "--mmax", "6", "--wmax", "16", "--format", "json"), 0,
     "855c7b0b9a8eea6c5d675685efbe1445ed34271d2d0eed4c3b7b02c07bf02dc9"),
    (("oracle", "--k", "2", "--e", "1", "--mmax", "6", "--wmax", "16", "--format", "tsv"), 0,
     "1c08acc08c19b7ef1cc0377378d3d4f4e21958a3c05710081f9b1a43fddff9a4"),
    (("oracle", "--k", "3", "--e", "2", "--mmax", "8", "--wmax", "20"), 0,
     "47aa2517c420fe84ff062233951fa9ccc58fc5fef364ee4f1af98e0ad68285b5"),
    # generator charge k+1 = 5
    (("oracle", "--k", "4", "--e", "5", "--mmax", "8", "--wmax", "20", "--format", "json"), 0,
     "5b1ff14389de1046567c3ec6b47414ef1ea5a6264b4d2bb0a8cd7131c6548dfe"),
    (("crosscheck", "--k", "4", "--mmax", "8", "--wmax", "20"), 0,
     "f0f4eb35a5aa88cded82a583636d27173b8e1d5ab2a2a6308e10b0e92bec225b"),
    # the edge of the oracle window, where the rank matrices are largest
    (("oracle", "--k", "3", "--e", "2", "--mmax", "12", "--wmax", "30", "--format", "json"), 0,
     "1e4f0a423d4d95cedae0101c2a9587ff3194d7f93cef6f17583f1121d3d229ff"),
]
PINNED_CHECK_RECURSIONS = "5d960b3f71207dd1cdaf7ee0830285b7daa70e57cb237f43d6db1c03d51503d5"


def test_pinned_stdout(tmp_path, capsys):
    def digest(out):
        return hashlib.sha256(out.encode()).hexdigest()

    for argv, want_code, want in PINNED_STDOUT:
        code, out, _ = run(capsys, *argv)
        assert (code, digest(out)) == (want_code, want), argv
    path = tmp_path / "fam.json"
    path.write_text(run(capsys, *PINNED_STDOUT[0][0])[1])
    code, out, _ = run(capsys, "check-recursions", "--input", str(path))
    assert (code, digest(out)) == (0, PINNED_CHECK_RECURSIONS)


def test_data_only_on_stdout(capsys):
    # progress notes go to stderr; stdout holds nothing but the table
    code, out, err = run(capsys, "oracle", "--k", "1", "--e", "2", "--mmax", "2",
                         "--wmax", "4")
    assert code == 0
    assert out.startswith("m\tw\tdim")
    assert "building" in err


# each integer option at its bounds and one past them, on a small valid base
# command; --t and --e are bounded by --l and --k + 1, and solve and
# crosscheck by MAX_CELLS
BOUNDS = {
    ("solve", "--k", "1", "--xmax", "2", "--qmax", "4"): [
        ("--k", 1, 0), ("--k", 0, 2),
        ("--xmax", 0, 0), ("--xmax", -1, 2),
        ("--qmax", 0, 0), ("--qmax", -1, 2),
    ],
    ("solve", "--k", "1", "--xmax", "0", "--qmax", "0"): [("--k", MAX_CELLS, 2)],
    ("verify-gordon", "--l", "3", "--t", "2", "--qmax", "10", "--xmax", "12"): [
        ("--l", 2, 0), ("--l", 1, 2),
        ("--t", 1, 0), ("--t", 0, 2), ("--t", 3, 0), ("--t", 4, 2),
        ("--qmax", 0, 0), ("--qmax", -1, 2),
        ("--qmax", VERIFY_MAX_Q, 0), ("--qmax", VERIFY_MAX_Q + 1, 2),
        ("--xmax", 0, 0), ("--xmax", -1, 2),
    ],
    ("oracle", "--k", "2", "--e", "1", "--mmax", "2", "--wmax", "5"): [
        ("--k", 1, 0), ("--k", 0, 2),
        ("--e", 1, 0), ("--e", 0, 2), ("--e", 3, 0), ("--e", 4, 2),
        ("--mmax", 0, 0), ("--mmax", -1, 2),
        ("--mmax", ORACLE_MAX_M, 0), ("--mmax", ORACLE_MAX_M + 1, 2),
        ("--wmax", 0, 0), ("--wmax", -1, 2),
        ("--wmax", ORACLE_MAX_W, 0), ("--wmax", ORACLE_MAX_W + 1, 2),
    ],
    ("crosscheck", "--k", "2", "--mmax", "2", "--wmax", "5"): [
        ("--k", 1, 0), ("--k", 0, 2),
        ("--mmax", 0, 0), ("--mmax", -1, 2),
        ("--mmax", ORACLE_MAX_M, 0), ("--mmax", ORACLE_MAX_M + 1, 2),
        ("--wmax", 0, 0), ("--wmax", -1, 2),
        ("--wmax", ORACLE_MAX_W, 0), ("--wmax", ORACLE_MAX_W + 1, 2),
    ],
    ("crosscheck", "--k", "1", "--mmax", "0", "--wmax", "0"): [("--k", MAX_CELLS, 2)],
}


def _with(argv, option, value):
    argv = list(argv)
    argv[argv.index(option) + 1] = str(value)
    return argv


@pytest.mark.parametrize("argv, want", [
    pytest.param(_with(base, option, value), want, id=" ".join(_with(base, option, value)))
    for base, edits in BOUNDS.items()
    for option, value, want in edits
])
def test_option_bounds(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want, err
    if code == 2:
        assert out == "" and "error:" in err
    else:
        assert out
