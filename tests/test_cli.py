import csv
import importlib
import io
import json
import re
import sys
import time
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramlab import arith, cli, even, expansion, gensums, systems, verify
from ramlab.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ORACLE_R,
    MAX_RMAX,
    MAX_TABLE_ROWS,
    MAX_TERMS,
    main,
)
from ramlab.arith import divisors, factorize
from ramlab.even import EvenFunction, fourier_coeffs
from ramlab.systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    ExponentOutOfScopeError,
    divisor_set,
    gamma_A,
    gcd_A,
    mu_A,
    phi_A,
    psi_A,
    system_from_dict,
)
from ramlab.verify import check_propositions

from conftest import (
    CUSTOM_OK,
    RATIONAL_VALUES,
    c_A_sum_at,
    coeffs_h,
    euler_phi,
    in_scope_moduli,
    orthogonality_row,
    prop1_fractions,
    valid_specs,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    # `run` without capsys, for a Hypothesis test: capsys is function scoped
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# int()'s digit limit: 0 where it has none (before CPython 3.11) or it is off
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="int() reads any number of digits here"
)


class TestCommandC:
    def test_all_routes_match(self, capsys):
        code, out, _ = run(capsys, "c", "2", "4", "--system", "U", "--route", "all")
        assert code == EXIT_OK
        assert "-1" in out and "true" in out

    def test_default(self, capsys):
        code, out, _ = run(capsys, "c", "1", "1")
        assert code == EXIT_OK
        assert out.splitlines()[-1].split()[-1] == "1"

    def test_diagonal_is_phi(self, capsys):
        code, out, _ = run(capsys, "c", "4", "4", "--system", "D")
        assert code == EXIT_OK
        assert out.splitlines()[-1].split()[-1] == "2"

    def test_oracle_route(self, capsys):
        code, out, _ = run(capsys, "c", "2", "4", "--system", "U", "--route", "oracle",
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj == {"n": 2, "r": 4, "value": -1}

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "c", "2", "4", "--system", "U", "--route", "all",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["divisor"] == obj["core"] == obj["oracle"] == -1
        assert obj["match"] == "true"

    def test_all_routes_require_kernel(self, capsys, monkeypatch):
        monkeypatch.setattr(gensums, "c_A", lambda system, n, r: 0)
        code, out, _ = run(capsys, "c", "2", "4", "--system", "U", "--route", "all",
                           "--format", "json")
        assert code == EXIT_MISMATCH
        assert json.loads(out)["match"] == "false"

    def test_mix_beyond_its_bound_at_a_prime_without_entries(self, capsys):
        # MIX's table names only 2, so 3^17 follows the Dirichlet default
        code, out, _ = run(capsys, "c", str(3**16), str(3**17), "--system", "MIX",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == -(3**16)
        code, out, err = run(capsys, "c", "3", str(2**17), "--system", "MIX")
        assert code == EXIT_USAGE
        assert out == ""
        assert "2^17 exceeds declared exponent bound 16" in err

    @pytest.mark.parametrize("route", ["oracle", "all"])
    def test_oracle_r_above_cap_exits_1_before_any_work(self, capsys, monkeypatch, route):
        def refuse(*args):
            raise AssertionError("the oracle route started above its r cap")

        monkeypatch.setattr(cli, "load_system", refuse)
        monkeypatch.setattr(gensums, "c_A_oracle", refuse)
        code, out, err = run(capsys, "c", "1", str(MAX_ORACLE_R + 1), "--route", route)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--route {route} needs r at most {MAX_ORACLE_R}" in err

    @pytest.mark.parametrize("route", ["oracle", "all"])
    def test_oracle_r_at_cap_accepted(self, capsys, monkeypatch, route):
        seen = []

        def fake(system, n, r):
            seen.append((n, r))
            return gensums.c_A(system, n, r)

        monkeypatch.setattr(gensums, "c_A_oracle", fake)
        code, _, _ = run(capsys, "c", "1", str(MAX_ORACLE_R), "--route", route)
        assert code == EXIT_OK
        assert seen == [(1, MAX_ORACLE_R)]

    @pytest.mark.parametrize("route", ["divisor", "core"])
    def test_exact_routes_have_no_r_cap(self, capsys, route):
        r = 30030 * 10**6  # far above the oracle's cap; c(r, r) = phi(r)
        code, out, _ = run(capsys, "c", str(r), str(r), "--route", route, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == euler_phi(r)

    def test_c_help_states_the_oracle_cap(self, capsys):
        code, out, _ = run(capsys, "c", "--help")
        assert code == EXIT_OK
        assert f"at most {MAX_ORACLE_R}" in " ".join(out.split())


class TestCommandTable:
    def test_phi_unitary(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "phiA", "--system", "U",
                           "--rmax", "6", "--format", "csv")
        assert code == EXIT_OK
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values == ["1", "1", "2", "3", "4", "2"]

    def test_mu_dirichlet(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "muA", "--rmax", "4",
                           "--format", "csv")
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values == ["1", "-1", "-1", "0"]

    def test_psi_unitary(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "psiA", "--system", "U",
                           "--rmax", "4", "--format", "csv")
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values == ["1", "3", "4", "5"]

    def test_cA_matrix_json(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "cA", "--system", "U",
                           "--rmax", "4", "--nmax", "4", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 16
        lookup = {(r["n"], r["r"]): r["value"] for r in rows}
        assert lookup[(2, 4)] == -1 and lookup[(4, 4)] == 3

    @pytest.mark.parametrize("what", ["cA", "phiA", "psiA", "gammaA", "muA"])
    @pytest.mark.parametrize("rmax", [1, 30, 360])
    def test_table_walks_one_sieve_and_factorizes_nothing(self, capsys, count_calls, what, rmax):
        # every table comes from one sieve walk over its moduli: no trial
        # division, and the per-modulus cache is neither read nor filled
        sieves = count_calls(systems, "smallest_prime_powers")
        calls = [count_calls(module, "factorize") for module in (arith, systems)]
        cache = systems.prime_power_types.cache_info()
        nmax = ["--nmax", "1"] if what == "cA" else []
        code, out, _ = run(capsys, "table", "--what", what, "--system", "D",
                           "--rmax", str(rmax), *nmax, "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) == rmax + 1
        assert sieves == [(rmax,)]
        assert calls == [[], []]
        assert systems.prime_power_types.cache_info() == cache

    # MAX_TABLE_ROWS + 1 = 5 * 52429 rows
    @pytest.mark.parametrize(
        "argv",
        [
            ["--what", "cA", "--rmax", "5", "--nmax", "52429"],
            ["--what", "cA", "--rmax", "513"],
            ["--what", "phiA", "--rmax", str(MAX_TABLE_ROWS + 1)],
        ],
        ids=["cA-rmax-nmax", "cA-rmax", "phiA"],
    )
    def test_rows_above_cap_exit_1_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("table started above its row cap")

        # the system and the one sieve walk that every table is built from
        monkeypatch.setattr(cli, "load_system", refuse)
        monkeypatch.setattr(systems, "smallest_prime_powers", refuse)
        code, out, err = run(capsys, "table", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"table must have at most {MAX_TABLE_ROWS} rows" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--what", "cA", "--rmax", "4", "--nmax", str(MAX_TABLE_ROWS // 4)],
            ["--what", "cA", "--rmax", "512"],
            ["--what", "phiA", "--rmax", str(MAX_TABLE_ROWS)],
        ],
        ids=["cA-rmax-nmax", "cA-rmax", "phiA"],
    )
    def test_rows_at_cap_accepted(self, capsys, monkeypatch, argv):
        emitted = []
        # the values are made as a run makes them, the text is not; rows may be a generator: count what the emitter would iterate; a
        # grid's rows are its cells, one per modulus and n
        def count(rows):
            if isinstance(rows, cli._Grid):
                return len(rows.values)
            return sum(1 for _ in rows)

        monkeypatch.setattr(
            cli, "_emit_rows", lambda header, rows, fmt: emitted.append(count(rows)) or []
        )
        code, _, _ = run(capsys, "table", *argv)
        assert code == EXIT_OK
        assert emitted == [MAX_TABLE_ROWS]

    @pytest.mark.parametrize("what", ["phiA", "cA"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refusal_mid_table_prints_no_rows(self, capsys, tmp_path, what, fmt):
        # 2^4 is refused at r = 16, after the rows for r < 16 are made;
        # none of them may reach stdout
        spec = tmp_path / "a3.json"
        spec.write_text(json.dumps({"a_max": 3, "types": [{"p": 2, "a": 2, "t": 1}]}))
        nmax = ["--nmax", "2"] if what == "cA" else []  # --nmax is cA's alone
        code, out, err = run(capsys, "table", "--what", what, "--system", str(spec),
                             "--rmax", "40", *nmax, "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert "2^4 exceeds declared exponent bound 3" in err

    @pytest.mark.parametrize("what", ["cA", "phiA", "psiA", "gammaA", "muA"])
    def test_walk_refuses_mix_at_2_17(self, capsys, what):
        # every modulus below 2^17 is in MIX's scope and walked first; the
        # refusal names 2^17, the first prime power beyond the bound
        nmax = ["--nmax", "1"] if what == "cA" else []
        code, out, err = run(capsys, "table", "--what", what, "--system", "MIX",
                             "--rmax", "131072", *nmax)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "prime power 2^17 exceeds declared exponent bound 16\n"

    def test_main_never_holds_the_whole_output(self):
        # the square cap table's text is written chunk by chunk as it is made:
        # the traced peak stays below the size of the output
        class Sink(io.TextIOBase):
            chars = 0

            def write(self, text):
                self.chars += len(text)
                return len(text)

        argv = ["table", "--what", "cA", "--system", "MIX", "--rmax", "512", "--nmax", "512",
                "--format", "json"]
        sink = Sink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert sink.chars > 8 * 2**20
        assert peak < sink.chars

    @pytest.mark.parametrize(
        "what, nmax, fmt",
        [("cA", ["--nmax", "1"], "json"), ("phiA", [], "plain")],
        ids=["cA-one-row-json", "phiA-plain"],
    )
    def test_tables_hold_no_object_per_modulus(self, tmp_path, what, nmax, fmt):
        # a table holds its values in one flat sequence: no list per modulus
        # (one-row cA) and no tuple per row (plain phiA). c_A(1, r) is
        # mu_A(r), a small int that Python keeps once, and the phiA values
        # are array cells, so the traced peak is what the table, its walk
        # and its writer hold; a list per modulus or a tuple per row reads
        # 1.6-2.5 MiB here
        out = tmp_path / "table"

        def table(rmax):
            return main(["table", "--what", what, "--system", "U", "--rmax", str(rmax), *nmax,
                         "--format", fmt, "-o", str(out)])

        assert table(1) == EXIT_OK  # so the one-time costs of a first call are not traced
        tracemalloc.start()
        try:
            code = table(16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 16384 + (fmt == "plain")
        assert peak < 2**20

    @pytest.mark.parametrize("what", ["phiA", "psiA", "gammaA", "muA"])
    def test_nmax_outside_cA_exits_1_before_any_work(self, capsys, monkeypatch, what):
        # these tables have one row per r, so an --nmax would be ignored
        def refuse(*args):
            raise AssertionError("table started with an --nmax it would ignore")

        monkeypatch.setattr(cli, "load_system", refuse)
        code, out, err = run(capsys, "table", "--what", what, "--rmax", "3", "--nmax", "7")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--nmax applies only to --what cA, not --what {what}" in err

    def test_table_help_states_the_cap(self, capsys):
        code, out, _ = run(capsys, "table", "--help")
        assert code == EXIT_OK
        assert f"at most {MAX_TABLE_ROWS}" in " ".join(out.split())
        assert "--nmax NMAX cA only: n = 1..nmax, default rmax" in " ".join(out.split())


# wrong closed forms for the x-list c_A_sum that verify binds, each built
# from the real one
PROP2_MUTANTS = {
    # the psi_A bound holds on every row, so only the period tally tells
    "zeroed": lambda real: lambda system, r, xs: [x if r == 1 else 0 for x in xs],
    "sign flip": lambda real: lambda system, r, xs: [-s for s in real(system, r, xs)],
}


class TestCommandVerify:
    def test_prop2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "U",
                           "--rmax", "50", "--xmax", "1000", "--format", "csv")
        assert code == EXIT_OK
        assert "false" not in out

    @pytest.mark.parametrize("system", ["D", "U", "MIX"])
    @pytest.mark.parametrize("mutant", sorted(PROP2_MUTANTS))
    def test_prop2_fails_a_wrong_closed_form(self, capsys, monkeypatch, mutant, system):
        monkeypatch.setattr(verify, "c_A_sum", PROP2_MUTANTS[mutant](verify.c_A_sum))
        code, out, _ = run(capsys, "verify", "prop2", "--system", system, "--rmax", "300",
                           "--xmax", "100000", "--format", "json")
        assert code == EXIT_MISMATCH
        rows = [json.loads(line) for line in out.splitlines()]
        failed = {row["r"] for row in rows if row["pass"] == "false"}
        if mutant == "zeroed":
            assert all(abs(row["residual"]) <= row["bound"] for row in rows)
            assert failed and 1 not in failed  # the mutant is right at r = 1
        else:
            assert 1 in failed

    def test_prop3_dirichlet(self, capsys):
        code, out, _ = run(capsys, "verify", "prop3", "--system", "D", "--rmax", "30")
        assert code == EXIT_OK
        assert "none-found" in out

    def test_prop3_unitary_finds_violation(self, capsys):
        code, out, _ = run(capsys, "verify", "prop3", "--system", "U", "--rmax", "20",
                           "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert any(r["verdict"] == "violating" and (r["r"], r["s"]) == (2, 4) for r in rows)

    def test_prop4_unitary(self, capsys):
        code, out, _ = run(capsys, "verify", "prop4", "--system", "U", "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["p"], obj["t"]) == (2, 2)

    def test_prop4_dirichlet_not_applicable(self, capsys):
        code, out, _ = run(capsys, "verify", "prop4", "--system", "D")
        assert code == EXIT_OK
        assert "not-applicable" in out

    @pytest.mark.parametrize(
        "target, markers",
        [("prop3", ["none-found"]), ("prop4", ["not-applicable"]),
         ("all", ["none-found", "not-applicable"])],
    )
    def test_custom_spec_equal_to_dirichlet(self, capsys, tmp_path, target, markers):
        # verdicts come from the types, not from the spec's kind tag
        spec = tmp_path / "d.json"
        spec.write_text(json.dumps({"kind": "custom", "default": "dirichlet-default",
                                    "types": []}))
        code, out, _ = run(capsys, "verify", target, "--system", str(spec),
                           "--rmax", "8", "--xmax", "100")
        assert code == EXIT_OK
        assert all(m in out for m in markers)

    @pytest.mark.parametrize("system", ["U", "MIX"])
    def test_prop3_first_violation_beyond_rmax(self, capsys, system):
        # the first violating pair is (2, 4); below it every pair is orthogonal
        code, out, _ = run(capsys, "verify", "prop3", "--system", system, "--rmax", "3",
                           "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["verdict"] for r in rows] == ["diagonal"] * 3 + ["none-found"]

    def test_prop3_unitary_at_101(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "prop3", "--system", _unitary_at_101(tmp_path),
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["verdict"] == "none-found"

    def test_prop4_unitary_at_101(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "prop4", "--system", _unitary_at_101(tmp_path),
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["p"], obj["t"], obj["h_high"], obj["pass"]) == (101, 2, 101 + 101**2, "true")

    @pytest.mark.parametrize("rmax", [102, 103, 3000])
    def test_prop4_unitary_at_101_answers_every_rmax(self, capsys, tmp_path, rmax):
        # the budget bounds 101^2 alone, so every --rmax up to the cap passes
        system = _unitary_at_101(tmp_path, a_max=4)
        code, out, _ = run(capsys, "verify", "prop4", "--system", system, "--rmax", str(rmax),
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["p"], obj["r_checked"], obj["pass"]) == (101, rmax, "true")

    def test_prop4_power_at_the_budget_answers_at_once(self, capsys, tmp_path):
        # 2^20 of type 20 fits the budget, and no check scans n up to p^t or --rmax p^t
        spec = tmp_path / "a20.json"
        spec.write_text(json.dumps({"a_max": 20, "types": [{"p": 2, "a": 20, "t": 20}]}))
        assert 2**20 == verify.MAX_WITNESS_WORK
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "prop4", "--system", str(spec),
                           "--rmax", str(MAX_RMAX), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["p"], obj["t"], obj["h_high"], obj["pass"]) == (2, 20, 2 + 2**20, "true")

    def test_prop4_bound_one_without_entries_passes(self, capsys, tmp_path):
        # the bound holds only at table primes, so these are U's types, and
        # the witness budget reads p^a, not a_max: U's row
        spec = tmp_path / "u1.json"
        spec.write_text(json.dumps({"default": "unitary-default", "a_max": 1, "types": []}))
        code, out, _ = run(capsys, "verify", "prop4", "--system", str(spec), "--format", "json")
        assert code == EXIT_OK
        want = run(capsys, "verify", "prop4", "--system", "U", "--format", "json")[1]
        assert {**json.loads(out), "system": "U"} == json.loads(want)

    def test_prop4_high_table_entry_exits_1_at_once(self, capsys, tmp_path):
        # 2^40 of type 40 is accepted by the loader; its witness would loop to 4 * 2^40
        spec = tmp_path / "a40.json"
        spec.write_text(json.dumps({"a_max": 40, "types": [{"p": 2, "a": 40, "t": 40}]}))
        code, out, err = run(capsys, "verify", "prop4", "--system", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert "2^40" in err

    @pytest.mark.parametrize("target", ["prop1", "all"])
    def test_even_literal_past_the_tally_budget_exits_1_before_any_work(
        self, capsys, monkeypatch, target
    ):
        # 41 values on the divisors 2^i of r = 2^40: the tally would make 10^12 gcd calls
        literal = "r=1099511627776; " + ", ".join(f"{2**i}:{i % 5 - 2}" for i in range(41))

        def refuse(*args):
            raise AssertionError("prop1 started work past the tally budget")

        monkeypatch.setattr(verify, "gcd", refuse)
        monkeypatch.setattr(verify, "c_A_even", refuse)
        code, out, err = run(capsys, "verify", target, "--rmax", "1", "--xmax", str(10**12),
                             "--even", literal)
        assert code == EXIT_USAGE
        assert out == ""
        assert (f"the brute-force partial sum of an r={2**40} function up to x={10**12} "
                f"needs min(x, r) at most {verify.MAX_ORACLE_TALLY}") in err

    @pytest.mark.parametrize("target", ["prop2", "prop3", "prop4"])
    def test_even_literal_outside_prop1_exits_1_before_any_work(self, capsys, monkeypatch, target):
        # only Prop 1's battery reads the literal, so any other target would
        # pass without reading it
        def refuse(*args):
            raise AssertionError("verify started with an --even it would not read")

        monkeypatch.setattr(cli, "load_system", refuse)
        code, out, err = run(capsys, "verify", target, "--rmax", "2", "--even", "garbage")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--even applies only to prop1 and all, not {target}" in err

    @pytest.mark.parametrize("reads_extra", [False, True], ids=["ignores-extra", "reads-extra"])
    def test_a_check_added_to_the_table_is_a_target(self, capsys, monkeypatch, reads_extra):
        # the targets, the --even refusal and the --even help all come from
        # verify.CHECKS: a fifth entry is a target, runs last under all, and
        # takes --even exactly when its entry says it reads extra
        seen = []

        def prop5(system, r_max, x_max, extra):
            seen.append(extra)
            return ["check"], [["fifth"]], True

        monkeypatch.setitem(verify.CHECKS, "prop5", (prop5, reads_extra))
        fifth = '{"check": "fifth"}\n'
        argv = ("--system", "U", "--rmax", "3", "--xmax", "10", "--format", "json")
        assert run(capsys, "verify", "prop5", *argv) == (EXIT_OK, fifth, "")
        want = "".join(run(capsys, "verify", name, *argv)[1] for name in ("prop1", "prop2", "prop3", "prop4"))
        assert run(capsys, "verify", "all", *argv) == (EXIT_OK, want + fifth, "")
        help_text = " ".join(run(capsys, "verify", "--help")[1].split())
        assert "{prop1,prop2,prop3,prop4,prop5,all}" in help_text
        readers = "prop1 and prop5 and all" if reads_extra else "prop1 and all"
        assert f"--even EVEN {readers} only:" in help_text
        seen.clear()
        if reads_extra:
            assert run(capsys, "verify", "prop5", *argv, "--even", "r=2; 1:1, 2:3")[0] == EXIT_OK
            assert [(f.r, f.values) for f in seen] == [(2, ((1, 1), (2, 3)))]
            return

        def refuse(*args):
            raise AssertionError("verify started with an --even it would not read")

        monkeypatch.setattr(cli, "load_system", refuse)
        code, out, err = run(capsys, "verify", "prop5", "--even", "x")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--even applies only to prop1 and all, not prop5" in err
        assert seen == []

    def test_even_literal_within_the_tally_budget_answers(self, capsys):
        # r = 2^3 3^2 5 7 11 13 17, tau = 384 on 7 axes: the closed form's
        # cost is in tau, and the tally's in min(x, r) = 100
        r = 6126120
        literal = f"r={r}; " + ", ".join(
            f"{d}:{d % 7 - 3}/{d % 5 + 1}" for d in range(1, r + 1) if r % d == 0
        )
        code, out, _ = run(capsys, "verify", "prop1", "--rmax", "1", "--xmax", "100",
                           "--even", literal, "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out.splitlines()[-1])
        assert (row["r"], row["x"], row["pass"]) == (r, 100, "true")

    def test_prop1_builds_each_axis_matrix_once(self, capsys):
        # the sums c(., r) and the drawn functions for r <= 12 and the literal
        # at r = 2^5 3^2 5 7 11 read 9 distinct axes (q, k), 70 times in all
        r = 110880
        literal = f"r={r}; " + ", ".join(f"{d}:{d % 7 - 3}/{d % 5 + 1}" for d in divisors(r))
        axes = {(p, a) for n in [*range(1, 13), r] for p, a in factorize(n)}
        even._axis_matrices.cache_clear()
        code, _, _ = run(capsys, "verify", "prop1", "--rmax", "12", "--xmax", "100",
                         "--even", literal, "--format", "json")
        assert code == EXIT_OK
        info = even._axis_matrices.cache_info()
        assert info.misses == info.currsize == len(axes) == 9

    def test_huge_table_exponent_answers_at_once(self, capsys, tmp_path):
        # 2^(10^9) of type 10^9: built, it took 8.6 s; no power is built now
        spec = tmp_path / "a9.json"
        spec.write_text(json.dumps({"a_max": 10**9, "types": [{"p": 2, "a": 10**9, "t": 10**9}]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "prop3", "--system", str(spec), "--rmax", "10",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["verdict"] == "none-found"
        code, out, err = run(capsys, "verify", "prop4", "--system", str(spec), "--rmax", "10")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert ("prop4: every prime power of type > 1 exceeds the witness budget "
                f"{verify.MAX_WITNESS_WORK}: 2^1000000000") in err

    def test_all_runs_every_target_after_a_failure(self, capsys, monkeypatch):
        argv = ("--system", "U", "--rmax", "6", "--xmax", "100", "--format", "json")
        prop1 = run(capsys, "verify", "prop1", *argv)[1]
        want = "".join(run(capsys, "verify", target, *argv)[1]
                       for target in ("prop2", "prop3", "prop4"))
        # every prop1 row fails its closed-form comparison
        real = verify.partial_sum_numerators
        monkeypatch.setattr(verify, "partial_sum_numerators",
                            lambda f, xs: [t + 1 for t in real(f, xs)])
        code, out, _ = run(capsys, "verify", "all", *argv)
        assert code == EXIT_MISMATCH
        assert want and out.endswith(want)
        failed = [json.loads(line) for line in out.removesuffix(want).splitlines()]
        assert len(failed) == len(prop1.splitlines())
        assert {row["pass"] for row in failed} == {"false"}

    def test_rmax_above_cap_exits_1_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify started above the --rmax cap")

        monkeypatch.setattr(cli, "load_system", refuse)
        monkeypatch.setattr(verify, "check_propositions", refuse)
        code, out, err = run(capsys, "verify", "all", "--rmax", str(MAX_RMAX + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--rmax must be at most {MAX_RMAX}" in err

    def test_rmax_at_cap_accepted(self, capsys, monkeypatch):
        seen = []

        def fake(names, system, r_max, x_max, literal):
            seen.append((names, r_max))
            return [(["pass"], [["true"]], True) for _ in names]

        monkeypatch.setattr(verify, "check_propositions", fake)
        code, _, _ = run(capsys, "verify", "all", "--rmax", str(MAX_RMAX))
        assert code == EXIT_OK
        assert seen == [(("prop1", "prop2", "prop3", "prop4"), MAX_RMAX)]

    def test_refusal_after_built_tables_prints_nothing(self, capsys, tmp_path):
        # prop1 to prop3 build their rows, then prop4 refuses the 2^(10^9) witness
        spec = tmp_path / "a9.json"
        spec.write_text(json.dumps({"a_max": 10**9, "types": [{"p": 2, "a": 10**9, "t": 10**9}]}))
        argv = ("--system", str(spec), "--rmax", "10", "--format", "json")
        built = [run(capsys, "verify", target, *argv)[1] for target in ("prop1", "prop2", "prop3")]
        assert sum(len(text.splitlines()) for text in built) == 113
        code, out, err = run(capsys, "verify", "all", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "witness budget" in err

    def test_verify_help_states_the_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == EXIT_OK
        assert f"at most {MAX_RMAX}" in out

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_prop1_checks_the_named_system(self, capsys, system):
        # the battery opens with c_A(., r), r = 1..20, one record per x
        argv = ["verify", "prop1", "--rmax", "20", "--xmax", "200", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--system", system.name)
        assert code == EXIT_OK
        assert out != run(capsys, *argv, "--system", "D")[1]
        rows = [json.loads(line) for line in out.splitlines()]
        for r in range(1, 21):
            for row, x in zip(rows[2 * r - 2 : 2 * r], (100, 200)):
                assert (row["r"], row["x"]) == (r, x)
                assert row["exact_sum"] == c_A_sum_at(system, r, x)
        assert all(row["pass"] == "true" for row in rows)

    def test_prop1_with_literal(self, capsys):
        code, out, _ = run(capsys, "verify", "prop1", "--rmax", "10", "--xmax", "200",
                           "--even", "r=6; 1:1, 2:-1, 3:1/2, 6:3", "--format", "csv")
        assert code == EXIT_OK
        assert "false" not in out

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--system", "U",
                           "--rmax", "10", "--xmax", "100")
        assert code == EXIT_OK


def _unitary_at_101(tmp_path, a_max=16) -> str:
    """A spec file for the system unitary at 101 and Dirichlet elsewhere."""
    spec = tmp_path / "u101.json"
    spec.write_text(json.dumps({
        "kind": "custom",
        "default": "dirichlet-default",
        "a_max": a_max,
        "types": [{"p": 101, "a": a, "t": a} for a in range(1, a_max + 1)],
    }))
    return str(spec)


def _number(v):
    # the JSON emitter writes integral values as numbers, other rationals as "p/q"
    return Fraction(v) if isinstance(v, str) else v


class TestEmitter:
    """The CLI is the only serializer: its rows read back to the values
    they print."""

    def test_prop2_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "MIX", "--rmax", "12",
                           "--xmax", "500", "--format", "json")
        assert code == EXIT_OK
        for line in out.splitlines():
            row = json.loads(line)
            r, x = row["r"], row["x"]
            exact, main = c_A_sum_at(MIX, r, x), x if r == 1 else 0
            assert (row["exact_sum"], row["main_term"]) == (exact, main)
            assert (row["residual"], row["bound"]) == (exact - main, psi_A(MIX, r))
            assert row["pass"] == "true"

    def test_prop1_json_round_trip_rationals(self, capsys):
        literal = "r=6; 1:1, 2:-1, 3:1/2, 6:3"
        code, out, _ = run(capsys, "verify", "prop1", "--rmax", "4", "--xmax", "250",
                           "--even", literal, "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()][-2:]  # the literal's
        xs = [100, 250]
        mean, bound, tallies, _ = prop1_fractions(cli._even_function(literal, DIRICHLET), xs)
        for row, x, tally in zip(rows, xs, tallies, strict=True):
            assert isinstance(row["main_term"], str)  # 7/12 x is not integral
            assert row["x"] == x
            assert [_number(row[key]) for key in ("exact_sum", "main_term", "residual", "bound")] == [
                tally, mean * x, tally - mean * x, bound]

    def test_prop2_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "U", "--rmax", "8",
                           "--xmax", "100", "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["r", "x", "exact_sum", "main_term", "residual", "bound", "pass"]
        assert any(row[2].startswith("-") for row in rows)
        for r, x, exact, main, residual, bound, ok in rows:
            r, x = int(r), int(x)
            want = c_A_sum_at(UNITARY, r, x)
            assert (int(exact), int(main), int(residual), int(bound)) == (
                want, x if r == 1 else 0, want - (x if r == 1 else 0), psi_A(UNITARY, r)
            )
            assert ok == "true"

    @pytest.mark.parametrize("xmax, xs", [(1, [1]), (3, [1, 2, 3]), (7, [1, 2, 3, 7]),
                                          (100, [1, 2, 3, 10, 100])])
    def test_prop2_stays_within_xmax(self, capsys, xmax, xs):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "MIX", "--rmax", "2",
                           "--xmax", str(xmax), "--format", "csv")
        assert code == EXIT_OK
        _, *rows = csv.reader(io.StringIO(out))
        assert [(int(r), int(x)) for r, x, *_ in rows] == [(r, x) for r in (1, 2) for x in xs]

    def test_prop3_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "prop3", "--system", "U", "--rmax", "12",
                           "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert {row["verdict"] for row in rows} == {"diagonal", "violating"}
        for row in rows:
            assert list(row.values()) == orthogonality_row(UNITARY, row["r"], row["s"])


FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.builds(Fraction, st.integers(-10**40, 10**40)),
)


@settings(max_examples=300, deadline=None)
@given(v=FRACTIONS)
@example(v=Fraction(-7, 2))
@example(v=Fraction(-10**40))
@example(v=Fraction(10**40, 3))
def test_json_cell_writes_a_fraction_as_json_dumps_did(v):
    # the %-template prints the cell as %s: a JSON integer when the
    # denominator is 1, else the JSON string of format_value's text
    want = json.dumps(v.numerator) if v.denominator == 1 else json.dumps(cli.format_value(v))
    assert "%s" % (cli._json_cell(v),) == want
    assert json.loads(want) == (v.numerator if v.denominator == 1 else str(v))


STR_CELLS = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.text(st.sampled_from('"\\/ab\x00\x08\x1f\x7f\u2028é€\ud800\udfff\U0001d538')),
)


@settings(max_examples=300, deadline=None)
@given(v=STR_CELLS)
@example(v='say "p/q"\n')
@example(v="\x00\t\x1f\\")
@example(v="ψ_A ≤ σ(r) 𝔸")
@example(v="\ud800 lone \udfff")
def test_json_cell_writes_a_str_as_json_dumps_does(v):
    # the escaper json.dumps calls for a str under its default ensure_ascii
    assert cli._json_cell(v) == json.dumps(v)


def _format_oracle(v) -> str:
    # the cell text rule before format_value left ints and rationals to str
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_oracle(header, rows):
    # the dict-per-row JSON emitter that the %-template emitter replaced
    out = io.StringIO()
    for row in rows:
        obj = {
            k: (
                v.numerator if isinstance(v, Fraction) and v.denominator == 1
                else _format_oracle(v) if isinstance(v, (Fraction, float))
                else v
            )
            for k, v in zip(header, row)
        }
        out.write(json.dumps(obj) + "\n")
    return out.getvalue()


def _csv_oracle(header, rows):
    # the CSV emitter that ran every cell but a str through the cell text rule
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_oracle(v) if not isinstance(v, str) else v for v in row])
    return out.getvalue()


def _plain_oracle(header, rows):
    # the plain emitter that formatted every cell twice, once for its width
    widths = [
        max(len(h), *(len(_format_oracle(r[i])) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    return "".join(
        "  ".join(_format_oracle(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n"
        for row in [header, *rows]
    )


TRICKY_TEXT = st.text(st.sampled_from('"\\%s\u00e9\u20ac\U0001d11ea ,\n') | st.characters(),
                      max_size=8)
CELLS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1),
    st.booleans(),
    st.fractions(),
    st.integers().map(Fraction),
    st.floats(),
    TRICKY_TEXT,
)


# exact ints of every sign and size, and bools, which print true/false
INT_CELLS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.booleans(),
)


@st.composite
def _tables(draw, cells=CELLS):
    # every header carries a quote and a percent sign; its keys are unique, as
    # the dict the oracle builds has them
    extra = draw(st.lists(TRICKY_TEXT, max_size=4))
    header = list(dict.fromkeys(['say "hi"', "100%", "%s", *extra]))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)),
                         max_size=6))
    return header, rows


class TestEmitterOracle:
    """The streaming emitter writes the same bytes as the one it replaced."""

    @given(_tables())
    @settings(max_examples=300, deadline=None)
    def test_json_matches_dict_dumps(self, table):
        header, rows = table
        assert "".join(cli._emit_rows(header, iter(rows), "json")) == _json_oracle(header, rows)

    @given(_tables())
    @settings(max_examples=300, deadline=None)
    def test_csv_matches_format_value(self, table):
        header, rows = table
        assert "".join(cli._emit_rows(header, iter(rows), "csv")) == _csv_oracle(header, rows)

    @given(_tables() | _tables(cells=INT_CELLS))
    # a bool is neither its column's max nor its min, yet its text is widest
    @example((["b", "n"], [[True, -5], [-5, 7], [7, False]]))
    @settings(max_examples=300, deadline=None)
    def test_plain_matches_two_pass_widths(self, table):
        header, rows = table
        assert "".join(cli._emit_rows(header, iter(rows), "plain")) == _plain_oracle(header, rows)

    @pytest.mark.parametrize("row_type", [tuple, list])
    @pytest.mark.parametrize("fmt, oracle", [("json", _json_oracle), ("csv", _csv_oracle)],
                             ids=["json", "csv"])
    def test_chunks_switch_between_int_and_cell_paths(self, fmt, oracle, row_type):
        # an all-int chunk, a chunk holding one cell of each other kind, then
        # ints again past the third chunk boundary
        header = ['say "hi"', "100%", "%s"]
        size = cli.CHUNK_ROWS
        rows = [(n, -n, n * 2**70) for n in range(3 * size + 5)]
        rows[size + 7] = (True, Fraction(-3, 4), 2.5)
        rows[2 * size - 1] = ('a "b", %s', Fraction(6), False)
        rows = [row_type(row) for row in rows]
        texts = list(cli._emit_rows(header, iter(rows), fmt))
        assert len(texts) == 4 + (fmt == "csv")  # csv's header is its own text
        assert "".join(texts) == oracle(header, rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refusal_after_first_chunk_prints_nothing(self, capsys, tmp_path, fmt):
        # 2^13 is refused at r = 8192, in the second chunk of phiA rows
        spec = tmp_path / "a12.json"
        spec.write_text(json.dumps({"a_max": 12, "types": [{"p": 2, "a": 2, "t": 1}]}))
        assert 8192 > cli.CHUNK_ROWS
        code, out, err = run(capsys, "table", "--what", "phiA", "--system", str(spec),
                             "--rmax", "9000", "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert "2^13 exceeds declared exponent bound 12" in err


# n_max and r_max across the 9 -> 10 and 99 -> 100 text widths, each side
WIDTH_EDGES = st.sampled_from([1, 9, 10, 11, 99, 100, 101])


class TestGridEmitter:
    """Every `table` hands `_emit_rows` a grid of its values; the text
    written from it equals the generic emitter's on the same rows as tuples."""

    @given(spec=valid_specs(), rmax=WIDTH_EDGES | st.integers(1, 120),
           nmax=WIDTH_EDGES | st.integers(1, 120), chunk=st.sampled_from([4096, 1, 3, 50]))
    @example(spec=CUSTOM_OK, rmax=9, nmax=10, chunk=4096)
    @example(spec=CUSTOM_OK, rmax=10, nmax=9, chunk=4096)
    @example(spec=CUSTOM_OK, rmax=99, nmax=100, chunk=4096)
    @example(spec=CUSTOM_OK, rmax=100, nmax=99, chunk=50)
    @example(spec=CUSTOM_OK, rmax=101, nmax=11, chunk=50)
    @example(spec=CUSTOM_OK, rmax=11, nmax=101, chunk=3)
    @example(spec=CUSTOM_OK, rmax=7, nmax=2, chunk=3)
    @settings(max_examples=60, deadline=None)
    def test_grid_text_matches_generic_rows(self, spec, rmax, nmax, chunk):
        system = system_from_dict(spec)
        values = []
        for r in range(1, rmax + 1):
            try:
                values += gensums.c_A_column(system, r, nmax)
            except ExponentOutOfScopeError:
                break  # the table stops before the first modulus the system refuses
        moduli = range(1, len(values) // nmax + 1)
        # the grid writes values with %d, which needs exact ints
        assert all(type(v) is int for v in values)
        rows = [(n, r, values[(r - 1) * nmax + n - 1]) for n in range(1, nmax + 1) for r in moduli]
        _assert_grid_writes_its_rows(["n", "r", "value"], cli._Grid(moduli, nmax, values), rows, chunk)

    @given(spec=valid_specs(), rmax=WIDTH_EDGES | st.integers(1, 120),
           what=st.sampled_from(["phiA", "psiA", "gammaA", "muA"]),
           chunk=st.sampled_from([4096, 1, 3, 50]))
    @example(spec=CUSTOM_OK, rmax=10, what="muA", chunk=4096)
    @example(spec=CUSTOM_OK, rmax=101, what="psiA", chunk=50)
    @example(spec=CUSTOM_OK, rmax=9, what="phiA", chunk=3)
    @settings(max_examples=60, deadline=None)
    def test_two_key_grid_matches_generic_rows(self, spec, rmax, what, chunk):
        # the A-function tables: one row (r, value) per modulus, n_max 1, no n text
        system = system_from_dict(spec)
        fn = {"phiA": phi_A, "psiA": psi_A, "gammaA": gamma_A, "muA": mu_A}[what]
        values = []
        for r in range(1, rmax + 1):
            try:
                values.append(fn(system, r))
            except ExponentOutOfScopeError:
                break
        moduli = range(1, len(values) + 1)
        grid = cli._Grid(moduli, 1, array("q", values))
        _assert_grid_writes_its_rows(["r", "value"], grid, list(zip(moduli, values)), chunk)


def _assert_grid_writes_its_rows(header, grid, rows, chunk):
    # both paths run: a row of moduli wider than CHUNK_ROWS is cut across texts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK_ROWS", chunk)
        for fmt in cli.FORMATS:
            texts = list(cli._emit_rows(header, grid, fmt))
            want = "".join(cli._emit_rows(header, rows, fmt))
            # compared as lines, which pytest reports by the first index that differs
            assert "".join(texts).split("\n") == want.split("\n"), fmt
            assert max(text.count("\n") for text in texts) <= chunk
            # each text is whole lines, also where a row of moduli is cut
            assert all(text.endswith("\n") for text in texts), fmt


# one valid run of each command, in the order `build_parser` adds them
VALID_RUNS = {
    "c": ["c", "2", "4"],
    "table": ["table", "--what", "phiA", "--system", "U", "--rmax", "6"],
    "verify": ["verify", "prop4", "--system", "U", "--rmax", "3", "--format", "json"],
    "expansion": ["expansion", "6", "--terms", "10"],
}


class TestErrorsAndPlumbing:
    def test_usage_error_exit_1(self, capsys):
        assert run(capsys, "nope")[0] == EXIT_USAGE
        assert run(capsys)[0] == EXIT_USAGE
        assert run(capsys, "c", "1")[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table", "--what", "cA", "--rmax", "-5"], "--rmax"),
            (["table", "--what", "cA", "--rmax", "3", "--nmax", "0"], "--nmax"),
            (["verify", "prop1", "--rmax", "0"], "--rmax"),
            (["verify", "prop4", "--system", "U", "--rmax", "0"], "--rmax"),
            (["verify", "prop2", "--xmax", "0"], "--xmax"),
            (["verify", "prop2", "--xmax", "ten"], "--xmax"),
            (["expansion", "6", "--terms", "-1"], "--terms"),
            (["c", "0", "5"], "n"),
            (["c", "5", "-3", "--route", "core"], "r"),
            (["c", "5", "0", "--route", "oracle"], "r"),
            (["expansion", "0"], "n"),
        ],
    )
    def test_nonpositive_range_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {flag}: must be a positive integer" in err

    # int() reads each of these as 10 or 3; a count is ASCII digits alone
    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 3", "+3"],
                             ids=["underscore", "arabic-indic", "space", "plus"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["c", "TEXT", "5"], "n"),
            (["c", "5", "TEXT"], "r"),
            (["table", "--what", "cA", "--rmax", "TEXT"], "--rmax"),
            (["table", "--what", "cA", "--rmax", "3", "--nmax", "TEXT"], "--nmax"),
            (["verify", "prop2", "--xmax", "TEXT"], "--xmax"),
            (["expansion", "6", "--terms", "TEXT"], "--terms"),
        ],
    )
    def test_count_takes_ascii_digits_only(self, capsys, argv, flag, text):
        code, out, err = run(capsys, *(text if arg == "TEXT" else arg for arg in argv))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument {flag}: must be a positive integer, got {text!r}" in err

    @needs_int_digit_limit
    def test_count_past_the_int_digit_limit_exits_1(self, capsys):
        # int() refuses it; without the limit, factorize would run for hours
        code, out, err = run(capsys, "c", "1", "9" * (INT_DIGIT_LIMIT + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument r: must be a positive integer" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"types": [{"p": 4, "a": 2, "t": 1}]}, "not a prime"),
            ({"a_max": 0}, "exponent bound must be >= 1"),
            ({"a_max": "x"}, "exponent bound must be an integer"),
            ({"types": [{"p": 2.5, "a": 1, "t": 1}]}, "p must be an integer, got 2.5"),
            ({"typez": [{"p": 2, "a": 2, "t": 2}]}, "unexpected key 'typez' for kind 'custom'"),
            ({"kind": "dirichlet", "a_max": 0}, "unexpected key 'a_max' for kind 'dirichlet'"),
            ({"types": [{"p": 2, "a": 2, "t": 2, "rule": "unitary"}]},
             "entry {'p': 2, 'a': 2, 't': 2, 'rule': 'unitary'} must be an object "
             "with exactly the keys p, a, t"),
            ({"types": [[2, 2, 2]]},
             "entry [2, 2, 2] must be an object with exactly the keys p, a, t"),
            ({"types": {"p": 2, "a": 2, "t": 2}}, "types must be a list"),
            ({"types": [{"p": 2, "a": 2, "t": 1}, {"p": 2, "a": 2, "t": 2}]},
             "conflicting types for prime power 2^2"),
        ],
    )
    def test_bad_spec_file_exits_1(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "c", "5", "16", "--system", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_integral_float_a_max_loads(self, capsys, tmp_path):
        # a_max 3.0 is the integer 3, as an entry's 2.0 is 2: 2^3 answers
        # as under a_max 3, and 2^4 is refused at the bound 3
        path = tmp_path / "spec.json"
        outs = []
        for a_max in (3, 3.0):
            path.write_text(json.dumps({"a_max": a_max, "types": [{"p": 2.0, "a": 2, "t": 1}]}))
            code, out, err = run(capsys, "c", "5", "8", "--system", str(path))
            assert (code, err) == (EXIT_OK, "")
            outs.append(out)
        assert outs[0] == outs[1] != ""
        code, out, err = run(capsys, "c", "5", "16", "--system", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert "2^4 exceeds declared exponent bound 3\n" in err

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("r=2; 1:1, x:2", "malformed divisor:value pair 'x:2'"),
            ("r=2; 1:1, 2:3, 2:5", "divisor 2 is given more than once"),
            ("r=0; 1:1", "modulus must be >= 1, got r=0 in even-function literal 'r=0; 1:1'"),
            ("r=\u0666; 1:1, 2:1, 3:1, 6:1", "malformed even-function literal"),
            ("r=1_0; 1:1, 2:1, 5:1, 10:1", "malformed even-function literal"),
            ("", "malformed even-function literal: ''"),
            # int() or Fraction() reads each of these; a token is ASCII digits alone
            ("r=2; 1:1, \u0662:1", "malformed divisor:value pair '\u0662:1'"),
            ("r=2; 1:1, +2:1", "malformed divisor:value pair '+2:1'"),
            ("r=2; 1:1, 2:1_0", "malformed divisor:value pair '2:1_0'"),
            ("r=2; 1:1, 2:+1", "malformed divisor:value pair '2:+1'"),
            ("r=2; 1:1, 2:1.5", "malformed divisor:value pair '2:1.5'"),
            ("r=2; 1:1, 2:1e1", "malformed divisor:value pair '2:1e1'"),
        ],
    )
    def test_bad_even_literal_exits_1(self, capsys, literal, message):
        code, out, err = run(capsys, "verify", "prop1", "--rmax", "3", "--xmax", "10",
                             "--even", literal)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert "invalid literal for int()" not in err
        assert "factorize" not in err

    @pytest.mark.parametrize(
        "system, literal, message",
        [
            ("U", "r=4; 1:1, 2:2, 4:3", "not A-even mod 4: value at 2 is 2, but (2, 4)_A = 1 has value 1"),
            ("MIX", "r=4; 1:1, 2:2, 4:3", "not A-even mod 4: value at 2 is 2, but (2, 4)_A = 1 has value 1"),
            ("U", "r=36; 1:1, 2:1, 3:1, 4:1, 6:5/2, 9:1, 12:1, 18:1, 36:2",
             "not A-even mod 36: value at 6 is 5/2, but (6, 36)_A = 1 has value 1"),
            ("MIX", "r=36; 1:1, 2:1, 3:-1, 4:1, 6:5/2, 9:1, 12:1, 18:1, 36:2",
             "not A-even mod 36: value at 6 is 5/2, but (6, 36)_A = 3 has value -1"),
        ],
    )
    def test_non_even_literal_names_the_divisor_and_both_values(self, capsys, system, literal, message):
        code, out, err = run(capsys, "verify", "prop1", "--system", system, "--rmax", "1",
                             "--xmax", "10", "--even", literal)
        assert (code, out, err) == (EXIT_USAGE, "", message + "\n")

    def test_invalid_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "custom", "types": [{"p": 2, "a": 4, "t": 3}]}))
        code, _, err = run(capsys, "c", "1", "2", "--system", str(bad))
        assert code == EXIT_USAGE
        assert "does not divide" in err

    def test_custom_spec_file_works(self, capsys, tmp_path):
        spec = tmp_path / "mix2.json"
        spec.write_text(json.dumps({
            "kind": "custom",
            "default": "dirichlet-default",
            "a_max": 16,
            "types": [{"p": 2, "a": a, "t": a} for a in range(1, 17)],
        }))
        code, out, _ = run(capsys, "c", "2", "4", "--system", str(spec),
                           "--route", "all", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[2] == "-1"

    def test_console_script_runs_the_entrypoint(self):
        # the installed `ramlab` script calls the target pyproject names
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        module, name = re.search(r'^ramlab = "([\w.]+):(\w+)"$', text, re.M).groups()
        assert getattr(importlib.import_module(module), name) is cli.entrypoint

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMLAB_FORMAT", "json")
        code, out, _ = run(capsys, "c", "1", "1")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("whole", [True, False], ids=["whole-tree", "one-command"])
    @pytest.mark.parametrize("argv", VALID_RUNS.values(), ids=VALID_RUNS)
    def test_parser_reads_no_environment(self, monkeypatch, argv, whole):
        # RAMLAB_FORMAT is resolved by `main` per call, not baked into a
        # default, in the whole tree and in each command's own
        command = () if whole else (argv[0],)
        monkeypatch.delenv("RAMLAB_FORMAT", raising=False)
        unset = cli.build_parser(*command).parse_args(argv)
        monkeypatch.setenv("RAMLAB_FORMAT", "json")
        assert cli.build_parser(*command).parse_args(argv) == unset

    def test_env_format_unknown_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMLAB_FORMAT", "xml")
        code, out, err = run(capsys, "c", "1", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "'xml'" in err and "json, csv, plain" in err
        # a given --format is read instead of the environment
        code, out, _ = run(capsys, "c", "1", "1", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, where):
        dest = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, "c", "1", "2", "-o", str(dest))
        assert code == EXIT_USAGE
        assert out == ""
        assert str(dest) in err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, "table", "--what", "phiA", "--rmax", "3",
                           "--format", "csv", "-o", str(dest))
        assert code == EXIT_OK
        assert out == ""
        assert dest.read_text().splitlines()[0] == "r,value"

    def test_expansion(self, capsys):
        code, out, _ = run(capsys, "expansion", "6", "--terms", "100000",
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert float(obj["target"]) == 2.0
        assert float(obj["abs_error"]) < 2e-3

    def test_expansion_single_term(self, capsys):
        code, out, _ = run(capsys, "expansion", "1", "--terms", "1", "--format", "json")
        obj = json.loads(out)
        assert float(obj["truncated"]) == pytest.approx(1.6449340668, abs=1e-6)

    def test_expansion_terms_above_cap_exits_1_before_the_sieve(self, capsys, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sieve of {limit} allocated")

        monkeypatch.setattr(expansion, "moebius_sieve", refuse)
        code, out, err = run(capsys, "expansion", "6", "--terms", str(MAX_TERMS + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--terms must be at most {MAX_TERMS}" in err

    def test_expansion_terms_at_cap_accepted(self, capsys, monkeypatch):
        seen = []

        def fake(n, terms):
            seen.append((n, terms))
            return ["n", "terms", "truncated", "target", "abs_error"], [[n, terms, 2.0, 2.0, 0.0]], True

        monkeypatch.setattr(expansion, "expansion_demo", fake)
        code, _, _ = run(capsys, "expansion", "6", "--terms", str(MAX_TERMS))
        assert code == EXIT_OK
        assert seen == [(6, MAX_TERMS)]

    def test_expansion_help_states_the_cap(self, capsys):
        code, out, _ = run(capsys, "expansion", "--help")
        assert code == EXIT_OK
        assert f"at most {MAX_TERMS}" in " ".join(out.split())

    def test_determinism(self, capsys):
        out1 = run(capsys, "verify", "prop1", "--rmax", "8", "--xmax", "100",
                   "--format", "json")[1]
        out2 = run(capsys, "verify", "prop1", "--rmax", "8", "--xmax", "100",
                   "--format", "json")[1]
        assert out1 == out2


def _literal(f):
    """f as the CLI literal `r=...; d:v, ...` that `cli._even_function` reads."""
    return f"r={f.r}; " + ", ".join(f"{d}:{v}" for d, v in f.values)


# a token's ASCII digits rewritten as int() or Fraction() may still read them
# argv whose bytes and exit code must not depend on how much of the tree
# `main` builds: the help texts, the usage errors before, at and after the
# command name, and a valid run of each command
PARSER_CORPUS = [
    [], ["--help"], ["-h", "c"], *([name, "--help"] for name in VALID_RUNS),
    ["c"], ["bogus", "c", "1", "2"], ["-x", "c", "1", "2"], ["--", "c", "5", "6"],
    ["c", "5", "6", "extra"], ["c", "5", "6", "--sys", "U"],
    ["c", "5", "6", "--format", "json", "--format", "csv"], ["c", "5", "6", "-o"],
    ["--format", "json", "c", "1", "2"], *VALID_RUNS.values(),
]

HELP = ("-h", "--help")


def option_strings(calls):
    # what each recorded `add_argument(self, *names)` call added, sorted
    return sorted(args[1:] for args in calls)


class TestParserPerCommand:
    """`main` adds the arguments of the command argv[0] names, and no
    other's; every other argv, and `build_parser()`, get the whole tree."""

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=map(" ".join, PARSER_CORPUS))
    def test_same_bytes_as_the_whole_tree(self, capsys, monkeypatch, argv):
        ours = run(capsys, *argv)
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
        assert ours == run(capsys, *argv)

    def test_c_adds_only_its_own_arguments(self, capsys, count_calls):
        calls = count_calls(cli._Parser, "add_argument")
        assert run(capsys, "c", "2", "4")[0] == EXIT_OK
        # one help action per parser: the top level and each of four commands
        own = [("--format",), ("-o", "--output"), ("n",), ("r",), ("--system",), ("--route",)]
        assert option_strings(calls) == sorted([HELP] * 5 + own)

    def test_whole_tree_holds_every_commands_arguments(self, count_calls):
        calls = count_calls(cli._Parser, "add_argument")

        def added(*command):
            calls.clear()
            cli.build_parser(*command)
            return option_strings(calls)

        own = {name: [a for a in added(name) if a != HELP] for name in VALID_RUNS}
        assert all(own.values())
        whole = sorted([HELP] * 5 + [a for args in own.values() for a in args])
        assert added() == added(None) == added("bogus") == added("-x") == whole

    @pytest.mark.parametrize("argv, code", [(["verify", "--help"], EXIT_OK),
                                            (["-x", "c", "1", "2"], EXIT_USAGE)])
    def test_argv_none_reads_sys_argv_once(self, capsys, monkeypatch, argv, code):
        expected = run(capsys, *argv)
        reads = []

        class Argv(list):
            def __getitem__(self, index):
                reads.append(index)
                return super().__getitem__(index)

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *command: built.append(command) or real(*command))
        monkeypatch.setattr(sys, "argv", Argv(["ramlab", *argv]))
        assert main() == code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        # one slice of sys.argv, whose first item picks the tree
        assert reads == [slice(1, None)]
        assert built == [(argv[0],)]


TOKEN_REWRITES = {
    "plus": lambda digits: "+" + digits,
    "underscore": lambda digits: digits + "_0",
    "arabic-indic": lambda digits: digits[:-1] + chr(0x660 + int(digits[-1])),
    "decimal": lambda digits: digits + ".5",
    "exponent": lambda digits: digits + "e1",
}


class TestLiteral:
    """The `--even` literal, read where it enters, by `cli._even_function`."""

    def test_integers(self):
        f = cli._even_function("r=12; 1:1, 2:-1, 3:0, 4:2, 6:0, 12:5", DIRICHLET)
        assert f.r == 12 and f.value_map[4] == 2 and f.system is DIRICHLET

    def test_rationals(self):
        f = cli._even_function("r=2; 1:1/3, 2:-5/2", DIRICHLET)
        assert f.value_map == {1: Fraction(1, 3), 2: Fraction(-5, 2)}

    def test_malformed(self):
        with pytest.raises(ValueError):
            cli._even_function("1:1, 2:2", DIRICHLET)
        with pytest.raises(ValueError):
            cli._even_function("r=6; 1:one", DIRICHLET)
        with pytest.raises(ValueError):
            cli._even_function("r=6; 1:1, 2:2", DIRICHLET)  # missing divisors

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_read_in_the_system(self, system):
        # (2, 4)_A = 1 under U and MIX, so f(2) must equal f(1)
        f = cli._even_function("r=4; 1:1, 2:1, 4:3", system)
        assert f.system is system
        assert [d for d, _ in coeffs_h(fourier_coeffs(f))] == [1, 4]
        with pytest.raises(ValueError, match=re.escape("not A-even mod 4: value at 2 ")):
            cli._even_function("r=4; 1:1, 2:2, 4:3", system)
        assert cli._even_function("r=4; 1:1, 2:2, 4:3", DIRICHLET).value_map[2] == 2

    def test_empty_items_are_skipped(self, capsys):
        argv = ("verify", "prop1", "--rmax", "1", "--xmax", "5", "--format", "json", "--even")
        code, out, _ = run(capsys, *argv, "r=2; 1:1, , 2:1,")
        assert code == EXIT_OK and out != ""
        assert out == run(capsys, *argv, "r=2; 1:1, 2:1")[1]

    @needs_int_digit_limit
    def test_value_past_the_int_digit_limit_is_a_malformed_pair(self, capsys):
        item = "1:" + "9" * (INT_DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "verify", "prop1", "--rmax", "1", "--xmax", "5",
                             "--even", "r=1; " + item)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"malformed divisor:value pair {item!r}" in err

    @settings(max_examples=40, deadline=None)
    @given(spec=valid_specs(), data=st.data())
    def test_printed_literal_round_trips_and_passes_prop1(self, tmp_path_factory, spec, data):
        system = system_from_dict(spec)
        r = data.draw(in_scope_moduli(system), label="r")
        members = divisor_set(system, r)
        vals = data.draw(st.lists(RATIONAL_VALUES["int and fraction"],
                                  min_size=len(members), max_size=len(members)))
        drawn = dict(zip(members, vals))
        f = EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        literal = _literal(f)
        assert cli._even_function(literal, system) == f
        x_max = data.draw(st.integers(1, 3 * r), label="x_max")
        ((_, rows, passed),) = check_propositions(["prop1"], system, 1, x_max, f)
        assert passed and rows[-1][:2] == [r, x_max]
        # one drawn token, the divisor, numerator or denominator of a pair,
        # rewritten in each way that int() or Fraction() reads
        pairs = [[str(d), *re.fullmatch(r"(-?)(\d+)/?(\d*)", str(v)).groups()] for d, v in f.values]
        i = data.draw(st.integers(0, len(pairs) - 1), label="pair")
        token = data.draw(st.sampled_from([0, 2, 3] if pairs[i][3] else [0, 2]), label="token")
        for rewrite in TOKEN_REWRITES.values():
            bad_pairs = [list(pair) for pair in pairs]
            bad_pairs[i][token] = rewrite(pairs[i][token])
            items = (f"{d}:{sign}{p}" + (f"/{q}" if q else "") for d, sign, p, q in bad_pairs)
            with pytest.raises(ValueError, match="^malformed divisor:value pair "):
                cli._even_function(f"r={r}; " + ", ".join(items), system)
        # a changed value at a divisor outside A(r) breaks f(d) = f((d, r)_A)
        outside = sorted(set(divisors(r)) - set(members))
        if outside:
            d = data.draw(st.sampled_from(outside), label="d")
            values = dict(f.values)
            values[d] += 1
            bad = _literal(EvenFunction.from_values(r, values))
            with pytest.raises(ValueError, match=rf"^not A-even mod {r}: value at {d} "):
                cli._even_function(bad, system)
            path = tmp_path_factory.getbasetemp() / "round_trip_spec.json"
            path.write_text(json.dumps(spec))
            code, out, err = run_captured("verify", "prop1", "--system", str(path), "--rmax", "1",
                                          "--xmax", str(x_max), "--even", bad)
            assert (code, out) == (EXIT_USAGE, "") and f"value at {d} " in err
