import csv
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramlab import cli, even, gensums, verify
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
from ramlab.gensums import PartialSumReport
from ramlab.systems import MIX, UNITARY
from ramlab.verify import OrthogonalityReport

from conftest import euler_phi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert float(obj["re"]) == pytest.approx(-1, abs=1e-9)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "c", "2", "4", "--system", "U", "--route", "all",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["divisor"] == obj["core"] == -1
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
            return complex(gensums.c_A(system, n, r))

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

        monkeypatch.setattr(cli, "load_system", refuse)
        monkeypatch.setattr(gensums, "c_A_column", refuse)
        monkeypatch.setattr(cli, "phi_A", refuse)
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
        monkeypatch.setattr(gensums, "c_A_column", lambda system, r, n_max: [0] * n_max)
        monkeypatch.setattr(cli, "phi_A", lambda system, r: 0)
        # rows may be a generator: count what the emitter would iterate
        monkeypatch.setattr(
            cli, "_emit_rows",
            lambda header, rows, fmt: emitted.append(sum(1 for _ in rows)) or [],
        )
        code, _, _ = run(capsys, "table", *argv)
        assert code == EXIT_OK
        assert emitted == [MAX_TABLE_ROWS]

    @pytest.mark.parametrize("what", ["phiA", "cA"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refusal_mid_table_prints_no_rows(self, capsys, tmp_path, what, fmt):
        # 2^4 is refused at r = 16, after the rows for r < 16 (phiA writes
        # its rows as it makes them); none of them may reach stdout
        spec = tmp_path / "a3.json"
        spec.write_text(json.dumps({"a_max": 3, "types": [{"p": 2, "a": 2, "t": 1}]}))
        code, out, err = run(capsys, "table", "--what", what, "--system", str(spec),
                             "--rmax", "40", "--nmax", "2", "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert "2^4 exceeds declared exponent bound 3" in err

    def test_table_help_states_the_cap(self, capsys):
        code, out, _ = run(capsys, "table", "--help")
        assert code == EXIT_OK
        assert f"at most {MAX_TABLE_ROWS}" in " ".join(out.split())


class TestCommandVerify:
    def test_prop2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "U",
                           "--rmax", "50", "--xmax", "1000", "--format", "csv")
        assert code == EXIT_OK
        assert "false" not in out

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
        real = verify.partial_sum_even
        monkeypatch.setattr(verify, "partial_sum_even",
                            lambda f, x: PartialSumReport(x, real(f, x).exact_sum + 1, 0, 0))
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
                assert row["exact_sum"] == gensums.c_A_sum(system, r, x)
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
    """The CLI is the only serializer: its rows read back to the reports."""

    def test_prop2_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "MIX", "--rmax", "12",
                           "--xmax", "500", "--format", "json")
        assert code == EXIT_OK
        for line in out.splitlines():
            row = json.loads(line)
            rep = gensums.partial_sum_cA(MIX, row["r"], row["x"])
            back = PartialSumReport(row["x"], row["exact_sum"], row["main_term"], row["bound"])
            assert back == rep
            assert row["residual"] == rep.residual
            assert row["pass"] == "true"

    def test_prop1_json_round_trip_rationals(self, capsys):
        literal = "r=6; 1:1, 2:-1, 3:1/2, 6:3"
        code, out, _ = run(capsys, "verify", "prop1", "--rmax", "4", "--xmax", "250",
                           "--even", literal, "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()][-2:]  # the literal's
        reps = verify.mean_value_check(even.parse_even_literal(literal), [100, 250])
        for row, rep in zip(rows, reps):
            assert isinstance(row["main_term"], str)  # 7/12 x is not integral
            back = PartialSumReport(row["x"], _number(row["exact_sum"]),
                                    _number(row["main_term"]), _number(row["bound"]))
            assert back == rep
            assert _number(row["residual"]) == rep.residual

    def test_prop2_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--system", "U", "--rmax", "8",
                           "--xmax", "100", "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["r", "x", "exact_sum", "main_term", "residual", "bound", "pass"]
        assert any(row[2].startswith("-") for row in rows)
        for r, x, exact, main, residual, bound, ok in rows:
            rep = gensums.partial_sum_cA(UNITARY, int(r), int(x))
            assert (int(exact), int(main), int(residual), int(bound)) == (
                rep.exact_sum, rep.main_term, rep.residual, rep.certified_bound
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
            back = OrthogonalityReport(row["system"], row["r"], row["s"], row["exact_mean"],
                                       Fraction(row["empirical_mean"]))
            assert back == verify.orthogonality_report(UNITARY, row["r"], row["s"])
            assert back.verdict == row["verdict"]


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
        ],
    )
    def test_nonpositive_range_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {flag}: must be a positive integer" in err

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
        ],
    )
    def test_bad_spec_file_exits_1(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "c", "5", "16", "--system", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("r=2; 1:1, x:2", "malformed divisor:value pair 'x:2'"),
            ("r=2; 1:1, 2:3, 2:5", "divisor 2 is given more than once"),
            ("r=0; 1:1", "modulus must be >= 1, got r=0 in even-function literal 'r=0; 1:1'"),
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

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMLAB_FORMAT", "json")
        code, out, _ = run(capsys, "c", "1", "1")
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

        monkeypatch.setattr(verify, "moebius_sieve", refuse)
        code, out, err = run(capsys, "expansion", "6", "--terms", str(MAX_TERMS + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--terms must be at most {MAX_TERMS}" in err

    def test_expansion_terms_at_cap_accepted(self, capsys, monkeypatch):
        seen = []

        def fake(n, terms):
            seen.append((n, terms))
            return verify.ExpansionResult(n, terms, 2.0, 2.0, 0.0)

        monkeypatch.setattr(verify, "expansion_demo", fake)
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
