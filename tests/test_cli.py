import json
import math
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from qcomb import cli, psi
from qcomb.errors import ValidationError
from qcomb.verification import CheckResult

if hasattr(sys, "set_int_max_str_digits"):  # some expected values below exceed 4300 digits
    sys.set_int_max_str_digits(0)


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = (resources.files("qcomb") / "output_record.schema.json").read_text()
    return json.loads(text)


def load_golden():
    return json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def test_reference_value_examples(capsys):
    code, out, _ = run_cli(["inv", "10", "--d", "1,2,3,4,5,6,7,8,9", "--k", "12"], capsys)
    assert code == 0 and out.splitlines()[1] == "47043"
    code, out, _ = run_cli(["psi", "6", "6"], capsys)
    assert code == 0 and out.splitlines()[1] == "0"
    code, out, _ = run_cli(["flags", "3", "--d", "1,2", "--p", "2", "--count-only"], capsys)
    assert code == 0 and out.splitlines()[1] == "21"


def test_inv_routes_agree(capsys):
    values = []
    for method in ("table", "denumerant", "binomial"):
        code, out, _ = run_cli(
            ["inv", "6", "--d", "1,2,3,4,5", "--k", "7", "--method", method], capsys
        )
        assert code == 0
        values.append(out.splitlines()[1])
    assert len(set(values)) == 1


@pytest.mark.parametrize("method", ["table", "denumerant", "binomial"])
def test_inv_rejects_negative_k_on_every_route(method, capsys):
    code, out, err = run_cli(["inv", "4", "--d", "1,2,3", "--k", "-1", "--method", method], capsys)
    assert (code, out) == (1, "")
    assert "inversion count must be nonnegative" in err


def test_inv_binomial_route_requires_full_cuts(capsys):
    code, _, err = run_cli(["inv", "6", "--d", "2", "--k", "3", "--method", "binomial"], capsys)
    assert code == 1
    assert "binomial route" in err


def test_csv_distribution_format(capsys):
    code, out, _ = run_cli(["invdist", "7", "--d", "2,4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "k,count"
    assert lines[1] == "0,1"
    assert lines[5] == "4,13"
    assert "\r" not in out
    assert out.endswith("\n")


def test_csv_qbinom(capsys):
    code, out, _ = run_cli(["qbinom", "4", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out == "k,count\n0,1\n1,1\n2,2\n3,1\n4,1\n"


def test_qbinom_eval(capsys):
    code, out, _ = run_cli(["qbinom", "4", "2", "--eval", "2"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "35"


def test_json_schema_and_big_integer_round_trip(capsys):
    schema = load_schema()
    code, out, _ = run_cli(["qbinom", "40", "20", "--eval", "10", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, schema)
    value = int(record["payload"]["rows"][0][0])
    from qcomb import q_binomial

    assert value == q_binomial(40, 20).eval_at(10)  # hundreds of digits, exact


def test_output_record_writes_every_value_as_a_string():
    record = cli.OutputRecord("bounds", {"n": 5, "d": (1, 2), "k": -6}, ("bound", "value"),
                              [("lower", Fraction(-203, 2)), ("upper", 10**30)])
    assert record.parameters == {"n": "5", "d": ["1", "2"], "k": "-6"}
    assert record.rows == (("lower", "-203/2"), ("upper", str(10**30)))


def test_json_all_strings(capsys):
    schema = load_schema()
    for argv in [case["argv"] for case in load_golden()] + [
        ["invdist", "5", "--d", "2"],
        ["flags", "3", "--d", "1", "--p", "3", "--cells"],
        ["flags", "2", "--d", "1", "--p", "3"],
        ["verify", "--suite", "qanalogue", "--max-n", "4"],
    ]:
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0, argv
        record = json.loads(out)
        jsonschema.validate(record, schema)
        for row in record["payload"]["rows"]:
            assert all(isinstance(cell, str) for cell in row)


def test_bounds_values(capsys):
    code, out, _ = run_cli(["bounds", "5", "--d", "1,2", "--k", "6", "--format", "csv"], capsys)
    assert code == 0
    assert out == "bound,value\nlower,-203/2\nupper,104\n"


def test_tau_output(capsys):
    code, out, _ = run_cli(["tau", "4", "2", "3", "--format", "csv"], capsys)
    assert code == 0
    assert "tau1,1 3" in out
    assert "dimension,3" in out


def test_denumerant_command(capsys):
    code, out, _ = run_cli(["denumerant", "4", "--w", "1,2"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "3"


def test_flags_cells_total(capsys):
    code, out, _ = run_cli(["flags", "3", "--d", "1,2", "--p", "2", "--cells", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,dimension,flags"
    assert lines[-1] == "total,,21"
    # six partitions of the full flag shape on 3 letters
    assert len(lines) == 2 + 6


@pytest.mark.parametrize("n, p, message", [
    ("2", "4", "must be prime, got 4"),
    ("2", "1", "must be prime, got 1"),
    ("2", "-3", "must be prime, got -3"),
    ("2", str(10**30), "must be below 2^64"),
    ("20", "4", "must be prime, got 4"),  # rejected before the cap on 20! partitions
])
def test_flags_cells_requires_a_prime(n, p, message, capsys):
    code, out, err = run_cli(["flags", n, "--p", p, "--cells"], capsys)
    assert (code, out) == (1, "")
    assert message in err


def test_flags_listing_matches_count(capsys):
    code, out, _ = run_cli(["flags", "2", "--d", "1", "--p", "3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "flag"
    assert len(lines) - 1 == 4


def test_final_cut_equal_to_n_is_dropped_with_notice(capsys):
    code, out, err = run_cli(["invdist", "3", "--d", "1,3"], capsys)
    assert code == 0
    assert "dropping final cut 3" in err
    assert out.splitlines()[1:] == ["0  1", "1  1", "2  1"]


def test_validation_error_exit_code(capsys):
    for argv in (
        ["invdist", "3", "--d", "2,1"],
        ["verify", "--max-n", "-1"],
        ["psi", "6", "6", "--cap", "-5"],
        ["psi", "6", "6", "--cap", "0"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert "error" in err


def test_resource_error_exit_code(capsys):
    code, _, err = run_cli(["flags", "4", "--d", "1,2,3", "--p", "3", "--cap", "100"], capsys)
    assert code == 2
    assert "resource limit" in err


def test_verify_over_the_cap_exits_2_with_empty_stdout(capsys):
    code, out, err = run_cli(["verify", "--max-n", "2", "--cap", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("qcomb: resource limit: bounded-multiset-sums: ")
    assert "above the cap of 1" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["inv", "5"])  # --k is required
    assert info.value.code == 1
    assert "--k" in capsys.readouterr().err


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "denumerant", "--max-n", "4"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_run_suite_all_passes_and_rejects_unknown():
    # every row of `--suite all` is pinned in test_verification.py
    from qcomb.verification import run_suite

    with pytest.raises(ValidationError):
        run_suite("nonsense")
    for max_n in (0, -1):
        with pytest.raises(ValidationError):
            run_suite("all", max_n=max_n)


def test_readme_examples_match_golden_output(capsys):
    golden = load_golden()
    assert len(golden) == 13
    for case in golden:
        code, out, _ = run_cli(case["argv"], capsys)
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_suite(suite, max_n, cap):
        return [CheckResult(suite, "rigged", False, "induced for the exit-code test", 1, 0.0)]

    monkeypatch.setattr("qcomb.verification.run_suite", fake_suite)
    code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
    assert code == 3
    assert "FAIL" in out


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(["invdist", "6", "--d", "2,4", "--format", "json"], capsys)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(["qbinom", "3", "1", "--format", "csv", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "k,count\n0,1\n1,1\n2,1\n"


@pytest.mark.parametrize("target", ["missing/row.csv", "."])
def test_out_to_an_unwritable_path_is_an_error(target, tmp_path, capsys):
    path = tmp_path / target
    code, out, err = run_cli(["qbinom", "4", "2", "--out", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"qcomb: error: cannot write {path}: ")


def test_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("QCOMB_CAP", "5")
    code, _, err = run_cli(["flags", "3", "--d", "1", "--p", "2"], capsys)
    assert code == 2
    assert "cap of 5" in err
    # explicit --cap wins over the environment
    monkeypatch.setenv("QCOMB_CAP", "5")
    code, out, _ = run_cli(["flags", "3", "--d", "1", "--p", "2", "--cap", "100"], capsys)
    assert code == 0
    # a value that is not a positive integer is ignored with a warning
    for value in ("many", "0", "-5"):
        monkeypatch.setenv("QCOMB_CAP", value)
        code, out, err = run_cli(["flags", "3", "--d", "1", "--p", "2"], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 7  # the 7 points of P^2(F_2)
        assert f"ignoring QCOMB_CAP={value!r}" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcomb.cli", "psi", "6", "7", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "value\n2\n"


# Runs batches of CLI calls in one bare interpreter (no site packages, no
# bytecode written) and prints, after each batch, which of the watched
# modules are loaded.
_IMPORT_PROBE = """
import io, sys
from qcomb import cli
for batch in {batches!r}:
    for argv in batch:
        sys.stdout, real = io.StringIO(), sys.stdout
        try:
            cli.run(argv)
        finally:
            sys.stdout = real
    print(sorted(m for m in {watched!r} if m in sys.modules))
"""


def test_cli_imports_only_what_the_subcommand_runs():
    examples = [case["argv"] for case in load_golden()]
    exp_log = [a for a in examples if "exp-log" in a]
    bounds = [a for a in examples if a[0] == "bounds"]
    assert len(exp_log) == len(bounds) == 1
    batches = [
        [a for a in examples if a not in exp_log + bounds],
        exp_log,  # an integer route: no fractions
        bounds,
        [["qbinom", "4", "2", "--format", "json"]],
        [["verify", "--suite", "qanalogue", "--max-n", "2"]],
    ]
    watched = ("dataclasses", "inspect", "fractions", "json", "qcomb.verification")
    script = _IMPORT_PROBE.format(batches=batches, watched=watched)
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "[]",
        "['fractions']",
        "['fractions', 'json']",
        "['fractions', 'json', 'qcomb.verification']",
    ]


def _gaussian_binomial_at(n, e, q):
    # the q-factorial quotient [n]! / ([e]! [n-e]!), with [m]! taken as
    # prod_{i<=m} (q^i - 1): the (q - 1)^n cancels.  qbinom --eval uses the
    # cancelled product instead
    def factorial(m):
        return math.prod(q**i - 1 for i in range(1, m + 1))

    value, rest = divmod(factorial(n), factorial(e) * factorial(n - e))
    assert rest == 0
    return value


def _single_block_lower_bound(n, k):
    # For i <= n, psi_n(i) is Euler's pentagonal coefficient: (-1)^s at
    # i = s(3s - 1)/2 and at i = s(3s + 1)/2, else 0.  Positive coefficients
    # take the plain binomials, negative ones the binomials stretched by
    # eta = n(n-1)/2, all over n!
    assert k <= n
    pentagonal = [0] * (k + 1)
    for s in range(k + 1):
        for i in (s * (3 * s - 1) // 2, s * (3 * s + 1) // 2):
            if i <= k:
                pentagonal[i] = (-1) ** s
    eta = n * (n - 1) // 2
    total = sum(
        c * math.comb(n - 1 + (eta if c < 0 else 0) + k - i, n - 1)
        for i, c in enumerate(pentagonal)
        if c
    )
    return Fraction(total, math.factorial(n))


@pytest.mark.parametrize(
    "argv, code, first_row",
    [
        (["qbinom", "1500", "1"], 0, "0     1"),
        (["inv", "300", "--k", "5", "--method", "denumerant"], 0, "0"),
        (["psi", "5000", "3"], 0, "0"),
        # psi_n(top - r) = (-1)^n psi_n(r) with top = 2001000: read at r = 5
        pytest.param(
            ["psi", "2000", "2000995"],
            0,
            str(psi(2000, 5, "pentagonal")),
            id="psi-r-near-the-top",
        ),
        pytest.param(
            ["qbinom", "200", "100", "--eval", "10"],
            0,
            str(_gaussian_binomial_at(200, 100, 10)),
            id="qbinom-value-over-4300-digits",
        ),
        # by the product; Horner on the expanded row took 23 s on a 2-vCPU host
        pytest.param(
            ["qbinom", "800", "400", "--eval", "2"],
            0,
            str(_gaussian_binomial_at(800, 400, 2)),
            id="qbinom-800-400-eval-2",
        ),
        pytest.param(
            ["bounds", "2000", "--k", "5"],
            0,
            f"lower  {_single_block_lower_bound(2000, 5)}",
            id="bounds-divisor-over-4300-digits",
        ),
        # two blocks of 300: words with 5 inversions are counted by p(5) = 7
        pytest.param(["inv", "600", "--d", "300", "--k", "5"], 0, "7", id="inv-table-truncated"),
        pytest.param(
            ["inv", "5", "--k", "1000000", "--method", "denumerant"],
            0,
            "0",
            id="inv-denumerant-k-above-nu",
        ),
        # 10^18 + 3 is prime; a one-block shape has exactly one flag
        pytest.param(
            ["flags", "2", "--p", "1000000000000000003", "--count-only"],
            0,
            "1",
            id="flags-18-digit-prime",
        ),
        # one block is one flag; its group orders would have about 9 * 10^6 bits
        pytest.param(["flags", "3000", "--p", "2", "--count-only"], 0, "1", id="flags-one-block"),
        # k = 3 < e2: the first block is the value n - e1 + 1 - k and the top e1 - 1 values
        pytest.param(
            ["tau", "40000", "20000", "3"],
            0,
            "tau1       " + " ".join(map(str, [19998, *range(20002, 40001)])),
            id="tau-two-blocks-of-20000",
        ),
        pytest.param(
            ["psi", "200", "2000", "--method", "exp-log"],
            0,
            str(psi(200, 2000, "fn-coefficients")),
            id="psi-exp-log-r-2000",
        ),
        pytest.param(
            ["bounds", "3000", "--k", "3000"],
            0,
            f"lower  {_single_block_lower_bound(3000, 3000)}",
            id="bounds-k-3000",
        ),
        # nu = 40000 and 10^6: at least 2^nu flags, refused before any expansion
        pytest.param(["flags", "400", "--d", "200", "--p", "2", "--count-only"], 2, None,
                     id="flags-nu-40000"),
        pytest.param(["flags", "2000", "--d", "1000", "--p", "2", "--count-only"], 2, None,
                     id="flags-nu-1000000"),
    ],
)
def test_large_arguments_end_quickly(argv, code, first_row):
    proc = subprocess.run(
        [sys.executable, "-m", "qcomb.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2:  # over the cap: nothing on stdout, one line on stderr
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    else:
        assert proc.stdout.splitlines()[1] == first_row
