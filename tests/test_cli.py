"""End-to-end tests for the command-line interface."""

import json

import pytest

from hyperarr import cli, format_arrangement_text, from_vectors, hyperpolygonal, parse_arrangement_text
from hyperarr.report import packaged_certificate


def write_family(tmp_path, n):
    path = tmp_path / f"h{n}.arr"
    path.write_text(format_arrangement_text(hyperpolygonal(n)))
    return str(path)


def test_build_round_trips(capsys):
    assert cli.main(["build", "3"]) == 0
    out = capsys.readouterr().out
    assert parse_arrangement_text(out) == hyperpolygonal(3)


def test_report_text_and_json(capsys):
    assert cli.main(["report", "2"]) == 0
    out = capsys.readouterr().out
    assert "supersolvable" in out and "regions: 8" in out
    assert cli.main(["report", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "hyperarr/report-v1"
    assert data["properties"]["free"]["value"] is True
    assert data["regions"] == 8


def test_analyze_json(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["label"] == path
    assert data["properties"]["inductively_free"]["value"] is True
    assert data["properties"]["inductively_factored"]["value"] is False
    assert data["exponents"] == [1, 3, 3, 5]


@pytest.mark.parametrize(
    "text, chi",
    [
        # 20 s when the ambient identity basis was built
        ("dim 10000\n", [0] * 10000 + [1]),
        # t^2999 (t - 1); 2.3 s while the lattice worked in the ambient coordinates
        ("dim 3000\n1" + " 0" * 2999 + "\n", [0] * 2999 + [-1, 1]),
        # 2 s while the t^k factor of chi was stripped one copy per zero root
        ("dim 30000\n", [0] * 30000 + [1]),
    ],
    ids=["empty-10000", "one-hyperplane-3000", "empty-30000"],
)
def test_analyze_empty_arrangement_in_high_dimension(tmp_path, capsys, text, chi):
    import time

    path = tmp_path / "high.arr"
    path.write_text(text)
    start = time.perf_counter()
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1
    data = json.loads(capsys.readouterr().out)
    assert data["chi"] == chi
    assert data["hyperplanes"] == len(text.splitlines()) - 1 and data["undecided"] == []


def test_analyze_exit_codes_ignore_property_values(tmp_path, capsys):
    path = tmp_path / "generic.arr"
    path.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "free" in out


def test_analyze_exit_code_when_uniqueness_is_open(tmp_path, capsys, rigid7):
    path = tmp_path / "rigid.arr"
    path.write_text(format_arrangement_text(rigid7))
    assert cli.main(["analyze", str(path), "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["undecided"] == ["projectively_unique"]
    assert data["properties"]["projectively_unique"] == {
        "value": "undecided", "provenance": "no witness and no motion refutation"}


def test_chi_output(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["chi", path]) == 0
    out = capsys.readouterr().out
    assert "t^2 - 4t + 3" in out
    assert "[3, -4, 1]" in out


def test_lattice_json(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["lattice", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "hyperarr/lattice-v1"
    assert data["dim"] == 2
    assert len(data["flats"]) == 6


def test_lattice_rejects_json_flag(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice", path, "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_regions_with_simpliciality(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["regions", path, "--simplicial"]) == 0
    out = capsys.readouterr().out
    assert "regions: 8" in out
    assert "defect 0" in out


def test_regions_zeta_single_base(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["regions", path, "--zeta", "--base", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = json.loads(lines[-1])
    assert data == {"base_index": 0, "coefficients": [1, 2, 2, 2, 1]}


def test_regions_zeta_all_bases(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["regions", path, "--zeta", "--all-bases"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = json.loads(lines[-1])
    assert data["satisfying_bases"] == list(range(8))
    assert data["product_polynomial"] == [1, 2, 2, 2, 1]
    assert data["exponents"] == [1, 3]
    assert data["region_count"] == 8


def test_regions_zeta_without_integer_roots(tmp_path, capsys):
    path = tmp_path / "generic.arr"
    path.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    assert cli.main(["regions", str(path), "--zeta", "--all-bases"]) == 0
    out = capsys.readouterr().out
    assert "no product target" in out


def test_free_inductive(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    assert cli.main(["free", path, "--inductive"]) == 0
    out = capsys.readouterr().out
    assert "inductively free: True" in out
    assert "exponents: [1, 3, 3, 5]" in out


def test_free_inductive_out_of_stack_is_undecided(tmp_path, capsys):
    # 1,100 lines through the origin of the plane: the search recurses once
    # per deleted line and runs out of stack long before its node cap
    path = tmp_path / "pencil.arr"
    path.write_text("dim 2\n" + "".join(f"1 {k}\n" for k in range(1100)))
    assert cli.main(["free", str(path), "--inductive"]) == 3
    assert "inductively free: undecided" in capsys.readouterr().out


def test_free_certificate_replay(tmp_path, capsys):
    path = write_family(tmp_path, 5)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(packaged_certificate()))
    assert cli.main(["free", path, "--certificate", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "free: True (certificate replay" in out
    assert "exponents: [1, 5, 5, 5, 5]" in out


def test_free_inductive_with_certificate_exit_code(tmp_path, capsys):
    """A search and a replay do not fit together: neither is silently dropped."""
    path = write_family(tmp_path, 4)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(packaged_certificate()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["free", path, "--inductive", "--certificate", str(cert)])
    assert exc.value.code == 2
    assert "not allowed with argument --inductive" in capsys.readouterr().err


def test_free_rejected_certificate(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(packaged_certificate()))
    assert cli.main(["free", path, "--certificate", str(cert)]) == 0
    assert "certificate rejected" in capsys.readouterr().out


def test_free_undecided_exit_code(tmp_path, capsys):
    # H_5 under x_1 -> x_1 + x_0: the same lattice, so not inductively free,
    # and the packaged certificate no longer matches verbatim
    sheared = from_vectors(5, [(c[0], c[1] + c[0]) + c[2:] for c in hyperpolygonal(5).covectors])
    path = tmp_path / "h5_sheared.arr"
    path.write_text(format_arrangement_text(sheared))
    assert cli.main(["free", str(path)]) == 3
    assert "free: undecided [no decision route succeeded]" in capsys.readouterr().out
    assert cli.main(["free", write_family(tmp_path, 5)]) == 0
    out = capsys.readouterr().out
    assert "free: True [certificate replay]" in out
    assert "exponents: [1, 5, 5, 5, 5]" in out


def test_factor_nice_partition(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    assert cli.main(["factor", path]) == 0
    out = capsys.readouterr().out
    assert "nice partition exists: True" in out
    assert "[[0], [1, 3, 4], [2, 5, 6]]" in out


def test_factor_inductive_undecided_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 5)
    assert cli.main(["factor", path, "--inductive"]) == 3
    assert "inductively factored: undecided" in capsys.readouterr().out


def test_formal_outputs(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["formal", path]) == 0
    out = capsys.readouterr().out
    assert "relation space dimension: 2" in out
    assert "formal: True" in out


def test_formal_lc_basis(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    assert cli.main(["formal", path, "--lc-basis", "0,1,3"]) == 0
    out = capsys.readouterr().out
    assert "lc-basis [0, 1, 3]: True" in out
    assert "reaches 7 of 7" in out


def test_genclose_covering_seed(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    assert cli.main(["genclose", path, "--seed", "0,1,3,6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "hyperarr/genclose-v2" and "complete" not in data
    assert data["seed"] == [0, 1, 3, 6]
    assert data["rounds"] == [[4, 5], [2]]
    assert data["generated"] == list(range(7))
    assert data["covers"] is True


def test_genclose_non_covering_seed(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.main(["genclose", path, "--seed", "0,2,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["covers"] is False and "complete" not in data
    assert data["generated"] == [0, 2, 3]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text("dim two\n1 0\n")
    assert cli.main(["analyze", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err
    assert cli.main(["chi", str(tmp_path / "missing.arr")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_bad_index_list_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    assert cli.main(["genclose", path, "--seed", "0,x"]) == 2
    assert "parse error" in capsys.readouterr().err


def _assert_parse_exit(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_report_bad_order_exit_code(capsys):
    _assert_parse_exit(capsys, ["report", "0"])


def test_free_malformed_certificate_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    cert = tmp_path / "cert.json"
    cert.write_text("{not json")
    _assert_parse_exit(capsys, ["free", path, "--certificate", str(cert)])
    cert.write_text("[]")  # valid JSON, but not a certificate object
    _assert_parse_exit(capsys, ["free", path, "--certificate", str(cert)])


def _addition_chain(depth):
    """Certificate text on the coordinate axes of dim 2 whose claim nests
    depth addition nodes through extended above a cited leaf.  Written out
    by hand: json.dumps recurses as deeply as the decoder."""
    head = "".join(
        f'{{"type": "addition", "added_covector": [1, {k}], "extended": ' for k in range(1, depth + 1)
    )
    claim = head + '{"type": "cited-free"}' + "}" * depth
    return '{"schema": "hyperarr/free-cert-v3", "dim": 2, "covectors": [[1, 0], [0, 1]], "claim": ' + claim + "}"


def test_free_certificate_too_deep_to_decode_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    cert = tmp_path / "cert.json"
    cert.write_text("[" * 100_000)  # json.loads raises RecursionError on it
    _assert_parse_exit(capsys, ["free", path, "--certificate", str(cert)])


def test_free_certificate_too_deep_to_replay_is_rejected(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # a fresh process decodes 985 levels, and the replay, which needs a few
    # more frames at its deepest node, runs out of stack: a rejected
    # certificate, not a traceback
    path = tmp_path / "axes.arr"
    path.write_text("dim 2\n1 0\n0 1\n")
    chain = tmp_path / "chain.json"
    chain.write_text(_addition_chain(985))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hyperarr.cli", "free", str(path), "--certificate", str(chain)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("certificate rejected: the replay ran out of stack")
    assert "Traceback" not in proc.stderr


def test_free_missing_certificate_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    _assert_parse_exit(capsys, ["free", path, "--certificate", str(tmp_path / "missing.json")])


def test_genclose_seed_out_of_range_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    _assert_parse_exit(capsys, ["genclose", path, "--seed", "0,1,99"])


def test_build_bad_order_exit_code(capsys):
    _assert_parse_exit(capsys, ["build", "0"])
    _assert_parse_exit(capsys, ["build", "-1"])


def test_formal_lc_basis_out_of_range_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    _assert_parse_exit(capsys, ["formal", path, "--lc-basis", "0,1,99"])
    _assert_parse_exit(capsys, ["formal", path, "--lc-basis", "0,1,-1"])


def test_lc_basis_and_seed_indices_print_as_typed_and_fail_with_the_one_message(tmp_path, capsys):
    path = write_family(tmp_path, 3)
    assert cli.main(["formal", path, "--lc-basis", "3,1,0"]) == 0
    assert capsys.readouterr().out.startswith("lc-basis [3, 1, 0]: ")
    for argv in (["formal", path, "--lc-basis", "0,1,-1"], ["genclose", path, "--seed", "0,1,-1"]):
        assert cli.main(argv) == 2
        assert "hyperplane index -1 out of range 0..6" in capsys.readouterr().err


def test_regions_zeta_base_out_of_range_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    _assert_parse_exit(capsys, ["regions", path, "--zeta", "--base", "8"])


def test_regions_zeta_base_reads_no_chi_roots(tmp_path, capsys, monkeypatch):
    """Only --all-bases needs the exponents, so a single base builds no chi."""
    path = write_family(tmp_path, 4)
    calls = []
    real = cli.chi_integer_roots
    monkeypatch.setattr(cli, "chi_integer_roots", lambda arr: calls.append(arr) or real(arr))
    assert cli.main(["regions", path, "--zeta", "--base", "0"]) == 0
    assert capsys.readouterr().out == (
        'regions: 192\n{"base_index": 0, "coefficients": [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1]}\n'
    )
    assert calls == []
    assert cli.main(["regions", path, "--zeta", "--all-bases"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["exponents"] == [1, 3, 3, 5]
    assert len(calls) == 1


@pytest.mark.parametrize("base", [192, -1])
def test_regions_zeta_base_out_of_range_has_the_one_message(tmp_path, capsys, base):
    path = write_family(tmp_path, 4)
    assert cli.main(["regions", path, "--zeta", "--base", str(base)]) == 2
    assert capsys.readouterr().err == f"parse error: base region {base} out of range 0..191\n"


def test_regions_zeta_without_base_choice_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    _assert_parse_exit(capsys, ["regions", path, "--zeta"])


def test_regions_base_choice_without_zeta_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    _assert_parse_exit(capsys, ["regions", path, "--base", "0"])
    _assert_parse_exit(capsys, ["regions", path, "--all-bases"])


def test_regions_base_with_all_bases_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    _assert_parse_exit(capsys, ["regions", path, "--zeta", "--base", "0", "--all-bases"])


@pytest.mark.parametrize("text", ["dim 2\n1_0 1\n", "dim 2\n١ 1\n", "dim 1_0\n1 1\n", "dim ٢\n1 1\n"])
def test_only_ascii_decimal_integers_parse(tmp_path, capsys, text):
    """int() alone reads 1_0 as 10 and the Arabic-Indic digits as 1 and 2."""
    path = tmp_path / "odd.arr"
    path.write_text(text, encoding="utf-8")
    _assert_parse_exit(capsys, ["chi", str(path)])


def test_entry_past_the_int_string_limit_is_its_own_parse_error(tmp_path, capsys):
    import sys

    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.arr"
    path.write_text(f"dim 2\n{'7' * (limit + 100)} 1\n")
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and err.count("\n") == 1
    assert f"{limit + 100} digits" in err and f"limit of {limit} digits" in err
    assert "non-integer" not in err and len(err) < 200


def test_closed_stdout_ends_quietly_with_141(tmp_path):
    """The reader closes the pipe after one line of a large output."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = write_family(tmp_path, 5)  # the lattice JSON is about 80 KB
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperarr.cli", "lattice", path],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_main_reuses_one_parser_without_carry_over(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == path
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert not out.lstrip().startswith("{") and "free" in out
    assert cli.main(["regions", path, "--simplicial"]) == 0
    assert "simplicial" in capsys.readouterr().out
    assert cli.main(["regions", path]) == 0
    assert capsys.readouterr().out == "regions: 8\n"
    assert cli.main(["chi", path]) == 0
    assert "coefficients (ascending)" in capsys.readouterr().out
    parser = cli.build_parser()
    first = parser.parse_args(["free", path, "--inductive"])
    second = parser.parse_args(["free", path, "--certificate", "c.json"])
    plain = parser.parse_args(["free", path])
    assert (first.inductive, first.certificate) == (True, None)
    assert (second.inductive, second.certificate) == (False, "c.json")
    assert (plain.inductive, plain.certificate) == (False, None)
    third = parser.parse_args(["chi", path])
    assert third.func is cli.cmd_chi and not hasattr(third, "json")


def test_runtime_imports_only_the_standard_library(tmp_path, generic4):
    """A fresh process runs report(5) and analyze with no fractions, numpy,
    sympy or hypothesis module loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "generic4.arr"
    path.write_text(format_arrangement_text(generic4))
    script = (
        "import contextlib, io, sys\n"
        "import hyperarr\n"
        "from hyperarr import cli\n"
        "assert hyperarr.report(5).value('free') is True\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['analyze', {str(path)!r}, '--json']) == 0\n"
        "print(sorted({'fractions', 'numpy', 'sympy', 'hypothesis'} & set(sys.modules)))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- fuzzing: every case ends with a documented exit code ------------------------


def _fuzz_text(rng):
    """Random arrangement text: dims 1-5, 0-8 nonzero rows with entries in
    [-2, 2], and in about one file of eight a malformed line or header."""
    dim = rng.randint(1, 5)
    size, rows = rng.randint(0, 8), []
    while len(rows) < size:
        row = [rng.randint(-2, 2) for _ in range(dim)]
        if any(row):
            rows.append(" ".join(map(str, row)))
    header = f"dim {dim}"
    if rng.random() < 0.125:
        bad = rng.choice([
            " ".join(["1"] * (dim + 1)),  # one entry too many
            " ".join(["0"] * dim),  # zero covector
            "1.5" + " 0" * (dim - 1),
            "x" + " 1" * (dim - 1),
            "dim 2",
        ])
        rows.insert(rng.randint(0, len(rows)), bad)
    if rng.random() < 0.03:
        header = rng.choice(["", "dim", "dim 0", "dim -1", "dimension 2", "dim 2 3"])
    return "\n".join([header] + rows) + "\n"


def _fuzz_argv(rng, k, path, cert):
    """The k-th subcommand and flag combination, in turn, with random indices
    (some out of range) where it takes them."""
    picks = [str(rng.randint(0, 9)) for _ in range(rng.randint(0, 4))]
    if picks and rng.random() < 0.2:
        picks.append("-1")  # after a first index, so argparse reads it as a value
    idx = ",".join(picks)
    combos = [
        ["analyze", path],
        ["analyze", path, "--json"],
        ["chi", path],
        ["lattice", path],
        ["regions", path],
        ["regions", path, "--simplicial"],
        ["regions", path, "--zeta", "--base", str(rng.randint(0, 9))],
        ["regions", path, "--simplicial", "--zeta", "--all-bases"],
        ["regions", path, "--zeta"],
        ["regions", path, "--base", "0"],
        ["free", path],
        ["free", path, "--inductive"],
        ["free", path, "--certificate", cert],
        ["factor", path],
        ["factor", path, "--inductive"],
        ["formal", path],
        ["formal", path, "--lc-basis", idx],
        ["genclose", path, "--seed", idx],
        ["build", str(rng.randint(-1, 4))],
        ["report", str(rng.randint(-1, 4))],
    ]
    return combos[k % len(combos)]


def test_fuzzed_arrangement_files_end_with_a_documented_exit_code(tmp_path, capsys):
    import random
    import warnings

    rng = random.Random(2121)
    cert = tmp_path / "h5.json"
    cert.write_text(json.dumps(packaged_certificate()))
    path = tmp_path / "fuzz.arr"
    codes = {0: 0, 2: 0, 3: 0}
    for k in range(400):
        path.write_text(_fuzz_text(rng))
        argv = _fuzz_argv(rng, k, str(path), str(cert))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate hyperplanes are dropped with a warning
            code = cli.main(argv)
        assert code in codes, (argv, path.read_text())
        codes[code] += 1
        assert "Traceback" not in capsys.readouterr().err
    assert codes[0] >= 200 and codes[2] >= 20 and codes[3] >= 1


def _mutations(rng, cert, count):
    """Certificates made from cert by one random change each: a value
    replaced by junk, a key or list entry dropped, or the JSON text cut or
    given a stray character."""
    junk = [None, True, -1, 0, 2**70, 1.5, "x", [], {}, [1, 2], {"type": "cited-free"}]
    text = json.dumps(cert)
    for _ in range(count):
        if rng.random() < 0.25:
            at = rng.randrange(len(text))
            yield text[:at] + rng.choice(["", "}", "[", ",", "x"])
            continue
        mutated = json.loads(text)
        slots, stack = [], [mutated]
        while stack:
            value = stack.pop()
            keys = value.keys() if isinstance(value, dict) else range(len(value))
            for key in keys:
                slots.append((value, key))
                if isinstance(value[key], (dict, list)):
                    stack.append(value[key])
        parent, key = rng.choice(slots)
        if rng.random() < 0.3:
            del parent[key]
        else:
            parent[key] = rng.choice(junk)
        yield json.dumps(mutated)


def test_fuzzed_certificates_end_with_a_documented_exit_code(tmp_path, capsys):
    import random

    rng = random.Random(2122)
    h5 = write_family(tmp_path, 5)
    cert = tmp_path / "cert.json"
    texts = list(_mutations(rng, packaged_certificate(), 60))
    texts += ["[" * 100_000, _addition_chain(985)]
    codes = {0: 0, 2: 0}
    for text in texts:
        cert.write_text(text)
        code = cli.main(["free", h5, "--certificate", str(cert)])
        assert code in codes, text[:200]
        codes[code] += 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 0:
            assert out.startswith(("certificate rejected", "free: True"))
    assert codes[0] >= 30 and codes[2] >= 10
