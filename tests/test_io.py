"""CSV files written by feecalib reload bit for bit, a rewritten file
ends byte-equal to a fresh write, the CSV reader and writer match the
row-at-a-time versions they replaced, and config numbers are checked
strictly."""

import json
import math
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from feecalib import io as fio
from feecalib import (ConfigError, Scenario, calibrate_multi_stage,
                      default_scenario, default_truth, find_preset,
                      make_trajectory, preset_catalog, simulate_cycle,
                      surface_after_cycle)
from feecalib.cli import main

# besides what st.floats draws anyway: signed zero, subnormals and the
# ends of the double range
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
         1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))


@st.composite
def cycles(draw, forces=2):
    """A finite trajectory with nondecreasing t, plus force series."""
    n = draw(st.integers(0, 6))
    column = st.lists(FINITE, min_size=n, max_size=n)
    t = sorted(draw(column))
    return (make_trajectory(t, draw(column), draw(column), draw(column)),
            [np.array(draw(column)) for _ in range(forces)])


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(cycle=cycles())
@settings(max_examples=50, deadline=None)
def test_cycle_csv_reloads_bit_exactly(folder, cycle):
    trajectory, (f_t, f_n) = cycle
    path = folder / "cycle.csv"
    fio.write_cycle_csv(path, trajectory, f_t, f_n)
    loaded, got_t, got_n = fio.read_cycle_csv(path)
    for field in ("t", "x", "z", "rho"):
        assert np.array_equal(bits(loaded[field]), bits(trajectory[field]))
    assert np.array_equal(bits(got_t), bits(f_t))
    assert np.array_equal(bits(got_n), bits(f_n))


@given(cycle=cycles(forces=4))
@settings(max_examples=50, deadline=None)
def test_prediction_csv_reloads_bit_exactly(folder, cycle):
    trajectory, (depth, beta, f_t, f_n) = cycle
    path = folder / "predicted.csv"
    fio.write_prediction_csv(path, trajectory, depth, beta, f_t, f_n)
    loaded = fio.read_prediction_csv(path)
    expected = {"t_s": trajectory.t, "x_m": trajectory.x,
                "z_m": trajectory.z, "rho_rad": trajectory.rho,
                "d_m": depth, "beta_rad": beta, "ft_N": f_t, "fn_N": f_n,
                "fr_N": [math.hypot(a, b) for a, b in zip(f_t, f_n)]}
    assert set(loaded) == set(expected)
    for column, values in expected.items():
        assert np.array_equal(bits(loaded[column]), bits(values)), column


def test_integral_float_config_values_are_ints():
    options = fio.calibration_options_from_json(
        {"solver": {"n_starts": 3.0, "seed": 7, "max_iterations": 2e2}})
    assert (options.solver.n_starts, options.solver.seed,
            options.solver.max_iterations) == (3, 7, 200)
    assert all(type(v) is int for v in (options.solver.n_starts,
                                        options.solver.seed,
                                        options.solver.max_iterations))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-overflow"])
def test_non_finite_config_numbers_are_rejected(value):
    with pytest.raises(ConfigError, match="calibration.lambda_weight"):
        fio.calibration_options_from_json({"lambda_weight": value})


def completed_preset(name):
    """A preset made whole the way a config's ``soil.preset`` always has
    been: a class preset takes Heavy Clay WES 40's sinkage fields, a
    sinkage preset the lean clay's other fields."""
    preset = find_preset(name)
    if preset.kc is None:
        return preset.merged(find_preset("Heavy Clay WES 40")
                             ).soil_parameters()
    return find_preset("Clay of low plasticity, lean clay").merged(
        preset).soil_parameters()


@pytest.mark.parametrize("name", [p.name for p in preset_catalog()])
def test_config_preset_truth_is_the_completed_preset(name):
    want = completed_preset(name)
    assert fio.run_config_from_json({"soil": {"preset": name}}).truth == want
    assert fio.run_config_from_json({}, preset=name).truth == want


def test_default_truth_is_the_completed_lean_clay():
    assert default_truth() == completed_preset(
        "Clay of low plasticity, lean clay")
    assert fio.run_config_from_json({}).truth == default_truth()


def test_soil_without_a_friction_angle_is_refused():
    doc = fio.soil_to_json(default_truth())
    del doc["phi_rad"]
    with pytest.raises(ConfigError, match=r"^missing 'phi_rad' \(or "
                                          r"'phi_deg'\) in soil$"):
        fio.soil_from_json(doc)


def scenario_with_alpha_twice():
    """The default scenario's JSON with its surface at alpha_deg 25, then
    again at alpha_deg 40."""
    doc = fio.scenario_to_json(default_scenario())
    del doc["surface"]["alpha_rad"]
    doc["surface"]["alpha_deg"] = 25
    return json.dumps(doc).replace('"alpha_deg": 25',
                                   '"alpha_deg": 25, "alpha_deg": 40')


@pytest.mark.parametrize("read, text, key", [
    (fio.load_config, '{"noise": {"relative_sigma": 0.05, "seed": 1, '
                      '"seed": 2}}', "seed"),
    (fio.read_scenario_json, scenario_with_alpha_twice(), "alpha_deg"),
    (fio.read_report_theta, '{"schema_version": 3, "schema_version": 3, '
                            '"theta_star": {}}', "schema_version")],
    ids=["config", "scenario", "report"])
def test_json_key_named_twice_is_refused(tmp_path, read, text, key):
    """An object that names a key twice is refused, not read at its last
    value."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read(path)
    assert str(err.value) == f"{path}: key '{key}' appears more than once"


def test_explicit_scenario_reloads_bit_exactly(tmp_path):
    samples = make_trajectory([0.0, 0.1, 1 / 3], [0.3, 1e-17, 2 / 3],
                              [-0.0, -0.05, -1 / 7], [0.5, math.pi / 5, 1.1])
    scenario = Scenario(surface=default_scenario().surface,
                        loader=default_scenario().loader, samples=samples)
    path = tmp_path / "scenario.json"
    fio.write_scenario_json(path, scenario, default_truth(), 0.05, 1)
    again = fio.read_scenario_json(path).samples
    for name in ("t", "x", "z", "rho"):
        assert np.array_equal(bits(again[name]), bits(samples[name]))


# ---------------------------------------------------------------------------
# Rewriting in place: every writer leaves what a fresh write leaves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def writers():
    """Each public writer, bound to the default cycle's data, as a
    function of the path it writes."""
    scenario, truth = default_scenario(), default_truth()
    cycle = simulate_cycle(scenario, truth)
    s = cycle.samples
    report = calibrate_multi_stage(cycle)
    pairs = [(1.5, 0.25), (2.5, 0.5), (3.5, 0.75)]
    return {
        "write_cycle_csv": lambda path: fio.write_cycle_csv(
            path, s, cycle.f_t_obs, cycle.f_n_obs),
        "write_prediction_csv": lambda path: fio.write_prediction_csv(
            path, s, s.x, s.rho, cycle.f_t_obs, cycle.f_n_obs),
        "write_scenario_json": lambda path: fio.write_scenario_json(
            path, scenario, truth, 0.05, 1),
        "write_report_json": lambda path: fio.write_report_json(path,
                                                                report),
        "write_metrics_json": lambda path: fio.write_metrics_json(
            path, s.size, *pairs),
    }


WRITERS = ["write_cycle_csv", "write_prediction_csv", "write_scenario_json",
           "write_report_json", "write_metrics_json"]


def fresh_bytes(write, folder):
    path = folder / "fresh"
    write(path)
    return path.read_bytes()


@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("old_size", [lambda n: 2 * n + 7, lambda n: n // 2,
                                      lambda n: n],
                         ids=["longer", "shorter", "same-size"])
def test_rewrite_equals_a_fresh_write(tmp_path, writers, name, old_size):
    fresh = fresh_bytes(writers[name], tmp_path)
    path = tmp_path / "out"
    path.write_bytes(b"Z" * old_size(len(fresh)))
    writers[name](path)
    assert path.read_bytes() == fresh


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_writes_through_a_symlink(tmp_path, writers, name):
    fresh = fresh_bytes(writers[name], tmp_path)
    target = tmp_path / "target"
    target.write_bytes(b"Z" * (2 * len(fresh)))
    link, hard = tmp_path / "link", tmp_path / "hard"
    link.symlink_to(target)
    os.link(target, hard)
    writers[name](link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh
    assert hard.read_bytes() == fresh     # still the same file


@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_file_mode_follows_the_umask(tmp_path, writers, name, umask):
    path = tmp_path / "new"
    before = os.umask(umask)
    try:
        writers[name](path)
    finally:
        os.umask(before)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("bad", [math.nan, object()], ids=["nan", "object"])
def test_failed_dump_leaves_what_it_leaves_in_a_fresh_path(tmp_path, bad):
    """A document that raises mid-encode: the file is cut after what the
    encoder wrote, so no byte of the longer document before it is left."""
    doc = {"first": list(range(100)), "bad": bad, "after": [1.0] * 100}
    fresh, path = tmp_path / "fresh.json", tmp_path / "old.json"
    with pytest.raises((ValueError, TypeError)) as fresh_err:
        fio._dump_json(fresh, doc)
    path.write_bytes(b"Z" * 10_000)
    with pytest.raises(fresh_err.type):
        fio._dump_json(path, doc)
    assert path.read_bytes() == fresh.read_bytes()
    assert b"Z" not in path.read_bytes()
    assert fresh.read_bytes().startswith(b'{\n  "first": [')


@pytest.mark.parametrize("name", WRITERS)
def test_unwritable_path_raises_config_error(tmp_path, writers, name):
    path = tmp_path / "a directory"
    path.mkdir()
    with pytest.raises(ConfigError, match=r"^cannot write .*a directory: "
                                          r"\[Errno 21\] Is a directory"):
        writers[name](path)


# ---------------------------------------------------------------------------
# The CSV primitives against the row-at-a-time versions they replaced
# ---------------------------------------------------------------------------

def read_table_reference(path, columns):
    """Reference: ``_read_table`` one row at a time, with fields split at
    "," (an empty line has no field)."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            texts = [line.rstrip("\r\n") for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    rows = [text.split(",") if text else [] for text in texts]
    while rows and not rows[-1]:
        rows.pop()
    header = rows[0] if rows else []
    for column in columns:
        if column not in header:
            raise ConfigError(f"{path}: missing column '{column}'")
    body = rows[1:]
    try:
        table = np.array(body, dtype=float).reshape(len(body), len(header))
    except ValueError:
        for line, row in enumerate(body, start=2):  # the first bad row
            try:
                np.array(row, dtype=float).reshape(len(header))
            except ValueError as exc:
                raise ConfigError(f"{path}:{line}: bad value ({exc})")
        raise
    return {c: table[:, header.index(c)] for c in columns}


def write_table_reference(path, header, columns):
    """Reference: ``_write_table`` as it was before the column-wise one."""
    rows = np.column_stack(columns).tolist()
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def outcome(reader, path, columns):
    """("ok", {column: int64 bits}) or ("error", ConfigError text)."""
    try:
        table = reader(path, columns)
    except ConfigError as exc:
        return "error", str(exc)
    return "ok", {c: bits(v).tolist() for c, v in table.items()}


HEADER = "t_s,x_m,z_m\n"
COLUMNS = ("t_s", "z_m")
PLAIN = "1.5,2,3\n-0.0,5e-324,1e16\n0.1,0.3333333333333333,-7\n"

# name: (file bytes, how it is read): "loadtxt" read with no row-by-row
# conversion (a file of no rows has no body to convert), "rows" converted
# row by row, "refused" refused before any row is read
CSV_CASES = {
    "lf": ((HEADER + PLAIN).encode(), "loadtxt"),
    "crlf": ((HEADER + PLAIN).replace("\n", "\r\n").encode(), "loadtxt"),
    "cr": ((HEADER + PLAIN).replace("\n", "\r").encode(), "loadtxt"),
    "no-final-newline": ((HEADER + PLAIN).rstrip("\n").encode(),
                         "loadtxt"),
    "spaces-around-numbers": ((HEADER + " 1 , 2,\t3\n4 ,5 , 6\n").encode(),
                              "loadtxt"),
    "nan-inf": ((HEADER + "nan,inf,-inf\nNaN,-nan,+Infinity\n").encode(),
                "loadtxt"),
    "one-row": ((HEADER + "1,2,3\n").encode(), "loadtxt"),
    "trailing-blank-lines": ((HEADER + PLAIN + "\n\n").encode(), "loadtxt"),
    "trailing-blank-crlf": ((HEADER + PLAIN + "\r\n").replace(
        "\n", "\r\n").encode(), "loadtxt"),
    "blank-line-in-middle": ((HEADER + "1,2,3\n\n4,5,6\n").encode(), "rows"),
    "whitespace-line-in-middle": ((HEADER + "1,2,3\n \n4,5,6\n").encode(),
                                  "rows"),
    "quoted-numbers": ((HEADER + '"1",2,"3"\n4,5,6\n').encode(), "rows"),
    "quoted-header": (('"t_s",x_m,"z_m"\n' + PLAIN).encode(), "refused"),
    "quoted-newline": ((HEADER + '1,"2\n",3\n').encode(), "rows"),
    "underscore-digits": ((HEADER + "1_0,2,3\n").encode(), "rows"),
    "non-ascii-digits": ((HEADER + "١٢,2,3\n").encode(), "rows"),
    "comment-line": ((HEADER + "# note\n1,2,3\n").encode(), "rows"),
    "short-row": ((HEADER + "1,2,3\n4,5\n6,7,8\n").encode(), "rows"),
    "long-row": ((HEADER + "1,2,3\n4,5,6,7\n").encode(), "rows"),
    "extra-column-every-row": ((HEADER + "1,2,3,4\n5,6,7,8\n").encode(),
                               "rows"),
    "trailing-comma": ((HEADER + "1,2,3,\n").encode(), "rows"),
    "bad-token": ((HEADER + "1,2,3\n4,abc,6\n").encode(), "rows"),
    "nul-byte": ((HEADER + "1,2\x00,3\n").encode(), "rows"),
    "overlong-field": ((HEADER + "1,2," + " " * 140_000 + "3\n").encode(),
                       "loadtxt"),
    "header-only": (HEADER.encode(), "loadtxt"),
    "header-only-no-newline": (HEADER.rstrip("\n").encode(), "loadtxt"),
    "header-and-blank-lines": ((HEADER + "\n\n").encode(), "loadtxt"),
    "empty-file": (b"", "refused"),
    "missing-column": (("t_s,x_m\n" + "1,2\n").encode(), "refused"),
    "not-utf8-body": (HEADER.encode() + b"1,2,\xff\n", "refused"),
    "not-utf8-header": (b"t_s,x_m,\xffz\n1,2,3\n", "refused"),
}


@pytest.fixture
def conversions(monkeypatch):
    """The arguments of every ``_convert_rows`` call: the reads the
    loadtxt pass did not finish."""
    calls = []
    convert = fio._convert_rows

    def record(*args):
        calls.append(args)
        return convert(*args)

    monkeypatch.setattr(fio, "_convert_rows", record)
    return calls


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_reader_matches_the_csv_reader(tmp_path, conversions, name):
    """Bit-identical columns for every file the reference accepts, the
    same ConfigError text (with path:line) for every file it rejects, no
    warning on a file without rows, and the row-by-row conversion run
    exactly on the files the loadtxt pass cannot read."""
    content, how = CSV_CASES[name]
    path = tmp_path / "table.csv"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(fio._read_table, path, COLUMNS)
    assert got == outcome(read_table_reference, path, COLUMNS)
    assert len(conversions) == (1 if how == "rows" else 0)
    if how != "rows":
        assert got[0] == ("ok" if how == "loadtxt" else "error")


# the error text after the path, or None for the value 3.0 in z_m
UNQUOTED = {
    "quoted-numbers":
        ":2: bad value (could not convert string to float: '\"1\"')",
    "quoted-header": ": missing column 't_s'",
    "quoted-newline":
        ":2: bad value (could not convert string to float: '\"2')",
    "overlong-field": None,
}


@pytest.mark.parametrize("name", sorted(UNQUOTED))
def test_quotes_are_plain_characters(tmp_path, name):
    """A quote opens no quoted field, and a field may be of any length."""
    path = tmp_path / "table.csv"
    path.write_bytes(CSV_CASES[name][0])
    if UNQUOTED[name] is None:
        assert fio._read_table(path, COLUMNS)["z_m"].tolist() == [3.0]
    else:
        with pytest.raises(ConfigError) as err:
            fio._read_table(path, COLUMNS)
        assert str(err.value) == f"{path}{UNQUOTED[name]}"


TOKENS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:.3e}".format),
    st.floats(allow_nan=False).map("{:.25g}".format),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(["", " ", "1_0", '"2"', "١", "abc", "nan", "-nan",
                     "inf", "-Infinity", " 7 ", "\t8", "1e999", "-0",
                     ".5", "5.", "0x10", "1,5", "#"]))


# rows of three fields and single line ends are drawn most often, so that
# many drawn files are plain and take the loadtxt pass
@given(rows=st.lists(st.one_of(st.lists(TOKENS, min_size=3, max_size=3),
                               st.lists(TOKENS, min_size=2, max_size=4)),
                     max_size=5),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"] * 3 + ["\n\n"]),
                     min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_reader_matches_the_csv_reader_on_drawn_files(folder, rows, ends):
    path = folder / "drawn.csv"
    lines = ["a,b,c"] + [",".join(row) for row in rows]
    path.write_text("".join(line + end for line, end in zip(lines, ends)),
                    encoding="utf-8", newline="")
    assert (outcome(fio._read_table, path, ("a", "c"))
            == outcome(read_table_reference, path, ("a", "c")))


def test_bad_row_after_a_multi_line_row_names_its_own_line(tmp_path):
    """A quote opens no quoted field, so a row written as if it spanned
    lines 2-3 is bad on line 2."""
    path = tmp_path / "cycle.csv"
    path.write_text(",".join(fio.CYCLE_COLUMNS) + '\n"2\n",0,0,0.5,0,0\n'
                    "abc,0,0,0.5,0,0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: "
                                          r"bad value \(.*'\"2'\)$"):
        fio.read_cycle_csv(path)


@pytest.mark.parametrize("row, message", [
    ("1,0,0,0.5,nan,0", "observed forces must be finite"),
    ("-1,0,0,0.5,0,0", "sample 1: sample times must be nondecreasing")])
def test_bad_cycle_after_a_multi_line_row_names_its_own_line(tmp_path, row,
                                                             message):
    """A row written as if it spanned lines 2-3 is bad on line 2, so the
    cycle check that fails on the row after it is never reached."""
    path = tmp_path / "cycle.csv"
    path.write_text(",".join(fio.CYCLE_COLUMNS) + '\n"0\n",0,0,0.5,0,0\n'
                    + row + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: "
                                          r"bad value \(.*'\"0'\)$") as err:
        fio.read_cycle_csv(path)
    assert message not in str(err.value)


def test_bad_cycle_of_one_line_rows_names_row_plus_two(tmp_path):
    path = tmp_path / "cycle.csv"
    path.write_text(",".join(fio.CYCLE_COLUMNS) + "\n0,0,0,0.5,0,0\n"
                    "1,0,0,0.5,0,0\n2,0,0,0.5,0,inf\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:4: "):
        fio.read_cycle_csv(path)


@pytest.mark.parametrize("read, columns, twice", [
    (fio.read_cycle_csv, fio.CYCLE_COLUMNS, "t_s"),
    (fio.read_prediction_csv, fio.PREDICTION_COLUMNS, "ft_N")],
    ids=["cycle", "prediction"])
def test_column_named_twice_is_refused(tmp_path, read, columns, twice):
    """A header that names a column twice is refused, not read from its
    first copy; here the second copy's values decrease."""
    path = tmp_path / "table.csv"
    rows = [",".join(["0.5"] * len(columns) + [value]) for value in "10"]
    path.write_text(",".join([*columns, twice]) + "\n" + "\n".join(rows)
                    + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read(path)
    assert str(err.value) == f"{path}: column '{twice}' appears more than once"


def test_writer_writes_shortest_round_trip_rows(tmp_path):
    values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05,
              0.1, 1 / 3]
    table = np.array(values).reshape(3, 3)
    path = tmp_path / "golden.csv"
    fio._write_table(path, ("a", "b", "c"), table.T)
    expected = ["a,b,c"] + [",".join(map(repr, row)) for row in
                            table.tolist()]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert path.read_text().splitlines()[1:] == [
        "-0.0,nan,inf", "-inf,5e-324,1e+16", "1e-05,0.1,0.3333333333333333"]


def test_writer_refuses_columns_of_different_lengths(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        fio._write_table(path, ("a", "b"), ([1.0, 2.0], [3.0]))
    assert not path.exists()


@pytest.fixture
def reference_writes(monkeypatch):
    """Every _write_table call also writes the reference writer's file;
    yields the (written, reference) path pairs."""
    pairs = []
    write = fio._write_table

    def both(path, header, columns):
        columns = list(columns)
        write(path, header, columns)
        reference = Path(f"{path}.reference")
        write_table_reference(reference, header, columns)
        pairs.append((Path(path), reference))

    monkeypatch.setattr(fio, "_write_table", both)
    return pairs


def test_cli_csv_files_match_the_reference_writer(tmp_path,
                                                  reference_writes):
    """simulate's cycle.csv and the predicted.csv of each pass of a
    four-pass carved chain at 60 Hz are byte-identical to the reference
    writer's files."""
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--out", str(tmp_path / "sim")])
    assert res.exit_code == 0, res.output
    base, truth = default_scenario(), default_truth()
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"theta_star": fio.soil_to_json(truth)}))
    face = before = base.surface    # the face before pass k and k - 1
    cycle = None
    for k in range(4):
        if cycle is not None:
            before, face = face, surface_after_cycle(face, cycle.samples)
        points = tuple((x + 0.15 * k, z) for x, z in base.control_points)
        scenario = tmp_path / f"scenario_{k}.json"
        fio.write_scenario_json(scenario, Scenario(
            surface=before, loader=base.loader, control_points=points,
            sample_rate=60.0, duration=base.duration), truth, 0.0, 0)
        args = ["predict", str(report), "--scenario", str(scenario),
                "--out", str(tmp_path / f"pass_{k}")]
        if cycle is not None:
            args += ["--prior-cycle", str(tmp_path / f"cycle_{k - 1}.csv")]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        cycle = simulate_cycle(Scenario(
            surface=face, loader=base.loader, control_points=points,
            sample_rate=60.0, duration=base.duration), truth)
        fio.write_cycle_csv(tmp_path / f"cycle_{k}.csv", cycle.samples,
                            cycle.f_t_obs, cycle.f_n_obs)
    names = [written.name for written, _ in reference_writes]
    assert names == ["cycle.csv"] + [name for k in range(4) for name in
                                     ("predicted.csv", f"cycle_{k}.csv")]
    for written, reference in reference_writes:
        assert written.read_bytes() == reference.read_bytes(), written


def test_every_written_csv_takes_the_loadtxt_pass(tmp_path, monkeypatch,
                                                  conversions):
    """The CSV files of simulate, clean and at 5% noise, of a predict with
    a flagged sample and of a predict on a carved prior cycle, and
    _write_table's golden values, reload bit for bit with no row-by-row
    conversion."""
    written = []
    write = fio._write_table

    def record(path, header, columns):
        columns = [np.asarray(column, dtype=float) for column in columns]
        write(path, header, columns)
        written.append((path, header, columns))

    monkeypatch.setattr(fio, "_write_table", record)
    runner = CliRunner()
    for args in (["--out", str(tmp_path / "clean")],
                 ["--noise", "0.05", "--seed", "1", "--out",
                  str(tmp_path / "noisy")]):
        res = runner.invoke(main, ["simulate"] + args)
        assert res.exit_code == 0, res.output
    report = tmp_path / "report.json"
    report.write_text(json.dumps(
        {"theta_star": fio.soil_to_json(default_truth())}))
    flagged = tmp_path / "flagged.json"    # a blade angle of 4 rad
    flagged.write_text(json.dumps({
        "surface": {"type": "sloped_line", "alpha_deg": 25.0},
        "path": {"type": "explicit", "samples": [[0.0, 0.3, 0.0, 0.5],
                                                 [0.1, 0.6, -0.05, 4.0]]}}))
    for scenario, prior in ((flagged, None),
                            (tmp_path / "clean" / "scenario.json",
                             tmp_path / "clean" / "cycle.csv")):
        args = ["predict", str(report), "--scenario", str(scenario),
                "--out", str(tmp_path / scenario.stem)]
        if prior is not None:
            args += ["--prior-cycle", str(prior)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    values = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                       1e-05, 0.1, 1 / 3]).reshape(3, 3)
    fio._write_table(tmp_path / "golden.csv", ("a", "b", "c"), values.T)
    assert len(written) == 5
    prediction = next(dict(zip(header, columns))
                      for path, header, columns in written
                      if Path(path) == tmp_path / "flagged" / "predicted.csv")
    assert np.isnan(prediction["ft_N"]).any()
    for path, header, columns in written:
        table = fio._read_table(path, header)
        for name, column in zip(header, columns):
            assert bits(table[name]).tolist() == bits(column).tolist()
    assert conversions == []


# ---------------------------------------------------------------------------
# Fuzzed input: a reader raises ConfigError or nothing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_csvs(folder):
    """The text of a valid cycle CSV and prediction CSV of three samples,
    by reader."""
    trajectory = make_trajectory([0.0, 0.1, 0.2], [0.3, 0.4, 0.5],
                                 [0.0, -0.05, -0.1], [0.5, 0.6, 0.7])
    forces = np.array([1.5, 2.5, 3.5])
    fio.write_cycle_csv(folder / "valid_cycle.csv", trajectory, forces,
                        -forces)
    fio.write_prediction_csv(folder / "valid_predicted.csv", trajectory,
                             forces, forces, forces, -forces)
    return {fio.read_cycle_csv: (folder / "valid_cycle.csv").read_text(),
            fio.read_prediction_csv:
                (folder / "valid_predicted.csv").read_text()}


def _raises_only_config_error(read, path):
    try:
        read(path)
    except ConfigError:
        pass


CSV_READERS = [fio.read_cycle_csv, fio.read_prediction_csv]
GARBLE = st.text(alphabet=',"\n\r\t x.e+-019nainf\x00\xff#_', max_size=6)


@pytest.mark.parametrize("read", CSV_READERS, ids=["cycle", "prediction"])
@given(prefix=st.booleans(), noise=st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_csv_readers_on_random_bytes(folder, valid_csvs, read, prefix,
                                     noise):
    """Random bytes, alone or after the file's own header line."""
    header = valid_csvs[read].split("\n", 1)[0] + "\n"
    path = folder / "random.csv"
    path.write_bytes((header.encode() if prefix else b"") + noise)
    _raises_only_config_error(read, path)


@pytest.mark.parametrize("read", CSV_READERS, ids=["cycle", "prediction"])
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 8),
                                GARBLE), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_csv_readers_on_garbled_rows(folder, valid_csvs, read, edits):
    """A valid file with spans cut out and text put in: fields lost,
    split, quoted or made non-numeric, rows joined or broken."""
    text = valid_csvs[read]
    for where, cut, insert in edits:
        at = int(where * len(text))
        text = text[:at] + insert + text[at + cut:]
    path = folder / "garbled.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _raises_only_config_error(read, path)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400]), st.floats(),
    st.text(max_size=6),
    st.sampled_from(["sloped_line", "polyline", "quadratic_bezier",
                     "explicit", "clay", "Lean clay"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=10)


def _sections(doc, at=()):
    """The path to every value of a JSON document, the root included."""
    yield at
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _sections(value, at + (key,))


def _put(doc, at, value):
    """A copy of ``doc`` with ``value`` at the path ``at``."""
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    return doc


def _valid_documents():
    """(reader, valid document) pairs: scenarios with each surface and
    path type, configs with a truth and a preset, and a report."""
    scenario = fio.scenario_to_json(default_scenario())
    explicit = dict(scenario, surface={
        "type": "polyline", "vertices_m": [[0.0, 0.0], [1.0, 0.4]],
        "nominal_alpha_deg": 20.0}, path={
        "type": "explicit", "samples": [[0.0, 0.3, 0.0, 0.5],
                                        [0.1, 0.6, -0.05, 0.6]]})
    truth = fio.soil_to_json(default_truth())
    config = {"schema_version": 3, "scenario": scenario,
              "soil": {"truth": truth},
              "noise": {"relative_sigma": 0.05, "seed": 1},
              "calibration": {"lambda_weight": 0.5, "solver": {
                  "max_iterations": 10, "gradient_tolerance": 1e-5,
                  "n_starts": 1, "seed": 0}}}
    report = {"schema_version": 3, "method": "multi-stage",
              "theta_star": truth, "stages": []}
    sidecar = dict(scenario, soil=truth,
                   noise={"relative_sigma": 0.05, "seed": 1})
    return [(fio.read_scenario_json, scenario),
            (fio.read_scenario_json, explicit),
            (fio.read_scenario_json, sidecar),
            (fio.load_config, config),
            (fio.load_config, dict(config,
                                   soil={"preset": "Heavy Clay WES 40"})),
            (fio.read_report_theta, report)]


JSON_DOCUMENTS = _valid_documents()


@pytest.mark.parametrize("read, doc", JSON_DOCUMENTS,
                         ids=["scenario-bezier", "scenario-explicit",
                              "scenario-sidecar", "config-truth",
                              "config-preset", "report"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_json_readers_on_random_sections(folder, read, doc, data):
    """Any JSON value in place of any section or value of a valid
    document."""
    at = data.draw(st.sampled_from(list(_sections(doc))))
    path = folder / "drawn.json"
    path.write_text(json.dumps(_put(doc, at, data.draw(JSON_VALUES))))
    _raises_only_config_error(read, path)
