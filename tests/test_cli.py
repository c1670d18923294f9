import argparse
import json
from types import SimpleNamespace

import numpy as np
import pytest

import discoh.cli
from discoh.cli import ALL_MEASURES, _measure_values, build_parser, main, parse_measures
from discoh.discord import OptimizerConfig, coherence_discord, coherence_discord_symmetric
from discoh.measures import correlated_coherence
from discoh.states import (
    DensityMatrix,
    ReferenceBasis,
    bell_phi_plus,
    classical_quantum,
    haar_unitary,
    load_state,
    matrix_to_json,
    random_state,
    save_state,
    state_to_json,
    swap_subsystems,
    werner,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_phi_plus(), path)
    return str(path)


@pytest.fixture
def cq_file(tmp_path):
    path = tmp_path / "cq.json"
    save_state(classical_quantum([0.5, 0.5], [np.diag([1.0, 0.0]), PLUS]), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_measures_aliases_and_order():
    assert parse_measures("ico,dac,discord") == ["I_co", "dac", "discord"]
    # canonical column order regardless of request order
    assert parse_measures("discord,ICO") == ["I_co", "discord"]
    with pytest.raises(ValueError, match="unknown measure"):
        parse_measures("ico,negativity")
    # empty tokens are skipped; a list of nothing but them is an error
    assert parse_measures("ico,,dac") == ["I_co", "dac"]
    with pytest.raises(ValueError, match="^no measures requested$"):
        parse_measures(",")


def test_compute_bell_fixed_points(capsys, bell_file):
    code, out, _ = run_cli(capsys, "compute", bell_file, "--measures", "ico,dac,discord")
    assert code == 0
    payload = json.loads(out)
    assert payload["measures"]["I_co"] == pytest.approx(1.0, abs=1e-9)
    assert payload["measures"]["dac"] == pytest.approx(1.0, abs=1e-9)
    assert payload["measures"]["discord"] == pytest.approx(1.0, abs=1e-6)
    assert payload["config"]["seed"] == 0
    assert payload["version"]


def test_compute_cq_dac_zero(capsys, cq_file):
    code, out, _ = run_cli(capsys, "compute", cq_file, "--measures", "dac")
    assert code == 0
    assert json.loads(out)["measures"]["dac"] == pytest.approx(0.0, abs=1e-10)


def test_compute_all_measures_csv(capsys, bell_file):
    code, out, _ = run_cli(capsys, "compute", bell_file, "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("S_ab,S_a,S_b,I,")
    assert header.split(",")[-3:] == ["dac", "dac_sym", "discord"]
    values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    assert values["I"] == pytest.approx(2.0)
    assert values["C_r_upper"] == pytest.approx(1.0)


def test_compute_rejects_invalid_state(capsys, tmp_path):
    path = tmp_path / "bad.json"
    obj = state_to_json(bell_phi_plus())
    obj["matrix"][0][0] = [0.48, 0.0]  # trace now 0.98
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "compute", str(path))
    assert code == 2
    assert "trace" in err and "tolerance" in err


def test_compute_tolerance_override(capsys, tmp_path):
    # trace 0.9995, still positive semidefinite
    path = tmp_path / "loose.json"
    mat = 0.9995 * bell_phi_plus().mat
    obj = {"dims": [2, 2], "matrix": [[[x.real, x.imag] for x in row] for row in mat]}
    path.write_text(json.dumps(obj))
    code, _, _ = run_cli(capsys, "compute", str(path), "--measures", "ico")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "compute", str(path), "--measures", "ico", "--tol-trace", "1e-3"
    )
    assert code == 0


def test_compute_rejects_a_psd_tolerance_above_the_entropy_floor(capsys, tmp_path):
    # every entropy rejects an eigenvalue below -1e-10, so a looser --tol-psd would load
    # a state that each measure then rejects; it fails at load, before any measure
    path = tmp_path / "negative.json"
    mat = np.diag([0.5 + 1e-7, 0.5, -1e-7, 0.0]).astype(complex)
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_to_json(mat)}))
    for measures in ("all", "discord"):
        code, out, err = run_cli(capsys, "compute", str(path), "--tol-psd", "1e-6",
                                 "--measures", measures)
        assert code == 2 and out == ""
        assert f"{path}: psd_tol must be <= 1e-10" in err and "got 1e-06" in err
    # a spectrum within the floor loads and measures at the defaults
    mat = np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]).astype(complex)
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_to_json(mat)}))
    code, out, _ = run_cli(capsys, "compute", str(path), "--measures", "dac,discord",
                           "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "dac,discord"


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-hermitian", "--tol-trace", "--tol-psd"])
def test_compute_rejects_bad_tolerances_at_parse_time(capsys, tmp_path, flag, value):
    # NaN or inf would switch a validation check off; the state file does not
    # exist, so an error that names it would show the flag was read too late
    with pytest.raises(SystemExit) as exc:
        main(["compute", str(tmp_path / "unread.json"), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "unread.json" not in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "theorem3", "--dims", "2by2"],
     "argument --dims: dims must look like 2x2, got '2by2'"),
    (["random", "--dims", "0x2"], "argument --dims: dims must be positive"),
    (["compute", "unread.json", "--tol-trace", "abc"],
     "argument --tol-trace: tolerance must be a number, got 'abc'"),
])
def test_parse_time_messages(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "unread.json" not in captured.err


@pytest.mark.parametrize("value", ["-1", "1.5", "seven"])
@pytest.mark.parametrize("command", ["compute", "sweep", "verify", "random"])
def test_seed_must_be_an_integer_of_at_least_zero_at_parse_time(capsys, tmp_path, command, value):
    # the state file does not exist, so an error that names it would show the flag was read late
    positional = {"compute": [str(tmp_path / "unread.json")], "sweep": ["werner"],
                  "verify": ["theorem1"], "random": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *positional, "--seed", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: seed must be an integer >= 0, got '{value}'" in captured.err
    assert "unread.json" not in captured.err


def test_search_reads_a_state_loaded_with_a_looser_hermiticity_tolerance(capsys, tmp_path):
    # rho_a inherits the Hermiticity error 1e-8; the search's S(rho_a) trusts it as it
    # trusts rho, rather than checking it again at the default 1e-10
    mat = random_state(2, 2, "ginibre-mixed", seed=3).mat.copy()
    mat[0, 2] += 1e-8
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix_to_json(mat)}))
    code, _, err = run_cli(capsys, "compute", str(path), "--measures", "discord,dac")
    assert code == 2 and "not Hermitian" in err
    code, out, _ = run_cli(capsys, "compute", str(path), "--measures", "discord,dac",
                           "--tol-hermitian", "1e-6")
    assert code == 0
    assert set(json.loads(out)["measures"]) == {"dac", "discord"}


def test_compute_missing_file(capsys):
    code, _, err = run_cli(capsys, "compute", "no-such-state.json")
    assert code == 2
    assert "error" in err


def test_compute_part_b_swaps(capsys, tmp_path):
    # a state that is classical on A but quantum on B: dac differs by part
    rho = classical_quantum([0.5, 0.5], [PLUS, np.array([[0.5, -0.5], [-0.5, 0.5]])])
    path = tmp_path / "qc.json"
    save_state(rho, path)
    code, out_a, _ = run_cli(capsys, "compute", str(path), "--measures", "dac")
    value_a = json.loads(out_a)["measures"]["dac"]
    code, out_b, _ = run_cli(capsys, "compute", str(path), "--measures", "dac", "--part", "b")
    value_b = json.loads(out_b)["measures"]["dac"]
    assert value_a == pytest.approx(0.0, abs=1e-10)
    assert value_b > 0.5


def test_compute_trace_flag(capsys, bell_file):
    code, out, _ = run_cli(
        capsys, "compute", bell_file, "--measures", "discord", "--trace", "--restarts", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trace"]["restarts"]) == 4
    assert payload["trace"]["best_value"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("extra, conflict", [(["--format", "csv"], "--format csv"),
                                             (["--measures", "ico"], "no discord is measured")])
def test_compute_trace_with_nothing_to_trace_is_an_input_error(capsys, bell_file, extra, conflict):
    code, out, err = run_cli(capsys, "compute", bell_file, "--trace", *extra)
    assert code == 2
    assert out == ""
    assert "--trace" in err and conflict in err


def test_compute_with_basis_file(capsys, tmp_path):
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rho = classical_quantum(
        [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        basis_a=__import__("discoh").ReferenceBasis(hadamard),
    )
    state_path = tmp_path / "rot.json"
    save_state(rho, state_path)
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(
        {"frame_a": [[[h.real, h.imag] for h in row] for row in hadamard.astype(complex)]}
    ))
    code, out, _ = run_cli(capsys, "compute", str(state_path), "--measures", "dac")
    assert json.loads(out)["measures"]["dac"] == pytest.approx(1.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, "compute", str(state_path), "--measures", "dac", "--basis", str(basis_path)
    )
    assert json.loads(out)["measures"]["dac"] == pytest.approx(0.0, abs=1e-9)
    # discord ignores the basis file: it minimizes over all bases anyway
    code, out, _ = run_cli(
        capsys, "compute", str(state_path), "--measures", "dac,discord",
        "--basis", str(basis_path), "--restarts", "8",
    )
    assert code == 0
    assert json.loads(out)["measures"]["discord"] == pytest.approx(0.0, abs=1e-6)


def hadamard_json():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return [[[h, 0.0] for h in row] for row in hadamard]


@pytest.mark.parametrize(
    "obj, named",
    [
        ({"dim": 2, "frame": hadamard_json()}, "'dim'"),
        ({"frame_a": hadamard_json(), "frame_c": hadamard_json()}, "'frame_c'"),
        ({}, "'frame_a' or 'frame_b'"),
        ([hadamard_json()], "must be an object"),
    ],
)
def test_compute_rejects_basis_file_without_known_frames(capsys, bell_file, tmp_path, obj, named):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "compute", bell_file, "--measures", "ico",
                             "--basis", str(basis_path))
    assert code == 2
    assert out == ""
    assert named in err and str(basis_path) in err


def test_compute_malformed_basis_json_names_the_file(capsys, bell_file, tmp_path):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text('{"frame_a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],}')
    code, out, err = run_cli(capsys, "compute", bell_file, "--basis", str(basis_path))
    assert code == 2
    assert out == ""
    assert f"malformed JSON in {basis_path}" in err


def identity_json(d):
    return [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]


@pytest.mark.parametrize(
    "obj, key",
    [
        # frames swapped for a 2x3 state: frame_a is 3x3, A has dimension 2
        ({"frame_a": identity_json(3), "frame_b": identity_json(2)}, "frame_a"),
        ({"frame_b": identity_json(2)}, "frame_b"),
        # a bad entry, and a matrix that is not unitary
        ({"frame_a": [[[1, 0], [0, 0]], [[0, 0], [1]]]}, "frame_a"),
        ({"frame_b": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                      [[0, 0], [0, 0], [2, 0]]]}, "frame_b"),
    ],
)
def test_compute_basis_errors_name_the_file_and_the_frame(capsys, tmp_path, obj, key):
    state_path = tmp_path / "s23.json"
    save_state(random_state(2, 3, "ginibre-mixed", seed=1), state_path)
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "compute", str(state_path), "--basis", str(basis_path))
    assert code == 2
    assert out == ""
    assert str(basis_path) in err and key in err


def test_compute_state_entry_error_names_the_file(capsys, tmp_path):
    state_path = tmp_path / "bad.json"
    state_path.write_text(json.dumps({"dims": [2, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], "x"]]}))
    code, out, err = run_cli(capsys, "compute", str(state_path))
    assert code == 2
    assert out == ""
    assert str(state_path) in err and "row 1, column 1" in err


@pytest.mark.parametrize("dims", [2, "2x1", [2]], ids=repr)
def test_compute_rejects_state_dims_that_are_no_pair(capsys, tmp_path, dims):
    state_path = tmp_path / "s.json"
    matrix = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    state_path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
    code, out, err = run_cli(capsys, "compute", str(state_path))
    assert code == 2
    assert out == ""
    assert str(state_path) in err and "dims must be a pair of positive integers" in err


@pytest.mark.parametrize(
    "bad, named",
    [("state entry", "row 0, column 0"), ("dims", "dims must be a pair of positive integers"),
     ("basis entry", "row 0, column 0")],
)
def test_compute_rejects_json_booleans(capsys, tmp_path, bad, named):
    # json loads true as a bool, which Python counts as the integer 1
    state = {"dims": [2, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    basis = {"frame_a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    if bad == "state entry":
        state["matrix"][0][0] = [True, 0]
    elif bad == "dims":
        state["dims"] = [True, 2]
    else:
        basis["frame_a"][0][0] = [True, 0]
    state_path, basis_path = tmp_path / "s.json", tmp_path / "c.json"
    state_path.write_text(json.dumps(state))
    basis_path.write_text(json.dumps(basis))
    code, out, err = run_cli(capsys, "compute", str(state_path), "--measures", "ico",
                             "--basis", str(basis_path))
    assert code == 2
    assert out == ""
    assert str(basis_path if bad == "basis entry" else state_path) in err and named in err


@pytest.mark.parametrize("bad", ["state", "basis"])
def test_compute_rejects_an_integer_beyond_double_range(capsys, tmp_path, bad):
    # float() of such an int raises OverflowError, which would end in a traceback
    big = int("1" + "0" * 400)
    state = {"dims": [2, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    basis = {"frame_a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    if bad == "state":
        state["matrix"][1][0] = [0, big]
    else:
        basis["frame_a"][0][1] = [-big, 0]
    state_path, basis_path = tmp_path / "s.json", tmp_path / "c.json"
    state_path.write_text(json.dumps(state))
    basis_path.write_text(json.dumps(basis))
    code, out, err = run_cli(capsys, "compute", str(state_path), "--basis", str(basis_path))
    assert code == 2
    assert out == ""
    where = (f"state JSON in {state_path}: matrix entry at row 1, column 0" if bad == "state"
             else f"basis JSON in {basis_path}, frame_a: matrix entry at row 0, column 1")
    assert f"error: {where} is not a finite [re, im] pair" in err


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4)])
@pytest.mark.parametrize("framed", [False, True])
def test_closed_form_measures_come_from_one_report(monkeypatch, dims, framed):
    # rho_a, and rho_b stacked with the conditional blocks, are decomposed once
    # each; the state's own spectrum was kept when it was built
    rho = random_state(*dims, "ginibre-mixed", seed=sum(dims))
    rng = np.random.default_rng(sum(dims))
    bases = [ReferenceBasis(haar_unitary(d, rng)) if framed else None for d in dims]
    shapes = []
    for name in ("eigvalsh", "eigh"):
        def counting(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    names = [n for n in ALL_MEASURES if n != "discord"]
    values, trace = _measure_values(rho, names, *bases, OptimizerConfig())
    assert sorted(values) == sorted(names) and trace is None
    assert len(shapes) == 2, shapes


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_compute_dac_fields_equal_the_library_calls(capsys, tmp_path, dims):
    rho = random_state(*dims, "ginibre-mixed", seed=10 + sum(dims))
    state_path = tmp_path / "s.json"
    save_state(rho, state_path)
    rng = np.random.default_rng(sum(dims))
    for part in ("a", "b"):
        measured = rho if part == "a" else swap_subsystems(rho)
        fa, fb = haar_unitary(measured.d_a, rng), haar_unitary(measured.d_b, rng)
        for frames in ({}, {"frame_a": fa}, {"frame_a": fa, "frame_b": fb}):
            argv = ["compute", str(state_path), "--measures", "dac,dac_sym", "--format", "csv",
                    "--part", part]
            if frames:
                basis_path = tmp_path / "basis.json"
                basis_path.write_text(json.dumps({k: matrix_to_json(f) for k, f in frames.items()}))
                argv += ["--basis", str(basis_path)]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            ba, bb = frames.get("frame_a"), frames.get("frame_b")
            want = [f"{coherence_discord(measured, ba):.12g}",
                    f"{coherence_discord_symmetric(measured, ba, bb):.12g}"]
            assert out.strip().splitlines()[1].split(",") == want


# dac printed differently at 12 digits on these states when the CLI took it as
# C_r_upper - C_r_a, a sum in another order than coherence_discord's
@pytest.mark.parametrize("dims, seed, framed", [
    ((2, 2), 22455, True), ((2, 3), 52371, False), ((3, 2), 49322, False),
    ((4, 2), 29814, False), ((3, 3), 24398, True),
])
def test_dac_column_is_the_library_value(dims, seed, framed):
    rho = random_state(*dims, "ginibre-mixed", seed=seed)
    rng = np.random.default_rng(seed)
    bases = [ReferenceBasis(haar_unitary(d, rng)) if framed else None for d in dims]
    names = [n for n in ALL_MEASURES if n != "discord"]
    values, _ = _measure_values(rho, names, *bases, OptimizerConfig())
    assert values["dac"] == coherence_discord(DensityMatrix(rho.mat, rho.dims), bases[0])


def test_dac_sym_column_is_the_library_value():
    # on this state the report's I_co, when one product summed every report field,
    # differed from correlated_coherence's own sum in the last bits
    rho = random_state(2, 3, "ginibre-mixed", seed=2)
    names = [n for n in ALL_MEASURES if n != "discord"]
    values, _ = _measure_values(rho, names, None, None, OptimizerConfig())
    want = correlated_coherence(DensityMatrix(rho.mat, rho.dims))
    assert values["I_co"] == values["dac_sym"] == want


def test_sweep_werner_endpoints_and_monotonicity(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "werner", "--steps", "11", "--measures", "discord,dac,ico",
        "--restarts", "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,I_co,dac,discord"
    assert len(lines) == 12
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    params = [r[0] for r in rows]
    discords = [r[3] for r in rows]
    assert params == sorted(params)
    assert abs(discords[0]) < 1e-4
    assert abs(discords[-1] - 1.0) < 1e-4
    for lo, hi in zip(discords, discords[1:]):
        assert hi >= lo - 1e-8  # monotone nondecreasing in p


def test_sweep_two_steps_are_endpoints(capsys):
    code, out, _ = run_cli(capsys, "sweep", "werner", "--steps", "2", "--measures", "ico")
    rows = out.strip().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0,")
    assert rows[2].startswith("1,")


def test_sweep_cq_angle_rises_from_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "cq-angle", "--steps", "5", "--measures", "dac")
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    dacs = [r[1] for r in rows]
    assert abs(dacs[0]) < 1e-10
    assert all(hi > lo - 1e-12 for lo, hi in zip(dacs, dacs[1:]))
    assert dacs[-1] > 0.1


def test_sweep_cq_angle_prints_no_negative_discord(capsys):
    # every state of the family is classical on A, so its discord is 0 up to roundoff
    code, out, _ = run_cli(capsys, "sweep", "cq-angle", "--steps", "9", "--measures", "discord")
    assert code == 0
    assert [line.split(",")[1] for line in out.split()[1:]] == ["0"] * 9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundoff_below_zero_prints_as_zero(capsys, monkeypatch, bell_file, fmt):
    # a nonnegative measure in [-1e-12, 0] prints as 0, never -0; below that,
    # and for l1_cc, which may be negative, the value prints as computed
    closed = {"I": -3e-16, "C_r_b": -2e-12, "l1_cc": -3e-16}
    report = SimpleNamespace(to_dict=lambda: closed, I_co=-0.0)  # dac_sym is the report's I_co
    monkeypatch.setattr(discoh.cli, "MeasureReport", SimpleNamespace(compute=lambda *args: report))
    monkeypatch.setattr(discoh.cli, "coherence_discord", lambda rho, basis_a: -1e-12)
    monkeypatch.setattr(discoh.cli, "discord", lambda rho, config: (-4.4e-15, None))
    code, out, _ = run_cli(capsys, "compute", bell_file, "--format", fmt,
                           "--measures", "I,C_r_b,l1_cc,dac,dac_sym,discord")
    assert code == 0
    want = {"I": 0.0, "C_r_b": -2e-12, "l1_cc": -3e-16, "dac": 0.0, "dac_sym": 0.0, "discord": 0.0}
    if fmt == "csv":
        assert out.split()[1] == "0,-2e-12,-3e-16,0,0,0"
    else:
        assert json.loads(out)["measures"] == want and "-0.0" not in out


def test_sweep_rejects_bad_steps(capsys):
    code, _, err = run_cli(capsys, "sweep", "werner", "--steps", "1")
    assert code == 2
    assert "steps" in err


def test_verify_suite_passes_and_reports(capsys):
    code, out, err = run_cli(
        capsys, "verify", "theorem1", "--trials", "100", "--dims", "2x2", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["trials"] == 100
    assert payload["seed"] == 7
    assert payload["max_violation"] <= 1e-9
    assert "trials" in err  # progress streamed to stderr


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "superadditivity", "--trials", "60", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "suite,trials,seed,tolerance,max_violation,failures,passed"
    assert row.startswith("superadditivity,60,")


@pytest.mark.parametrize(
    "suite,printed",
    [("theorem1", "0.0"), ("superadditivity", "-0.238685596513")],
)
def test_verify_max_violation_of_a_pass_is_a_negative_margin(capsys, suite, printed):
    # both suites' violations are at most 0 on a pass (-gap or mi_drop - gap, and
    # -I_co), so their maximum is the margin by which every trial passed, negated;
    # here both theorem1 level maps are the identity, the equality case gap = mi_drop
    code, out, _ = run_cli(capsys, "verify", suite, "--trials", "2")
    assert code == 0 and json.loads(out)["passed"] is True
    assert f'"max_violation": {printed},' in out


@pytest.mark.parametrize("argv,printed", [
    (("superadditivity", "--dims", "2x1", "--format", "csv"), ",0.0,0,True"),
    (("superadditivity", "--dims", "2x1"), '"max_violation": 0.0,'),
    (("theorem1", "--dims", "1x2"), '"max_violation": 0.0,'),
], ids=["superadditivity-2x1-csv", "superadditivity-2x1-json", "theorem1-1x2"])
def test_verify_reports_a_margin_of_exactly_0_as_0(capsys, argv, printed):
    # every trial's value is 0 or -0.0 there: I_co of a state with d_b = 1, and the
    # gap of the one level map at d_a = 1
    code, out, _ = run_cli(capsys, "verify", *argv, "--trials", "3")
    assert code == 0 and printed in out and "-0.0" not in out


@pytest.mark.parametrize(
    "suite,trials",
    [("theorem2", "3"), ("theorem3", "30"), ("invariance", "5"), ("zero-sets", "5")],
)
def test_verify_other_suites_wired(capsys, suite, trials):
    code, out, _ = run_cli(
        capsys, "verify", suite, "--trials", trials, "--restarts", "6", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == suite
    assert payload["passed"] is True


@pytest.mark.parametrize("suite", ["theorem2", "zero-sets"])
def test_verify_max_iter_reaches_the_search(capsys, monkeypatch, suite):
    import discoh.verify

    seen = []

    def spy(search):
        def recorded(rho, config=None):
            seen.append(config.max_iter)
            return search(rho, config)
        return recorded

    monkeypatch.setattr(discoh.verify, "discord", spy(discoh.verify.discord))
    _, out, _ = run_cli(
        capsys, "verify", suite, "--trials", "2", "--restarts", "2", "--max-iter", "1"
    )
    assert seen and set(seen) == {1}
    assert json.loads(out)["config"]["max_iter"] == 1


def test_verify_superadditivity_runs_an_explicit_dims_split(capsys):
    code, out, _ = run_cli(capsys, "verify", "superadditivity", "--trials", "10", "--dims", "4x4")
    payload = json.loads(out)
    assert code == 0
    assert payload["dims"] == [4, 4]
    assert payload["details"]["dims_list"] == [[4, 4]]
    code, out, _ = run_cli(capsys, "verify", "superadditivity", "--trials", "10")
    payload = json.loads(out)
    assert code == 0
    assert payload["dims"] == [2, 2]
    assert payload["details"]["dims_list"] == [[2, 2], [2, 3], [3, 3]]


@pytest.mark.parametrize("suite, trials, seed", [("zero-sets", 4, 3), ("theorem2", 3, 1)])
def test_verify_prints_details_to_twelve_digits(capsys, suite, trials, seed):
    # floats are rounded; ints (worst_seed replays the worst trial) and bools are not
    from discoh.verify import run_suite

    code, out, _ = run_cli(capsys, "verify", suite, "--trials", str(trials), "--seed", str(seed))
    assert code == 0
    want = run_suite(suite, trials=trials, seed=seed).details
    printed = json.loads(out)["details"]
    assert printed.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert printed[key] == float(f"{value:.12g}"), key
        else:
            assert printed[key] == value and type(printed[key]) is type(value), key
    assert any(printed[key] != value for key, value in want.items())  # some float was rounded


def test_verify_theorem2_reports_grid_deviation_only_when_measured(capsys):
    from discoh.verify import verify_theorem2

    code, out, _ = run_cli(capsys, "verify", "theorem2", "--trials", "2")
    assert code == 0
    assert "max_grid_dev" not in json.loads(out)["details"]
    assert "max_grid_dev" in verify_theorem2(trials=2, grid_checks=1).details


def test_each_command_takes_only_the_flags_it_reads():
    shared = {"--seed", "--out", "--restarts", "--max-iter"}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {flag for a in p._actions if a.dest != "help" for flag in a.option_strings}
        for name, p in commands.choices.items()
    }
    assert flags == {
        "compute": shared | {"--measures", "--basis", "--part", "--trace", "--format",
                             "--tol-hermitian", "--tol-trace", "--tol-psd"},
        "sweep": shared | {"--steps", "--measures"},
        "verify": shared | {"--trials", "--dims", "--format"},
        "random": {"--seed", "--out", "--dims", "--ensemble"},
    }


COMMANDS = {
    "sweep": ["sweep", "werner", "--steps", "2", "--measures", "ico"],
    "verify": ["verify", "theorem3", "--trials", "1"],
    "random": ["random"],
}


@pytest.mark.parametrize(
    "command, flag",
    [("sweep", "--format json"), ("random", "--format csv")]
    + [(command, f"--tol-{name} 1") for command in COMMANDS
       for name in ("hermitian", "trace", "psd")],
)
def test_commands_reject_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(COMMANDS[command] + flag.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_verify_unknown_suite_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "theorem3", "--trials", trials)
    assert code == 2
    assert out == ""
    assert "trials must be an integer >= 1" in err


def test_verify_suite_violation_exits_one(capsys, monkeypatch):
    from discoh.verify import SuiteResult

    def failing_suite(*args, **kwargs):
        return SuiteResult(
            suite="theorem1", trials=1, dims=(2, 2), seed=0, tolerance=1e-9,
            max_violation=0.5, failures=1, passed=False,
        )

    monkeypatch.setattr(discoh.cli, "run_suite", failing_suite)
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--trials", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_random_roundtrip_and_determinism(capsys, tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run_cli(
            capsys, "random", "--dims", "2x3", "--ensemble", "ginibre-mixed",
            "--seed", "42", "--out", str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    rho = load_state(f1)
    assert rho.dims == (2, 3)

    code, out, _ = run_cli(capsys, "compute", str(f1), "--measures", "s_ab")
    assert code == 0
    assert json.loads(out)["measures"]["S_ab"] > 0


@pytest.mark.parametrize("dims, ensemble", [("2x2", "ginibre-mixed"), ("3x2", "haar-pure")])
def test_random_prints_the_bytes_it_writes(capsys, tmp_path, dims, ensemble):
    path = tmp_path / "r.json"
    argv = ["random", "--dims", dims, "--ensemble", ensemble, "--seed", "9"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, printed_to_file, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed_to_file == ""
    assert out.encode() == path.read_bytes()
    assert out.endswith("}\n") and out.count("\n") == 1 and " " not in out


def test_random_haar_pure_recomputes_to_zero_entropy(capsys, tmp_path):
    f = tmp_path / "pure.json"
    run_cli(capsys, "random", "--dims", "2x2", "--ensemble", "haar-pure",
            "--seed", "3", "--out", str(f))
    code, out, _ = run_cli(capsys, "compute", str(f), "--measures", "s_ab")
    assert json.loads(out)["measures"]["S_ab"] == pytest.approx(0.0, abs=1e-9)


def test_output_to_file(capsys, bell_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compute", bell_file, "--measures", "ico", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["measures"]["I_co"] == pytest.approx(1.0)


def test_compute_rejects_bad_optimizer_config(capsys, bell_file):
    code, out, err = run_cli(capsys, "compute", bell_file, "--measures", "discord", "--restarts", "0")
    assert code == 2
    assert out == ""
    assert "restarts" in err


@pytest.mark.parametrize("suite", ["theorem1", "theorem2"])
def test_verify_rejects_invalid_restarts_and_max_iter(capsys, suite):
    code, out, err = run_cli(
        capsys, "verify", suite, "--trials", "2", "--restarts", "0", "--max-iter", "0"
    )
    assert code == 2 and out == ""
    assert "restarts must be an integer >= 1, got 0" in err
    assert "trials" not in err  # no trial ran, so no progress line


def test_unconverged_search_warns_on_stderr_only(capsys, tmp_path, monkeypatch):
    path = tmp_path / "mixed.json"
    save_state(random_state(3, 2, "ginibre-mixed", seed=4), path)
    args = ("compute", str(path), "--measures", "discord")
    code, out_short, err = run_cli(capsys, *args, "--max-iter", "1")
    assert code == 0
    assert "warning: discord search did not converge on" in err and str(path) in err
    assert out_short.startswith("{") and "warning" not in out_short
    code, out_full, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    # stdout differs only in the echoed budget and the (upper-bound) value
    short, full = json.loads(out_short), json.loads(out_full)
    assert short["measures"]["discord"] >= full["measures"]["discord"]
    assert {k: v for k, v in short.items() if k not in ("config", "measures")} == {
        k: v for k, v in full.items() if k not in ("config", "measures")
    }

    # a cq-angle state starts its search in its own frame and certifies there, even on one
    # step, so the sweep warns on those states mixed with a Bell state, whose discord is nonzero
    sweep = ("sweep", "cq-angle", "--steps", "3", "--measures", "discord", "--max-iter", "1")
    code, _, err = run_cli(capsys, *sweep)
    assert code == 0 and err == ""
    param, last, cq_angle = discoh.cli._SWEEPS["cq-angle"]
    monkeypatch.setitem(discoh.cli._SWEEPS, "cq-angle", (param, last, lambda theta: DensityMatrix(
        (cq_angle(theta).mat + bell_phi_plus().mat) / 2, (2, 2))))
    code, out, err = run_cli(capsys, *sweep)
    assert code == 0
    assert "cq-angle theta=" in err
    assert len(out.strip().splitlines()) == 4


def test_a_search_certified_above_its_floor_prints_no_warning(capsys, tmp_path):
    # a rank-2 4x2 state whose one restart reaches its floor at an accepted step and ends
    # on its budget 1.2e-14 above it: certified, so converged, and stderr stays empty
    rng = np.random.default_rng(207)
    g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    m = g @ g.conj().T
    path = tmp_path / "rank2.json"
    save_state(DensityMatrix(m / np.trace(m).real, (4, 2)), path)
    code, out, err = run_cli(
        capsys, "compute", str(path), "--restarts", "1", "--measures", "discord", "--format", "csv"
    )
    assert code == 0 and err == ""
    assert out == "discord\n0.415715285329\n"


def test_cli_import_leaves_scipy_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, discoh.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
