"""Command-line interface: CSV output, config files, and exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tprabi.cli
from tprabi import FULL, RelativeComb, SubspaceLabel, SweepConfig
from tprabi.cli import main, parse_sweep_config, serialize_sweep_config

GOOD_CONFIG = """\
# resonance survey
omega0 = 1.0
omega = 0.5
g2_rel = grid(0, 2, 9)
subspaces = q14+
cutoff = 1024
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestSpectrumCommand:
    def test_bare_oscillator_ladder(self, capsys):
        code, out, err = run_cli(
            "spectrum --omega0 0 --omega 1 --g2 0 --cutoff 128"
            " --subspace q14+ --count 3".split(),
            capsys,
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["index", "energy", "tail_norm", "converged"]
        energies = [float(r[1]) for r in rows]
        assert np.allclose(energies, [0.5, 2.5, 4.5], atol=1e-12)
        assert all(r[3] == "1" for r in rows)

    def test_count_clamped_to_dimension(self, capsys):
        code, out, _ = run_cli(
            "spectrum --omega0 0 --omega 1 --g2 0 --cutoff 64"
            " --subspace q34- --count 500".split(),
            capsys,
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 64

    def test_output_file_is_deterministic(self, tmp_path, capsys):
        argv = (
            "spectrum --omega0 1 --omega 0.5 --g2 0.2 --cutoff 256"
            " --subspace full --count 10 --out".split()
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + [str(first)], capsys)[0] == 0
        assert run_cli(argv + [str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tprabi-")]

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main("spectrum --omega0 0 --g2 0 --cutoff 64 --subspace q14+".split())
        assert excinfo.value.code == 2

    def test_unknown_subspace_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                "spectrum --omega0 0 --omega 1 --g2 0 --cutoff 64"
                " --subspace q12+".split()
            )
        assert excinfo.value.code == 2

    def test_bad_parameters_exit_two(self, capsys):
        code, _, err = run_cli(
            "spectrum --omega0 -1 --omega 1 --g2 0 --cutoff 64"
            " --subspace q14+".split(),
            capsys,
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tol, capsys):
        code, out, err = run_cli(
            "spectrum --omega0 1 --omega 0.5 --g2 0.1 --cutoff 64"
            f" --subspace q14+ --tol {tol}".split(),
            capsys,
        )
        assert code == 2 and out == "" and "tolerance" in err

    def test_unwritable_destination_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "out.csv"
        code, _, err = run_cli(
            f"spectrum --omega0 0 --omega 1 --g2 0 --cutoff 64"
            f" --subspace q14+ --out {missing}".split(),
            capsys,
        )
        assert code == 1 and err.startswith("error:")
        assert not missing.exists()


config_st = st.builds(
    SweepConfig,
    omega0_grid=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    omega_grid=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
    coupling_spec=st.one_of(
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6).map(tuple),
        st.builds(
            RelativeComb,
            steps=st.integers(1, 400),
            lo=st.floats(0.0, 0.9),
            hi=st.floats(1.0, 3.0),
        ),
    ),
    subspaces=st.lists(
        st.sampled_from(
            [
                SubspaceLabel(0.25, 1),
                SubspaceLabel(0.25, -1),
                SubspaceLabel(0.75, 1),
                SubspaceLabel(0.75, -1),
                FULL,
            ]
        ),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    cutoff=st.integers(64, 8192),
    requested_eigenpairs=st.integers(2, 60),
    tail_fraction=st.floats(0.01, 0.99),
    tolerance=st.floats(1e-12, 1e-2),
)


class TestConfigFormat:
    def test_example_config(self):
        config = parse_sweep_config(GOOD_CONFIG)
        assert config.omega0_grid == (1.0,)
        assert config.coupling_spec == RelativeComb(steps=8, lo=0.0, hi=2.0)
        assert config.subspaces == (SubspaceLabel(0.25, 1),)
        assert config.cutoff == 1024
        assert config.requested_eigenpairs == 25

    @given(config_st)
    @settings(max_examples=100)
    def test_round_trip(self, config):
        assert parse_sweep_config(serialize_sweep_config(config)) == config

    def test_absolute_couplings_and_lists(self):
        config = parse_sweep_config(
            "omega0 = 0.0, 1.0\nomega = 0.45\ng2 = 0.1, 0.2, 0.225\n"
            "subspaces = q14+, q34-, full\ncutoff = 128\neigenpairs = 10\n"
            "tail_fraction = 0.25\ntolerance = 1e-8\n"
        )
        assert config.coupling_spec == (0.1, 0.2, 0.225)
        assert config.subspaces[1] == SubspaceLabel(0.75, -1)
        assert config.tolerance == 1e-8

    def test_grid_expands_to_points(self):
        config = parse_sweep_config(
            "omega0 = 1\nomega = grid(0.4, 0.6, 3)\ng2 = 0.1\n"
            "subspaces = full\ncutoff = 64\n"
        )
        assert config.omega_grid == (0.4, 0.5, 0.6)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("omega0 = 1\nomega = 0.5\nbogus = 3\ng2 = 0.1\nsubspaces = full\ncutoff = 64", "unknown key"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\ng2 =\nsubspaces = full\ncutoff = 64", "empty value"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\ng2 = 0.2\nsubspaces = full\ncutoff = 64", "duplicate key"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\nsubspaces = full", "missing required key"),
            ("omega0 = 1\nomega = 0.5\nsubspaces = full\ncutoff = 64", "exactly one of"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\ng2_rel = grid(0, 2, 5)\nsubspaces = full\ncutoff = 64", "exactly one of"),
            ("omega0 = 1\nomega = 0.5\ng2_rel = 0.1, 0.2\nsubspaces = full\ncutoff = 64", "g2_rel requires grid"),
            ("omega0 = 1\nomega = 0.5\ng2_rel = grid(0, 2, 1)\nsubspaces = full\ncutoff = 64", "count >= 2"),
            ("omega0 = 1\nomega = 0.5\ng2 = fast\nsubspaces = full\ncutoff = 64", "expected a number"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\nsubspaces = qault\ncutoff = 64", "qault"),
            ("omega0 = 1\nomega = 0.5\ng2 = 0.1\nsubspaces = full\ncutoff = 32", "cutoff"),
            ("just some words\nomega = 0.5", "expected 'key = value'"),
        ],
    )
    def test_malformed_configs(self, text, fragment):
        with pytest.raises(Exception) as excinfo:
            parse_sweep_config(text)
        assert fragment in str(excinfo.value)

    def test_error_names_offending_line(self):
        text = "omega0 = 1\nomega = 0.5\n\n# fine\nwidth = 3\n"
        with pytest.raises(Exception) as excinfo:
            parse_sweep_config(text)
        assert "line 5" in str(excinfo.value) and "'width = 3'" in str(excinfo.value)


class TestSweepCommand:
    def test_survey_detects_resonant_collapse(self, tmp_path, capsys):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG)
        code, out, err = run_cli(["sweep", str(config)], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:7] == [
            "omega0", "omega", "g2", "cutoff", "subspace", "converged_count", "collapsed",
        ]
        assert len(rows) == 9 and all(r[4] == "q14+" for r in rows)
        assert "g_c ~= 0.25 (one-sided step 0.0625)" in err

    def test_out_file_routes_summary_to_stdout(self, tmp_path, capsys):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace("1024", "256"))
        out_csv = tmp_path / "rows.csv"
        code, out, err = run_cli(["sweep", str(config), "--out", str(out_csv)], capsys)
        assert code == 0 and err == ""
        assert "subspace=q14+:" in out
        assert out_csv.read_text().startswith("omega0,omega,g2,")

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["sweep", "/nonexistent/sweep.cfg"], capsys)
        assert code == 2 and "cannot read config" in err

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        # only expected runtime failures become exit 1; a bug keeps its traceback
        def broken(config):
            raise TypeError("bug in the sweep")

        monkeypatch.setattr(tprabi.cli, "run_sweep", broken)
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG)
        with pytest.raises(TypeError, match="bug in the sweep"):
            main(["sweep", str(config)])

    def test_config_error_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("omega0 = 1\nomega = 0.5\ng2 = 0.1\nsubspaces = full\n")
        code, _, err = run_cli(["sweep", str(config)], capsys)
        assert code == 2 and "cutoff" in err

    def test_relative_comb_at_zero_omega_exits_two(self, tmp_path, capsys):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace("omega = 0.5", "omega = 0"))
        code, out, err = run_cli(["sweep", str(config)], capsys)
        assert code == 2 and out == "" and "omega" in err

    # each used to exit 0: a nan tolerance reported g_c ~= 0 with every row
    # collapsed, and an infinite comb end or a non-finite grid value gave
    # nan/inf failure rows
    @pytest.mark.parametrize(
        "old,new,fragment",
        [
            ("cutoff = 1024", "cutoff = 1024\ntolerance = nan", "tolerance"),
            ("cutoff = 1024", "cutoff = 1024\ntolerance = inf", "tolerance"),
            ("grid(0, 2, 9)", "grid(0, inf, 3)", "finite"),
            ("grid(0, 2, 9)", "grid(0, nan, 3)", "finite"),
            ("omega0 = 1.0", "omega0 = nan", "finite"),
            ("omega = 0.5", "omega = inf", "finite"),
            ("g2_rel = grid(0, 2, 9)", "g2 = 0.1, nan, 0.2", "finite"),
        ],
    )
    def test_non_finite_settings_exit_two(self, tmp_path, capsys, old, new, fragment):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace(old, new))
        code, out, err = run_cli(["sweep", str(config)], capsys)
        assert code == 2 and out == "" and fragment in err


class TestOutFileMode:
    """--out files get the mode open(path, "w") gives a new file."""

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_mode_follows_umask(self, tmp_path, capsys, command, umask, mode):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace("1024", "256"))
        out = tmp_path / "out.csv"
        argv = {
            "spectrum": "spectrum --omega0 0 --omega 1 --g2 0 --cutoff 64"
            " --subspace q14+ --count 2".split(),
            "sweep": ["sweep", str(config)],
        }[command] + ["--out", str(out)]
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(argv, capsys)
        finally:
            os.umask(previous)
        assert code == 0
        assert os.stat(out).st_mode & 0o777 == mode


class TestOracleCommand:
    def test_default_cutoff_passes(self, capsys):
        code, out, _ = run_cli(["oracle"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4 and all("PASS" in line for line in lines)
        names = [line.split(":")[0] for line in lines]
        assert names == [
            "check alignment",
            "check degenerate-spectrum",
            "check hermite-gauss",
            "check rotation-chain",
        ]

    def test_small_cutoff_with_seed(self, capsys):
        code, out, _ = run_cli(["oracle", "--cutoff", "32", "--seed", "7"], capsys)
        assert code == 0 and out.count("PASS") == 4

    def test_tiny_cutoff_rejected(self, capsys):
        code, _, err = run_cli(["oracle", "--cutoff", "8"], capsys)
        assert code == 2 and "cutoff" in err

    def test_cutoff_below_alignment_floor_rejected(self, capsys):
        # below 32 the alignment check cannot pass on any seed
        code, out, err = run_cli(["oracle", "--cutoff", "31"], capsys)
        assert code == 2 and out == "" and "cutoff must be >= 32" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(["oracle", "--cutoff", "32", "--seed", "-1"], capsys)
        assert code == 2 and out == "" and "--seed" in err


class TestModesCommand:
    def test_bare_oscillator_mode(self, capsys):
        code, out, _ = run_cli(
            "modes --omega 1 --g2 0 --subspace q14+ --cutoff 128"
            " --xmin -6 --xmax 6 --points 201".split(),
            capsys,
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "x", "analytic_re", "analytic_im", "numeric_re", "numeric_im", "absdiff",
        ]
        assert max(float(r[5]) for r in rows) < 1e-8

    def test_harmonic_regime_mode(self, capsys):
        code, out, _ = run_cli(
            "modes --omega 0.5 --g2 0.1 --subspace q14+".split(), capsys
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2001
        assert max(float(r[5]) for r in rows) < 1e-6

    def test_free_particle_regime_emits_table(self, capsys):
        code, out, _ = run_cli(
            "modes --omega 0.45 --g2 0.225 --subspace q34+ --cutoff 512"
            " --points 101".split(),
            capsys,
        )
        assert code == 0
        _, rows = csv_rows(out)
        values = np.array([[float(v) for v in r] for r in rows])
        assert np.all(np.isfinite(values))
        # plane waves carry a genuine imaginary part
        assert np.max(np.abs(values[:, 2])) > 1e-3

    def test_inverted_regime_is_computational_failure(self, capsys):
        code, _, err = run_cli(
            "modes --omega 0.5 --g2 0.3 --subspace q14+ --cutoff 128".split(), capsys
        )
        assert code == 1
        assert "regime III closed forms out of scope" in err

    def test_qubit_must_be_degenerate(self, capsys):
        code, _, err = run_cli(
            "modes --omega0 0.5 --omega 0.5 --g2 0.1 --subspace q14+".split(), capsys
        )
        assert code == 2 and "omega0 = 0" in err

    def test_cutoff_below_minimum_is_usage_error(self, capsys):
        code, _, err = run_cli(
            "modes --omega 0.5 --g2 0.1 --subspace q14+ --cutoff 1".split(), capsys
        )
        assert code == 2 and "cutoff 1 too small" in err

    def test_full_subspace_not_allowed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main("modes --omega 0.5 --g2 0.1 --subspace full".split())
        assert excinfo.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "tprabi",
            "spectrum", "--omega0", "0", "--omega", "1", "--g2", "0",
            "--cutoff", "64", "--subspace", "q14+", "--count", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,energy,tail_norm,converged")
