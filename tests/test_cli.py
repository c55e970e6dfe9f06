"""Command-line interface: CSV output, config files, and exit codes."""

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tprabi.cli
from tprabi import (
    FULL,
    RelativeComb,
    SubspaceLabel,
    SweepConfig,
    detect_collapse,
    refine_comb,
    run_sweep,
)
from tprabi.cli import main, parse_sweep_config, serialize_sweep_config
from tprabi.solver import FilteredSpectrum

SCRIPTS = Path(__file__).parents[1] / "scripts"
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

    @pytest.mark.parametrize("fraction", ["1.5", "0"])
    def test_tail_fraction_out_of_range_exits_two(self, fraction, capsys):
        code, out, err = run_cli(
            "spectrum --omega0 1 --omega 0.5 --g2 0.1 --cutoff 64"
            f" --subspace q14+ --tail-fraction {fraction}".split(),
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: tail_fraction must be in (0, 1), got {float(fraction)}\n"

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
    omega0_grid=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3, unique=True),
    omega_grid=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True),
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

    @pytest.mark.parametrize(
        "couplings,summary",
        [
            ("g2 = 0.1", "detection unavailable (slice needs >= 2 comb points, got 1)"),
            ("g2_rel = grid(0, 0.5, 3)", "no collapse in range"),
        ],
        ids=["single-coupling", "below-collapse"],
    )
    def test_summary_without_an_estimate(self, tmp_path, capsys, couplings, summary):
        config = tmp_path / "survey.cfg"
        config.write_text(
            GOOD_CONFIG.replace("g2_rel = grid(0, 2, 9)", couplings).replace("1024", "256")
        )
        code, out, err = run_cli(["sweep", str(config)], capsys)
        assert code == 0 and out.startswith("omega0,omega,g2,")
        assert err == f"omega0=1 omega=0.5 subspace=q14+: {summary}\n"

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

    # each used to exit 0 with every row solved twice and a summary that
    # blamed the coupling comb
    @pytest.mark.parametrize(
        "old,new,fragment",
        [
            ("subspaces = q14+", "subspaces = q14+, q14+", "subspace values must not repeat"),
            ("omega0 = 1.0", "omega0 = 1.0, 1.0", "omega0 values must not repeat"),
        ],
    )
    def test_repeated_grid_values_exit_two(self, tmp_path, capsys, old, new, fragment):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace(old, new))
        code, out, err = run_cli(["sweep", str(config)], capsys)
        assert code == 2 and out == "" and fragment in err


class TestOutFileMode:
    """--out files get the mode open(path, "w") would leave: a new file's
    mode follows the umask, and a rewritten file keeps its own (it used to
    be reset to the umask's, 0640 to 0644 under 022). Like open, --out
    through a symlink writes the link's target and keeps the link (the link
    used to be replaced by a regular file, its target left unchanged)."""

    @staticmethod
    def argv(tmp_path, command, out):
        config = tmp_path / "survey.cfg"
        config.write_text(GOOD_CONFIG.replace("1024", "256"))
        return {
            "spectrum": "spectrum --omega0 0 --omega 1 --g2 0 --cutoff 64"
            " --subspace q14+ --count 2".split(),
            "sweep": ["sweep", str(config)],
        }[command] + ["--out", str(out)]

    @pytest.mark.parametrize(
        "umask,existing,mode",
        [(0o022, None, 0o644), (0o077, None, 0o600), (0o022, 0o640, 0o640)],
        ids=["umask022", "umask077", "rewrite0640"],
    )
    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_mode_follows_umask(self, tmp_path, capsys, command, umask, existing, mode):
        out = tmp_path / "out.csv"
        if existing is not None:
            out.write_text("old\n")
            os.chmod(out, existing)
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(self.argv(tmp_path, command, out), capsys)
        finally:
            os.umask(previous)
        assert code == 0 and out.read_text() != "old\n"
        assert os.stat(out).st_mode & 0o777 == mode

    @pytest.mark.parametrize("dangling", [False, True], ids=["existing", "dangling"])
    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_symlink_writes_its_target(self, tmp_path, capsys, command, dangling):
        target = tmp_path / "target.csv"
        if not dangling:
            target.write_text("old\n")
            os.chmod(target, 0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run_cli(self.argv(tmp_path, command, link), capsys)
        assert code == 0 and link.is_symlink()
        assert target.read_text().startswith(("index,", "omega0,"))
        if not dangling:
            assert os.stat(target).st_mode & 0o777 == 0o640


    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_directory_target_is_refused_before_any_temp_file(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # a temp file used to be created and removed in the directory's parent
        out = tmp_path / "outdir"
        out.mkdir()
        argv = self.argv(tmp_path, command, out)
        before = sorted(os.listdir(tmp_path))
        made, real_mkstemp = [], tempfile.mkstemp

        def mkstemp(*args, **kwargs):
            made.append(kwargs.get("dir"))
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == "" and made == []
        assert err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert sorted(os.listdir(tmp_path)) == before and os.listdir(out) == []

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_missing_directory_names_the_given_path(self, tmp_path, capsys, command):
        # the error used to name the temp file, nodir/.tprabi-XXXXXXXX.tmp
        out = os.path.join(os.path.relpath(tmp_path), "nodir", "x.csv")
        code, stdout, err = run_cli(self.argv(tmp_path, command, out), capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"


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

    def test_alignment_error_reads_inf(self, monkeypatch, capsys):
        def unalignable(reference, others):
            raise ValueError("nothing to align")

        monkeypatch.setattr(tprabi.cli, "align_spectra", unalignable)
        code, out, _ = run_cli(["oracle", "--cutoff", "32", "--seed", "7"], capsys)
        lines = out.splitlines()
        assert code == 1 and len(lines) == 4
        assert lines[0] == "check alignment: FAIL (max deviation inf, tolerance 1e-06)"
        assert all("PASS" in line for line in lines[1:])

    def test_too_few_degenerate_levels_read_inf(self, monkeypatch, capsys):
        real_solve_point = tprabi.cli.solve_point

        def four_pairs(*args):
            spectrum = real_solve_point(*args)
            return FilteredSpectrum(spectrum.pairs[:4], spectrum.tails[:4], spectrum.tolerance)

        monkeypatch.setattr(tprabi.cli, "solve_point", four_pairs)
        code, out, _ = run_cli(["oracle", "--cutoff", "32", "--seed", "7"], capsys)
        assert code == 1
        assert (
            "check degenerate-spectrum: FAIL (max deviation inf, tolerance 1e-06)"
            in out.splitlines()
        )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedOracle:
    """The oracle's eight tasks run through the sweep's fork path: serial on
    one CPU, in forked shares on three, with the same bytes either way."""

    @pytest.fixture
    def forks(self, monkeypatch):
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def run_on(cpus, monkeypatch, capsys):
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: cpus)
        return run_cli(["oracle", "--cutoff", "32", "--seed", "7"], capsys)

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forked_run_prints_the_serial_bytes(self, monkeypatch, capsys, forks):
        serial = self.run_on(1, monkeypatch, capsys)
        assert forks == [] and serial[0] == 0 and serial[1].count("PASS") == 4
        assert self.run_on(3, monkeypatch, capsys) == serial
        assert len(forks) == 2
        self.assert_no_children()

    def test_child_error_maps_as_in_a_serial_run(self, monkeypatch, capsys, forks):
        # the rotation-chain tasks are the last two, solved in the last child
        def broken(params, dim):
            raise ValueError("no rotated basis")

        monkeypatch.setattr(tprabi.cli, "build_rotated_fock", broken)
        serial = self.run_on(1, monkeypatch, capsys)
        assert serial == (1, "", "error: no rotated basis\n")
        assert self.run_on(3, monkeypatch, capsys) == serial
        assert len(forks) == 2
        self.assert_no_children()


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

    # q = 3/4 ladders hold the odd Hermite-Gauss levels 2 * level + 1
    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("subspace", ["q14+", "q14-", "q34+", "q34-"])
    def test_harmonic_regime_mode(self, capsys, subspace, level):
        code, out, _ = run_cli(
            f"modes --omega 0.5 --g2 0.1 --subspace {subspace} --level {level}"
            " --cutoff 512".split(),
            capsys,
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

    def test_omega0_is_not_a_modes_flag(self):
        # the closed forms hold for a degenerate qubit only, so modes has no --omega0
        with pytest.raises(SystemExit) as excinfo:
            main("modes --omega0 0 --omega 0.5 --g2 0.1 --subspace q14+".split())
        assert excinfo.value.code == 2

    def test_cutoff_below_minimum_is_usage_error(self, capsys):
        code, _, err = run_cli(
            "modes --omega 0.5 --g2 0.1 --subspace q14+ --cutoff 1".split(), capsys
        )
        assert code == 2 and "cutoff 1 too small" in err

    @pytest.mark.parametrize("bound", ["--xmin=nan", "--xmax=nan", "--xmin=-inf", "--xmax=inf"])
    def test_non_finite_grid_bound_is_usage_error(self, capsys, bound):
        # nan passed the xmax > xmin check and printed nan rows with exit 0
        code, out, err = run_cli(
            "modes --omega 0.5 --g2 0.1 --subspace q14+ --cutoff 64 --points 3".split()
            + [bound],
            capsys,
        )
        assert code == 2 and out == "" and "xmin and xmax must be finite" in err

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


SCRIPT_USAGE_ERRORS = [
    ("refine_critical.py", "--steps 0", "steps must be >= 1, got 0"),
    ("refine_critical.py", "--cutoff 10", "cutoff must be >= 64, got 10"),
    ("refine_critical.py", "--subspace bogus", "unknown subspace 'bogus'"),
    ("refine_critical.py", "--omega 0", "a relative coupling comb needs every omega > 0"),
    ("collapse_survey.py", "--omega0 1 1", "omega0 values must not repeat"),
    ("exceptional_overlap.py", "--omega 0", "omega must be > 0, got 0.0"),
    ("exceptional_overlap.py", "--subspace bogus", "unknown subspace 'bogus'"),
    ("exceptional_overlap.py", "--omega0 -1", "omega0 must be >= 0, got -1.0"),
    ("exceptional_overlap.py", "--cutoffs 1", "cutoff 1 too small, need at least 2"),
    ("exceptional_overlap.py", "--cutoffs 64 0", "cutoff 0 too small, need at least 2"),
]


def script_case_id(case):
    script, flags, _ = case
    return f"{script.removesuffix('.py')}{flags.replace(' ', '=', 1).replace(' ', ',')}"


def load_script(script):
    spec = importlib.util.spec_from_file_location(script.removesuffix(".py"), SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script,flags,message", SCRIPT_USAGE_ERRORS, ids=map(script_case_id, SCRIPT_USAGE_ERRORS)
)
def test_study_script_usage_errors_exit_two(capsys, script, flags, message):
    # a value the library rejects used to escape as a ValueError traceback, exit 1
    with pytest.raises(SystemExit) as excinfo:
        load_script(script).main(flags.split())
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f": error: {message}" in captured.err.splitlines()[-1]


def run_script(script, argv):
    src = str(Path(tprabi.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize(
    "script,flags,message",
    # one case per script, run as a program
    [SCRIPT_USAGE_ERRORS[i] for i in (0, 4, 5)],
    ids=[script_case_id(SCRIPT_USAGE_ERRORS[i]) for i in (0, 4, 5)],
)
def test_study_script_usage_error_exit_code(script, flags, message):
    proc = run_script(script, flags.split())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(f"{script}: error: {message}")


@pytest.mark.parametrize("out", [".", "missing/x.csv"], ids=["directory", "missing-parent"])
def test_survey_unwritable_out_is_an_error_line(tmp_path, out):
    # the table write used to end in a traceback after the whole sweep had run
    argv = ["--cutoff", "64", "--steps", "4", "--out", str(tmp_path / out)]
    proc = run_script("collapse_survey.py", argv)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tprabi-")]


@pytest.mark.parametrize("steps", [2, 20])
def test_refine_brackets_the_scanned_drop(steps):
    # a coarse step wider than 2% of the hit used to put the whole refine
    # window past the drop (near 0.2356 at cutoff 64), and the script then
    # printed that the coarse estimate stands
    argv = f"--cutoff 64 --steps {steps}".split()
    _, config = load_script("refine_critical.py").parse_args(argv)
    coarse = detect_collapse(run_sweep(config), 1.0, 0.5)
    scanned = detect_collapse(run_sweep(refine_comb(config, coarse)), 1.0, 0.5)
    # the refined bracket holds the drop, which a 2e-4 g_c comb puts in
    # (0.2355, 0.23555]
    assert scanned.coupling - scanned.step < 0.23552 < scanned.coupling
    proc = run_script("refine_critical.py", argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[1:] == [
        f"refined: g_c ~= {scanned.coupling:.8g} +- {scanned.step:.2g}",
        f"g_c/omega = {scanned.coupling / 0.5:.6f} (0.5 expected)",
    ]
