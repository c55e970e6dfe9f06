"""Input generation and answer checks: planted wrong answers count as failed."""

import numpy as np
import pytest

import run
import workloads
from tprabi import ALL_SUBSPACES, ModelParams, degenerate_spectrum
from tprabi.cli import parse_sweep_config
from workloads import EIGENPAIRS, SURVEY_POINTS, Verdict


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3) != workloads.generate(name, 4)


def test_survey_config_has_about_400_rows(tmp_path):
    inputs = workloads.generate("survey_table", 0)
    assert inputs["omega0"][0] == 0.0
    (entry, argv), = workloads._survey_calls(inputs, 0, tmp_path)
    config = parse_sweep_config((tmp_path / "job0-survey.cfg").read_text())
    rows = len(config.omega0_grid) * len(config.subspaces) * len(config.couplings_for(inputs["omega"]))
    assert (entry, argv[0], rows, config.cutoff) == ("tprabi", "sweep", 408, 1024)


def test_locate_slices_cover_each_quarter_and_sector():
    slices = workloads.generate("locate_gc", 5)["slices"]
    assert sorted(s["subspace"] for s in slices) == sorted(workloads.SECTORS)
    assert [int((s["omega"] - 0.3) // 0.175) for s in slices] == [0, 1, 2, 3]


def test_full_comb_is_dense_and_spectrum_banded(tmp_path):
    calls = workloads._full_calls(workloads.generate("full_spectrum", 0), 0, tmp_path)
    config = parse_sweep_config((tmp_path / "job0-comb.cfg").read_text())
    assert 2 * config.cutoff < 1024 <= 2 * workloads.FULL_CUTOFF
    assert [argv[0] for _, argv in calls] == ["spectrum", "sweep"]


def _survey_rows(omega0s=(0.0, 0.7), omega=0.5, collapse_at=25):
    """Rows a correct sweep would write: 25 converged levels below g_c, none after."""
    couplings = np.linspace(0.0, omega, SURVEY_POINTS)
    rows = []
    for w0 in omega0s:
        for g2 in couplings:
            for label in ALL_SUBSPACES:
                count = EIGENPAIRS if list(couplings).index(g2) < collapse_at else 0
                values = []
                if w0 == 0.0 and count:
                    values = degenerate_spectrum(ModelParams(0.0, omega, g2), label, count)
                row = {"omega0": format(w0, ".12g"), "omega": format(omega, ".12g"),
                       "g2": format(g2, ".12g"), "subspace": label.name,
                       "converged_count": str(count)}
                row.update({f"e{i}": "" for i in range(EIGENPAIRS)})
                row.update({f"e{i}": format(v, ".12g") for i, v in enumerate(values)})
                rows.append(row)
    return rows


def _survey_verdict(rows):
    verdict = Verdict()
    workloads.check_survey({"omega0": [0.0, 0.7], "omega": 0.5}, rows, verdict)
    return verdict


def test_correct_survey_passes_and_locates_every_slice():
    verdict = _survey_verdict(_survey_rows())
    assert verdict.failures == []
    assert len(verdict.located) == 8
    assert all(abs(est - gc) < 1e-12 for gc, est in verdict.located)


def test_survey_planted_wrong_answers_fail():
    rows = _survey_rows()
    rows[10]["e3"] = format(float(rows[10]["e3"]) + 1e-6, ".12g")
    assert "closed form" in _survey_verdict(rows).failures[0]

    rows = _survey_rows()
    rows[-1]["converged_count"] = "-1"
    assert "failed row" in _survey_verdict(rows).failures[0]

    assert "off omega/2" in _survey_verdict(_survey_rows(collapse_at=23)).failures[0]
    assert "rows, expected" in _survey_verdict(_survey_rows()[1:]).failures[0]


def test_locate_check():
    piece = {"omega": 0.5}
    good = "coarse:  g_c ~= 0.25 +- 0.0025\nrefined: g_c ~= 0.24997487 +- 5e-05\n"
    verdict = Verdict()
    workloads.check_locate(piece, good, verdict)
    assert verdict.failures == [] and verdict.located == [(0.25, 0.24997487)]

    for wrong in (good.replace("0.24997487", "0.2498"), "no collapse inside the coarse comb\n"):
        verdict = Verdict()
        workloads.check_locate(piece, wrong, verdict)
        assert len(verdict.failures) == 1


def test_full_check_against_sector_union():
    inputs = {"omega0": 0.8, "omega": 0.5, "g2": 0.1}
    reference = workloads.sector_reference(0.8, 0.5, 0.1, workloads.FULL_CUTOFF)
    spectrum = [{"energy": format(v, ".12g"), "converged": "1"} for v in reference[:EIGENPAIRS]]
    comb = []
    for g2 in np.linspace(0.0, 0.5, workloads.COMB_POINTS):
        values = workloads.sector_reference(0.8, 0.5, g2, workloads.COMB_CUTOFF)[:EIGENPAIRS]
        row = {"g2": format(g2, ".12g"), "converged_count": str(len(values))}
        row.update({f"e{i}": format(v, ".12g") for i, v in enumerate(values)})
        comb.append(row)
    verdict = Verdict()
    workloads.check_full(inputs, spectrum, comb, verdict)
    assert verdict.failures == []

    spectrum[4]["energy"] = format(reference[4] + 1e-6, ".12g")
    comb[2]["converged_count"] = "-1"
    verdict = Verdict()
    workloads.check_full(inputs, spectrum, comb, verdict)
    assert len(verdict.failures) == 2


def test_oracle_check():
    passing = "".join(
        f"check {n}: PASS (max deviation 1e-13, tolerance 1e-08)\n"
        for n in ("alignment", "degenerate-spectrum", "hermite-gauss", "rotation-chain")
    )
    good = workloads._check_oracle_job({}, 0, None, [(0, passing)])
    assert good.failures == []
    failing = passing.replace("hermite-gauss: PASS", "hermite-gauss: FAIL")
    assert len(workloads._check_oracle_job({}, 0, None, [(1, failing)]).failures) == 2
    three = "".join(passing.splitlines(keepends=True)[:3])
    assert len(workloads._check_oracle_job({}, 0, None, [(0, three)]).failures) == 1


def test_failed_jobs_count_against_attempted():
    report = {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 60.0, "located": [], "failures": []}
    summary = run.summarize([report, dict(report, failures=["wrong"]), report], trace=False)
    assert (summary["attempted"], summary["failed"]) == (3, 1)
    assert summary["failed_frac"] == pytest.approx(1 / 3)
    assert summary["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
