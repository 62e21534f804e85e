"""Verifier sweeps: confirmations, boundary records, and mutant detection."""

import json

import pytest

from apnspectra.errors import ParameterError
from apnspectra.families import Butterfly, Taniguchi
from apnspectra.gf2m import field
from apnspectra.lincurves import DerivedPair, LinearizedBivariate
from apnspectra.verifier import (
    CLAIMS,
    CONFIRMED,
    REFUTED,
    butterfly_grid,
    carlet11_sampled_grid,
    taniguchi_grid,
    verify_butterfly,
    verify_carlet11,
    verify_cube_curve,
    verify_kernel_wht_agreement,
    verify_s_full,
    verify_taniguchi_spectrum,
    verify_zhoupott,
)


def test_taniguchi_m2_confirmed():
    finding = verify_taniguchi_spectrum([2])
    assert finding.status == CONFIRMED
    assert not finding.counterexamples
    assert finding.details["instances"] == 9


def test_taniguchi_m3_refutes_only_on_non_apn_parameters():
    # the published claim covers all alpha*beta != 0, but the parameters
    # whose x^(2^k+1) + a*x + b has three roots (hence non-APN) have
    # 4-plateaued components (e.g. k=1, a=b=1)
    finding = verify_taniguchi_spectrum([3])
    assert finding.status == REFUTED
    assert finding.details["instances"] == 2 * 49
    assert len(finding.counterexamples) == 2 * 7
    assert finding.details["apn_violations"] == 0
    assert all(not ce["apn"] and ce["level"] == 4
               for ce in finding.counterexamples)
    assert {"m": 3, "k": 1, "alpha": 1, "beta": 1} in [
        ce["params"] for ce in finding.counterexamples]


def test_taniguchi_mutant_refuted():
    finding = verify_taniguchi_spectrum(
        [3], mutate_table=lambda fn: fn.flip_output_bit(5, 0))
    assert finding.status == REFUTED
    assert finding.counterexamples
    ce = finding.counterexamples[0]
    assert "params" in ce and "selector" in ce


def test_carlet11_m3_degenerate_formula_holds_apn_clean():
    finding = verify_carlet11([3])
    # 6 direction pairs x 7 alphas x 7 ts degenerate, plus 200 sampled
    assert finding.details["instances"] == 294 + 200
    # sampling hits non-degenerate non-APN tuples outside the classical
    # spectrum, so the published claim is refuted; but never on an APN
    # tuple and never on the degenerate nonlinearity formula
    assert finding.details["apn_violations"] == 0
    assert all(ce["reason"] == "non-degenerate component not bent or semibent"
               for ce in finding.counterexamples)


def test_zhoupott_m2_records_boundary_without_refuting():
    finding = verify_zhoupott([2])
    assert finding.status == CONFIRMED
    assert finding.boundary  # the necessity direction fails at m = 2
    for entry in finding.boundary:
        assert entry["params"]["m"] == 2
        assert entry["uniformity_2"] and not entry["predicate"]
        assert entry["params"]["j"] % 2 == 1


def test_zhoupott_m4_apn_clean_spectrum_refuted_on_odd_j():
    finding = verify_zhoupott([4])
    assert finding.status == REFUTED
    assert not finding.boundary
    # every counterexample is an odd-j non-cube (hence non-APN) instance
    # outside the published only-bent-or-semibent claim
    for ce in finding.counterexamples:
        assert ce["reason"] == "expected only bent/semibent"
        assert ce["params"]["j"] % 2 == 1
    assert not any(ce["reason"] == "APN test mismatch"
                   for ce in finding.counterexamples)
    assert not any(ce["reason"] == "cube-case nonlinearity"
                   for ce in finding.counterexamples)


def test_cube_curve_boundary_at_m2():
    finding = verify_cube_curve([2, 4])
    assert finding.status == CONFIRMED
    assert all(b["m"] == 2 for b in finding.boundary)
    # alpha = 1 does have a nontrivial solution at m = 2, non-cubes do not
    assert sorted(b["alpha"] for b in finding.boundary) == [2, 3]


def test_s_full_confirmed_at_m4_boundary_at_m2():
    finding = verify_s_full([2, 4])
    assert finding.status == CONFIRMED
    assert {b["m"] for b in finding.boundary} == {2}
    for b in finding.boundary:
        assert b["j"] % 2 == 1
        assert b["set_size"] == 2  # {0, 1}


def test_butterfly_m3_confirmed():
    finding = verify_butterfly([3])
    assert finding.status == CONFIRMED
    assert finding.details["instances"] == 49


def test_kernel_wht_agreement_small():
    finding = verify_kernel_wht_agreement([2])
    assert finding.status == CONFIRMED
    assert finding.details["components"] > 0


def test_kernel_wht_detects_coefficient_perturbation():
    def perturb(pair, lam, mu):
        c0, d0 = pair.A.coeffs[0]
        bad = LinearizedBivariate(pair.A.field, pair.A.k,
                                  ((c0 ^ 1, d0),) + pair.A.coeffs[1:])
        return DerivedPair(bad, pair.B, pair.case, pair.swap_xy, pair.twist)

    finding = verify_kernel_wht_agreement(
        [3], instances=[Taniguchi(3, 1, 0x3, 0x5)], perturb_pair=perturb)
    assert finding.status == REFUTED
    assert_first_disagreement(finding, selector=1, kernel_dim=1,
                              wht_level=0, brute_dim=0)


def test_kernel_wht_detects_table_mutation():
    finding = verify_kernel_wht_agreement(
        [3], instances=[Taniguchi(3, 1, 0x3, 0x5)],
        mutate_table=lambda fn: fn.flip_output_bit(7, 2))
    assert finding.status == REFUTED
    assert_first_disagreement(finding, selector=2, kernel_dim=0,
                              wht_level=-1, brute_dim=0)


def assert_first_disagreement(finding, **report):
    """One counterexample with exactly these fields, components counted up
    to and including its selector, and a report that serialises to JSON."""
    [cex] = finding.counterexamples
    assert cex == dict(params={"m": 3, "k": 1, "alpha": 3, "beta": 5},
                       reason="oracle disagreement", **report)
    assert all(type(cex[key]) is int for key in report)
    assert finding.details["components"] == report["selector"]
    json.dumps(finding.to_dict())


def test_findings_are_deterministic():
    a = verify_zhoupott([2], seed=11).to_dict()
    b = verify_zhoupott([2], seed=11).to_dict()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_whole_range_outside_hypothesis():
    finding = verify_butterfly([4])  # even m only: no instances at all
    assert finding.status == "out-of-hypothesis"
    assert finding.boundary
    finding = verify_s_full([3])
    assert finding.status == "out-of-hypothesis"


def test_claim_registry_names():
    assert set(CLAIMS) == {"taniguchi-spectrum", "carlet11", "zhoupott",
                           "cube-curve", "s-full", "butterfly", "kernel-wht"}


def test_sampled_grids_hold_no_repeats():
    # without the repeat check these draw 152 and 198 distinct tuples in 200
    for grid in (carlet11_sampled_grid(2), carlet11_sampled_grid(3),
                 taniguchi_grid(5), taniguchi_grid(6), butterfly_grid(5)):
        assert len(set(grid)) == len(grid)
    assert len(carlet11_sampled_grid(2)) == 200
    # 200 random butterflies, then each degenerate one not already drawn
    grid = butterfly_grid(5)
    F = field(5)
    degenerate = {Butterfly(5, a, F.pow(a ^ 1, 3)) for a in range(2, 32)}
    assert set(grid) == set(grid[:200]) | degenerate


def test_sampled_grid_larger_than_its_space_rejected():
    # m = 2 has 2 (i, j) pairs, 3 * 3 choices of s, t and 4 * 4 of u, v
    assert len(carlet11_sampled_grid(2, count=288)) == 288
    with pytest.raises(ParameterError):
        carlet11_sampled_grid(2, count=289)
