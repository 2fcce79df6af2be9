"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.

The numerical criteria run through the verification suites (the same code
the `ncwig verify` command drives), each suite once per module; the
determinism criterion runs the full CLI once more and compares its report
file byte for byte with the reports of those in-process runs.
"""

import pytest

from ncwigner import VerifyConfig, run_verification_suite
from ncwigner._suites import SUITE_NAMES
from ncwigner.cli import main
from ncwigner.oracles import format_report


@pytest.fixture(scope="module")
def suite_reports():
    """reports(*names): the seed-7 reports of the named suites, each suite
    run on first use and memoised for the rest of the module."""
    memo = {}

    def reports(*names):
        for name in names:
            if name not in memo:
                memo[name] = run_verification_suite(VerifyConfig(suites=(name,), seed=7))
        return [r for name in names for r in memo[name]]
    return reports


def _report_and_assert(criterion, reports):
    assert reports, f"{criterion}: no reports produced"
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"ACCEPTANCE {criterion} [{status}] {r.name}: "
              f"metric={r.metric:.6g} tolerance={r.tolerance:.6g}")
    failed = [r for r in reports if not r.passed]
    assert not failed, f"{criterion}: failed {[r.name for r in failed]}"


class TestAcceptance:
    def test_1_qm_sector_equivalence(self, suite_reports):
        # k2 = k3 = 0 transform vs the textbook cross transform, through the
        # documented convention map; Gaussian and first-excited states;
        # <= 1e-6 relative on a 32^2 probe grid
        _report_and_assert("1-qm-equivalence", suite_reports("qm_equivalence"))

    def test_2_marginal_identities(self, suite_reports):
        # position and momentum marginals match the scaled densities with
        # prefactor |k1 a|/sqrt|k1^2 a^2 - k2 k3 b g|, <= 1e-6, for
        # (1,-1,1), the asymmetric (2,1,-1), and (1,-1,-2)
        _report_and_assert("2-marginals", suite_reports("marginals"))

    def test_3_star_product_marginals(self, suite_reports):
        # integrating the 4D field over either conjugate pair reproduces the
        # corresponding 2D star product, <= 1e-4 absolute, 32^2 outputs,
        # two distinct generic labels
        _report_and_assert("3-star-marginals", suite_reports("star_marginals"))

    def test_4_isometry(self, suite_reports):
        # squared-norm ratio constant across 5 random rank-one operators per
        # sector (spread < 1e-4); mean stable to 1e-3 under grid doubling
        _report_and_assert("4-isometry", suite_reports("isometry"))

    def test_5_commutative_limit(self, suite_reports):
        # k2 = k3 = 4^-m, m = 0..4 (gamma = -1 keeps m = 0 off the
        # degenerate surface): strictly decreasing distances, final < 1e-3
        _report_and_assert("5-qm-limit", suite_reports("qm_limit"))

    def test_6_oracle_equivalence(self, suite_reports):
        # fast transforms vs the direct quadrature oracle at 100 random
        # probe points per sector (<= 1e-8); 4D star products vs the nested
        # quadrature oracle on 8^4 grids (<= 1e-6)
        _report_and_assert("6-oracle", suite_reports("oracle_wigner", "oracle_star"))

    def test_7_structural_invariants(self, suite_reports):
        # group associativity over 1000 random triples (<= 1e-12), both
        # representation actions unitary/homomorphic (<= 1e-10), transform
        # sesquilinearity/hermiticity (<= 1e-12) and diagonal reality
        # (<= 1e-10 of the maximum)
        _report_and_assert(
            "7-structure",
            suite_reports("group_associativity", "uir_properties", "wigner_symmetries"),
        )

    def test_8_determinism(self, tmp_path, suite_reports):
        # `verify --suite all --seed 7` once through the CLI: its report file
        # is byte-identical to the memoised in-process run of every suite
        a = tmp_path / "run1.txt"
        code1 = main(["verify", "--suite", "all", "--seed", "7", "--out", str(a)])
        reports = suite_reports(*SUITE_NAMES)
        code2 = 0 if all(r.passed for r in reports) else 1  # verify's exit code
        identical = a.read_bytes() == "".join(format_report(r) + "\n"
                                              for r in reports).encode()
        status = "PASS" if (identical and code1 == 0 and code2 == 0) else "FAIL"
        print(f"ACCEPTANCE 8-determinism [{status}] verify-all twice: "
              f"identical={identical} exit_codes=({code1},{code2})")
        assert code1 == 0 and code2 == 0
        assert identical
