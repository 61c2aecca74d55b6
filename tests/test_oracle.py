"""Tests for the brute-force reference."""

import pytest

from addbasis.core import basis_range
from addbasis.enumeration import EnumSpec, enumerate_admissible
from addbasis.oracle import OracleLimitError, all_admissible, brute_force, format_result


class TestAllAdmissible:
    def test_degenerate(self):
        assert list(all_admissible(0)) == [(0,)]

    def test_small(self):
        assert list(all_admissible(1)) == [(0, 1)]
        assert list(all_admissible(2)) == [(0, 1, 2), (0, 1, 3)]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_agrees_with_the_production_counter(self, k):
        out = list(all_admissible(k))
        assert out == list(enumerate_admissible(EnumSpec(k)))
        assert out == sorted(out)
        assert all(basis_range(b) >= b[-1] for b in out)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            list(all_admissible(-1))


class TestBruteForce:
    def test_degenerate(self):
        res = brute_force(0)
        assert res.n2 == 0 and res.extremal == ((0,),)
        assert res.n2_restricted == 0 and res.extremal_restricted == ((0,),)

    def test_k3(self):
        res = brute_force(3)
        assert res.n2 == 8
        assert res.extremal == ((0, 1, 3, 4),)
        assert res.n2_restricted == 8
        assert res.extremal_restricted == ((0, 1, 3, 4),)

    def test_k4(self):
        res = brute_force(4)
        assert res.n2 == 12
        assert res.extremal == ((0, 1, 3, 5, 6),)

    def test_k6_has_two_restricted_extremal_bases(self, restricted_fixtures):
        res = brute_force(6)
        assert res.n2 == 20 and res.n2_restricted == 20
        assert len(res.extremal) == 5
        expected = {f.basis for f in restricted_fixtures[6]}
        assert set(res.extremal_restricted) == expected
        assert expected <= set(res.extremal)

    def test_every_reported_basis_is_extremal(self):
        res = brute_force(5)
        assert all(basis_range(b) == res.n2 for b in res.extremal)
        assert all(
            basis_range(b) == res.n2_restricted == 2 * b[-1]
            for b in res.extremal_restricted
        )

    def test_limit_guard(self):
        with pytest.raises(OracleLimitError, match="limit"):
            brute_force(11)
        with pytest.raises(OracleLimitError):
            brute_force(5, limit=4)
        assert brute_force(5, limit=5).n2 == 16


class TestFormat:
    def test_sections(self):
        text = format_result(brute_force(3))
        assert "# n2=8" in text
        assert "# n2_restricted=8" in text
        assert "# extremal_count=1" in text
        assert text.count("0 1 3 4") == 2
