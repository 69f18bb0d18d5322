import pytest

from schurdefect import catalog
from schurdefect.algebra import check_jacobi, direct_sum
from schurdefect.errors import CatalogError
from schurdefect.fields import GF, QQ
from schurdefect.invariants import center, report, t_invariant
from schurdefect.verification import param_values, table1_failures


def test_every_entry_passes_jacobi_over_admissible_fields():
    built = 0
    for field in (QQ, GF(2), GF(3), GF(5)):
        for entry in catalog.list_all(field):
            for value in param_values(entry, field):
                L = catalog.get(entry.key, field, value)  # validates Jacobi
                assert check_jacobi(L) == []
                built += 1
    assert built >= 45


def test_table1_agreement():
    checked, failures = table1_failures(fields=(QQ, GF(2), GF(3), GF(5)))
    assert failures == []
    assert checked >= 59


def test_l6_is_l5_plus_abelian():
    for k in (3, 5, 6, 7, 8, 9):
        l5 = catalog.get(f"L5_{k}", QQ)
        l6 = catalog.get(f"L6_{k}", QQ)
        built = direct_sum(l5, catalog.abelian(QQ, 1))
        assert built.brackets == l6.brackets
        assert report(built) == report(l6)


def test_param_rows_do_not_depend_on_epsilon():
    for key in ("L6_19", "L6_21"):
        rows = set()
        for eps in (1, 2, -1):
            rep = report(catalog.get(key, QQ, eps))
            rows.add((rep.dim - rep.dim_center, rep.d_central_quotient,
                      rep.dim_derived))
        assert rows == {catalog.entry(key).expected_row}
    for key in ("L6_22", "L6_24"):
        rows = set()
        for eps in (0, 1, 2, -1):
            rep = report(catalog.get(key, QQ, eps))
            rows.add((rep.dim - rep.dim_center, rep.d_central_quotient,
                      rep.dim_derived))
        assert rows == {catalog.entry(key).expected_row}


def test_get_errors():
    with pytest.raises(CatalogError):
        catalog.get("L9_99", QQ)
    with pytest.raises(CatalogError):
        catalog.get("L6_19", QQ)  # missing parameter
    with pytest.raises(CatalogError):
        catalog.get("L4_3", QQ, 1)  # unexpected parameter
    with pytest.raises(CatalogError):
        catalog.get("L6_19", QQ, 0)  # epsilon must be a unit
    with pytest.raises(CatalogError):
        catalog.get("L2_6_1", QQ)  # characteristic gate
    with pytest.raises(CatalogError):
        catalog.get("L6_14", GF(2))  # char != 2 list is not served over GF(2)
    with pytest.raises(CatalogError):
        catalog.heisenberg(QQ, 0)
    with pytest.raises(CatalogError):
        catalog.filiform(QQ, 0)
    with pytest.raises(CatalogError):
        catalog.abelian(QQ, -1)


def test_family_keys_via_get():
    assert catalog.get("A4", QQ).dim == 4
    assert catalog.get("H3", GF(3)).dim == 7
    assert catalog.get("F2", QQ).dim == 5
    assert catalog.is_family_key("A0")
    assert not catalog.is_family_key("L5_6")


def test_family_keys_take_canonical_decimal_indices():
    # an index of more digits than MAX_DIM is refused before int() reads
    # it, and a leading zero makes an unknown key
    for key in ("F" + "1" * 5000, "A" + "9" * 4301):
        with pytest.raises(CatalogError, match="MAX_DIM"):
            catalog.get(key, QQ)
    for key in ("H" + "0" * 5000, "A0001"):
        with pytest.raises(CatalogError, match="unknown catalog key"):
            catalog.get(key, QQ)
        assert not catalog.is_family_key(key)


def test_gf2_listing_pairs_char2_families():
    keys = {e.key for e in catalog.list_all(GF(2))}
    assert {"L2_6_1", "L2_6_7"} <= keys
    assert not any(k.startswith("L6_") for k in keys)
    assert {"L4_3", "L5_6"} <= keys  # the dim <= 5 list has no char constraint
    keys_q = {e.key for e in catalog.list_all(QQ)}
    assert not any(k.startswith("L2_") for k in keys_q)
    assert len(keys_q) == 32


def test_l5_6_bracket_resolution():
    # the L5_6 presentation includes [x2,x3] = x5
    L = catalog.get("L5_6", QQ)
    assert L.brackets[(2, 3)] == {5: QQ.one}


def test_heisenberg_structure():
    H1 = catalog.heisenberg(QQ, 1)
    rep = report(H1)
    assert (rep.dim, rep.dim_derived, rep.dim_center) == (3, 1, 1)
    assert t_invariant(catalog.heisenberg(QQ, 2)) == 0  # 4*1 - 4
    assert catalog.abelian(QQ, 0).dim == 0


def test_filiform_structure():
    assert report(catalog.filiform(QQ, 1)) == report(catalog.get("L4_3", QQ))
    assert report(catalog.filiform(QQ, 2)) == report(catalog.get("L5_7", QQ))
    F50 = catalog.filiform(QQ, 50)
    assert t_invariant(F50) == 50
    z = center(F50)
    assert z.dim == 1
    assert z.basis[0][-1] == QQ.one  # Z = <s_{t+2}>, the last basis vector


def test_default_params():
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            assert L.dim == entry.dim
