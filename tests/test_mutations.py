"""Every verification route can fail: a corrupted generator image or
representation matrix must show up as nonzero residuals on the relations
it breaks, so a route that passes vacuously would be caught here."""

import dataclasses

import qgl21.scalars as sc
from qgl21 import induced as ind
from qgl21 import realization as rz


def _failed(results):
    return {r.name for r in results if not r.passed}


# -- the fermionic E23 image with its sign flipped ------------------------------

E23_SIGN_BREAKS = {
    "{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)",
    "E13 = E12 E23 - q^-1 E23 E12",
}


def _flip_e23_image(monkeypatch):
    images = dict(rz.realization_map("fermionic").images)
    images["E23"] = -images["E23"]
    monkeypatch.setitem(rz._IMAGE_CACHE, "fermionic",
                        rz.RealizationMap("fermionic", images))


def test_w_route_catches_flipped_e23(monkeypatch):
    _flip_e23_image(monkeypatch)
    assert _failed(rz.verify_realization("fermionic")) == E23_SIGN_BREAKS


def test_fock_route_catches_flipped_e23(monkeypatch):
    _flip_e23_image(monkeypatch)
    assert _failed(rz.check_relations_on_fock("fermionic", 6)) \
        == E23_SIGN_BREAKS


def test_flipped_e23_is_undone_after_the_test():
    assert not _failed(rz.verify_realization("fermionic"))


# -- K2 doubled in the fermionic A0 representation ----------------------------------

CARTAN_23 = "{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)"


def _doubled_k2_rep():
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    mats = dict(rep.mats, K2=rep.mats["K2"].scale(sc.QScalar.from_rational(2)))
    return dataclasses.replace(rep, mats=mats)


def test_a0_matrix_route_catches_doubled_k2():
    assert _failed(ind.validate_a0rep(_doubled_k2_rep())) \
        == {"K2 K2^-1 = 1", CARTAN_23}


def test_module_route_catches_doubled_k2():
    # E32 and E31 act through K2 K3 on the module, so two more relations break
    assert _failed(ind.check_relations_on_module(_doubled_k2_rep(), 4)) == {
        "K2 K2^-1 = 1", CARTAN_23, "E21 E31 = q E31 E21",
        "E31 = -E21 E32 + q^-1 E32 E21"}
