"""The typed errors of public calls that no other test reaches: mismatched
sizes, a zero 2d window, a phase with no provenance, a malformed matrix,
phase spec or regime."""

import numpy as np
import pytest

import gaborfio as gf

C16, C32 = gf.ModelConfig(L=16), gf.ModelConfig(L=32)


@pytest.mark.parametrize("call,error,message", [
    (lambda: gf.gabor_matrix(gf.identity_operator(C16), gf.build_frame(
        gf.periodized_gaussian(C32), gf.default_lattice(C32))),
     gf.ModelError, "operator/frame size mismatch"),
    (lambda: gf.symbol_class_norm(gf.symbol_ones(C16), 2.0,
                                  window2d=gf.SymbolGrid(np.zeros((16, 16)), C16)),
     gf.ModelError, "zero 2d window"),
    (lambda: gf.fio_type1(gf.quadratic_phase(C16, 0, 1, 0), gf.symbol_ones(C32)),
     gf.ModelError, "phase/symbol size mismatch"),
    (lambda: gf.fio_type2(gf.quadratic_phase(C16, 0, 1, 0), gf.symbol_ones(C32)),
     gf.ModelError, "phase/symbol size mismatch"),
    (lambda: gf.compose(gf.identity_operator(C16), gf.identity_operator(C32)),
     gf.ModelError, "operator size mismatch"),
    (lambda: gf.DiscretePhase(np.zeros((16, 16)), C16).canonical_map(),
     gf.ModelError, "phase has no canonical-map provenance"),
    (lambda: gf.SymplecticMatrix(np.eye(3)), gf.ModelError, "must be 2x2"),
    (lambda: gf.tame_phase("sine:0.2:8:8:8"),
     gf.ModelError, "sine phase takes at most eps:px:pe"),
    (lambda: gf.ModelConfig(L=16, regime="C"), gf.ModelError, "unknown regime 'C'"),
    (lambda: gf.stft(gf.delta(C16), gf.periodized_gaussian(C32)),
     gf.ModelError, "signal/window length mismatch"),
], ids=["gabor-columns", "zero-window", "fio1", "fio2", "compose", "provenance",
        "symplectic-shape", "sine-spec", "regime", "stft"])
def test_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
