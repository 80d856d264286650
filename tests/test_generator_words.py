from math import gcd

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.cli import parse_operator
from test_operators import intertwining_deviation

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


def letters(L):
    """Word letters over dft, chirp:c with |c| <= 4 and dilate:u, u a unit mod L."""
    units = [u for u in range(-L, L) if gcd(u % L, L) == 1]
    return st.one_of(st.just(("dft",)),
                     st.tuples(st.just("chirp"), st.integers(-4, 4)),
                     st.tuples(st.just("dilate"), st.sampled_from(units)))


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([16, 32]).flatmap(
    lambda L: st.tuples(st.just(L), st.lists(letters(L), max_size=6))))
def test_operator_spec_and_word_agree(L_word):
    # the CLI spec "g1*g2*..." and MetaplecticWord read the same generator
    # table: same unitary, same map mod L, and the exact intertwining
    L, gens = L_word
    cfg = gf.ModelConfig(L=L)
    spec = "*".join(":".join(map(str, g)) for g in gens) or "identity"
    T, chi, _ = parse_operator(spec, cfg)
    word = gf.MetaplecticWord(tuple(gens), cfg)
    U, _ = gf.metaplectic(word)
    assert np.linalg.norm(T.entries - U.entries) <= 1e-12 * np.linalg.norm(U.entries)
    A = word.matrix_modL()
    assert not ((chi.matrix - A) % L).any()
    assert intertwining_deviation(U, A, cfg) <= 1e-10

