"""The closed-form entangler stack against the Gram-Schmidt reference.

``attack.build_entanglers`` writes E down in closed form; the reference,
``scalar_reference._build_entangler``, completes E's pinned columns to a
basis by Gram-Schmidt, one spec at a time, in a forward and a reversed
order. The package's E agrees with both where E is pinned, on
|eps> (x) C^2, and differs elsewhere, where the completion is free. So
every observable must agree: a seeded campaign of the package's adversary,
which runs on E's block, and of the earlier whole-E adversary
(``kernel_reference.ReferenceAdversary``) given the reference's E give the
same integer columns and floats within 1e-12, and the exact trace distances
of their specs, from the package's block kernel, agree within 1e-12 with the
earlier whole-E kernel run on the reference's operators.
"""
import dataclasses

import numpy as np
import pytest

import kernel_reference as ref
import test_engine_equivalence as golden
from qsslab.analysis import THETA_SAMPLES, indistinguishability
from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entangler,
    random_entangler_spec,
)
from qsslab.protocol import ProtocolConfig, run_protocol_batch

from scalar_reference import _build_entangler, entangler_distances, spec_arrays

TOL = 1e-12


def pinned(entangler: np.ndarray, spec: EntanglerSpec) -> np.ndarray:
    """E's columns on |eps> (x) |0> and |eps> (x) |1>, shape (2d, 2)."""
    return entangler @ np.kron(spec.epsilon.amps[:, None], np.eye(2))


@pytest.mark.parametrize("completion", ["forward", "reversed"])
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_pinned_columns_match_reference(dim, completion):
    rng = np.random.default_rng(100 + dim)
    for _ in range(50):
        spec = random_entangler_spec(rng, dim)
        got = pinned(build_entangler(spec), spec)
        want = pinned(_build_entangler(spec, completion), spec)
        assert np.max(np.abs(got - want)) <= TOL


def random_general_cases(n: int = 24) -> list[dict]:
    """Random general specs, d = 2/4/8 in turn, run adaptively and naively."""
    return [
        golden._case(f"random-{i}", {"kind": "random", "seed": 500 + i, "dim": (2, 4, 8)[i % 3]},
                     adaptive=i % 4 != 3, num_agents=2 + i % 3, message_length=12,
                     num_second_checks=2, seed=600 + i)
        for i in range(n)
    ]


CASES = golden.CASES + random_general_cases()


def campaign(case: dict, reference: bool = False):
    """Three seeded trials of ``case`` as one batch, its spec, and a
    campaign's report angles; with ``reference``, run by the whole-E
    adversary on the reference-built E."""
    proto = dict(case["protocol"])
    if proto.get("message_bits") is not None:
        proto["message_bits"] = tuple(proto["message_bits"])
    config = ProtocolConfig(**proto)
    spec = golden._spec(golden._resolve_attack(case["attack"]))
    rule = GuessRule(*case["rule"])

    def adversary(rngs):
        if reference:
            return ref.ReferenceAdversary(spec, rngs, rule, case["adaptive"],
                                          _build_entangler(spec, "forward"))
        return EntanglingAdversary(spec, rngs, rule, adaptive=case["adaptive"])

    batch = run_protocol_batch(config, [config.seed + k for k in range(3)], adversary)
    thetas = np.random.default_rng(config.seed).uniform(0.0, 2 * np.pi, THETA_SAMPLES)
    return batch, spec, thetas


@pytest.mark.parametrize("case", [c for c in CASES if c["attack"] is not None],
                         ids=lambda c: c["name"])
def test_campaigns_match_with_either_builder(case):
    batch, spec, thetas = campaign(case)
    ref_batch = campaign(case, reference=True)[0]
    for field in dataclasses.fields(batch):
        got, want = getattr(batch, field.name), getattr(ref_batch, field.name)
        if isinstance(got, np.ndarray) and got.dtype.kind == "f":
            assert got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= TOL
        elif isinstance(got, np.ndarray):
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name
    fields = spec_arrays([spec])
    ref_tds = entangler_distances(fields[0], fields[1], _build_entangler(spec, "forward")[None],
                                  thetas[None])
    assert np.max(np.abs(indistinguishability([spec], thetas) - ref_tds)) <= TOL


def test_cases_cover_golden_skewed_and_random_specs():
    names = [c["name"] for c in CASES if c["attack"] is not None]
    assert "qgwz-skewed-campaign" in names and "general-d8" in names
    assert sum(name.startswith("random-") for name in names) >= 20
