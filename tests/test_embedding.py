"""Embedding layer: layout, round trips, rounding, categorical snapping."""

import numpy as np
import pytest

from moso_kit.embedding import build_plan, embed, extract
from moso_kit.problem import CustomEmbedder, DesignVariable

from helpers import check_round_trip_and_exclusivity


def mixed_reactor_vars():
    return (
        DesignVariable("temperature", "continuous", lower=35.0, upper=150.0),
        DesignVariable("reaction_time", "continuous", lower=60.0, upper=300.0),
        DesignVariable("equivalence_ratio", "continuous", lower=0.8, upper=1.5),
        DesignVariable("solvent", "categorical", levels=("S1", "S2")),
        DesignVariable("base", "categorical", levels=("B1", "B2")),
    )


def test_joint_categorical_block_dimension():
    # two 2-level categorical variables embed jointly: 4 combos -> 3 dims
    plan = build_plan(mixed_reactor_vars())
    assert plan.combo_count == 4
    assert plan.latent_dim == 3 + 3


def test_combo_zero_is_all_zeros_vertex():
    plan = build_plan(mixed_reactor_vars())
    z = embed(plan, {"temperature": 35.0, "reaction_time": 60.0,
                     "equivalence_ratio": 0.8, "solvent": "S1", "base": "B1"})
    assert np.array_equal(z, np.zeros(6))


def test_combo_indexing_is_row_major():
    plan = build_plan(mixed_reactor_vars())
    base = {"temperature": 35.0, "reaction_time": 60.0, "equivalence_ratio": 0.8}
    # (solvent, base) in declaration order: (S1,B2)->1, (S2,B1)->2, (S2,B2)->3
    for combo, expected in [
        (("S1", "B2"), [1.0, 0.0, 0.0]),
        (("S2", "B1"), [0.0, 1.0, 0.0]),
        (("S2", "B2"), [0.0, 0.0, 1.0]),
    ]:
        z = embed(plan, dict(base, solvent=combo[0], base=combo[1]))
        assert z[3:].tolist() == expected


def test_continuous_rescale_midpoint():
    plan = build_plan(mixed_reactor_vars())
    z = embed(plan, {"temperature": 92.5, "reaction_time": 180.0,
                     "equivalence_ratio": 1.15, "solvent": "S1", "base": "B1"})
    assert np.allclose(z[:3], 0.5)


def test_categorical_snap_to_nearest_vertex():
    plan = build_plan(mixed_reactor_vars())
    z = np.array([0.5, 0.5, 0.5, 0.6, 0.1, 0.2])
    x = extract(plan, z)
    # nearest vertex is e_1 -> combination index 1 -> (S1, B2)
    assert (x["solvent"], x["base"]) == ("S1", "B2")


def test_categorical_snap_tie_prefers_lowest_combo():
    plan = build_plan(mixed_reactor_vars())
    # equidistant between the origin (combo 0) and e_1 (combo 1)
    z = np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
    x = extract(plan, z)
    assert (x["solvent"], x["base"]) == ("S1", "B1")


def test_integer_rounds_half_away_from_zero():
    plan = build_plan((DesignVariable("k", "integer", lower=-2, upper=2),))
    # latent 0.625 -> raw -2 + 0.625*4 = 0.5 -> rounds to 1
    assert extract(plan, np.array([0.625]))["k"] == 1
    # latent 0.375 -> raw -0.5 -> rounds away from zero to -1
    assert extract(plan, np.array([0.375]))["k"] == -1


def test_integer_round_trip_all_values():
    plan = build_plan((DesignVariable("k", "integer", lower=-3, upper=7),))
    for k in range(-3, 8):
        z = embed(plan, {"k": k})
        assert extract(plan, z)["k"] == k


def test_out_of_cube_coordinates_clamp_with_warning(caplog):
    plan = build_plan((DesignVariable("u", "continuous", lower=0.0, upper=1.0),))
    with caplog.at_level("WARNING"):
        x = extract(plan, np.array([1.5]))
    assert x["u"] == 1.0
    assert any("clamped" in r.message for r in caplog.records)


def test_tiny_excursions_clamp_silently(caplog):
    plan = build_plan((DesignVariable("u", "continuous", lower=0.0, upper=1.0),))
    with caplog.at_level("WARNING"):
        x = extract(plan, np.array([1.0 + 1e-12]))
    assert x["u"] == 1.0
    assert not caplog.records


def test_embed_rejects_out_of_bounds_value():
    plan = build_plan((DesignVariable("u", "continuous", lower=0.0, upper=1.0),))
    with pytest.raises(ValueError):
        embed(plan, {"u": 1.5})


def test_embed_rejects_unknown_level():
    plan = build_plan((DesignVariable("c", "categorical", levels=("a", "b")),))
    with pytest.raises(ValueError):
        embed(plan, {"c": "z"})


def test_extract_rejects_wrong_shape():
    plan = build_plan(mixed_reactor_vars())
    with pytest.raises(ValueError):
        extract(plan, np.zeros(4))


def test_custom_embedder_block():
    def to_latent(value):
        return np.array([value / 10.0, value / 20.0])

    def from_latent(block):
        return float(block[0] * 10.0)

    emb = CustomEmbedder(width=2, to_latent=to_latent, from_latent=from_latent)
    plan = build_plan((
        DesignVariable("w", "custom", embedder=emb),
        DesignVariable("c", "categorical", levels=("a", "b")),
    ))
    assert plan.latent_dim == 3
    z = embed(plan, {"w": 5.0, "c": "b"})
    assert np.allclose(z, [0.5, 0.25, 1.0])
    x = extract(plan, z)
    assert x["w"] == 5.0 and x["c"] == "b"


def test_round_trip_and_exclusivity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        check_round_trip_and_exclusivity(rng)


def test_extract_clamps_like_clipping_the_latent_point():
    plan = build_plan((DesignVariable("u", "continuous", lower=-2.0, upper=3.0),
                       DesignVariable("k", "integer", lower=-3, upper=7),
                       DesignVariable("c", "categorical", levels=("a", "b", "c"))))
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.uniform(-0.2, 1.2, plan.latent_dim)
        clipped = np.clip(z, 0.0, 1.0)
        assert extract(plan, z) == extract(plan, clipped)
        assert extract(plan, z)["u"] == min(max(-2.0 + clipped[0] * 5.0, -2.0), 3.0)
