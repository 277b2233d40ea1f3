"""The package's public names, and how its types compare."""

import importlib
import pkgutil
from dataclasses import replace

import smoothent
from smoothent import (
    AucReport,
    ConditionalDataset,
    EstimatorConfig,
    IsotropicMixture,
    JointDataset,
    SampleMatrix,
    conditional_mi,
    joint_mi,
    substream,
)


def test_every_exported_name_resolves():
    modules = [smoothent] + [
        importlib.import_module(f"smoothent.{info.name}")
        for info in pkgutil.iter_modules(smoothent.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_array_holding_types_compare_by_identity():
    config = EstimatorConfig(sigma=0.5, target_dim=1, n_mc=5, seed=1)
    x, y = (SampleMatrix(substream(2, k).standard_normal((3, 40))) for k in range(2))
    pairs = JointDataset(x=x, y=y)
    groups = ConditionalDataset(conditions=(0, 1), samples=(x, y))
    estimate = joint_mi(pairs, config)
    result = estimate.components["x"]
    held = [
        x,
        result.pca,
        result,
        IsotropicMixture(x, 0.5),
        groups,
        pairs,
        estimate,
        conditional_mi(groups, config),
        AucReport(0.5, 0.5, ({"a": 1},)),
    ]
    for value in held:
        twin = replace(value)
        assert value == value and value != twin, type(value)
        assert len({value, twin, value}) == 2, type(value)
    # the array-free types still compare by value
    assert replace(config) == config and hash(replace(config)) == hash(config)
    assert replace(result.plugin) == result.plugin
