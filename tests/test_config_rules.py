"""Every config checks its rule table when it is built, and again when
dataclasses.replace builds a changed copy."""

from dataclasses import replace
from functools import partial

import pytest

from eegcl import ConfigError, ModelConfig, StreamConfig, TrainConfig
from eegcl.harness import MemoryConfig, Strategy
from eegcl.replay import MEMORY_RULES

# Strategy has no default kind; SFT stands in for one.
SFT = partial(Strategy, kind="SFT")

RULE_FIELDS = [
    *((StreamConfig, f"generator {name}", name) for name in StreamConfig.RULES),
    *((ModelConfig, f"model {name}", name) for name in ModelConfig.RULES),
    *((TrainConfig, f"train {name}", name) for name in TrainConfig.RULES),
    *((MemoryConfig, f"memory {name}", name) for name in MEMORY_RULES),
    (SFT, "strategy kind", "kind"),
    (SFT, "ewc lambda", "lam"),
]


@pytest.mark.parametrize("cls, label, name", RULE_FIELDS,
                         ids=[f"{getattr(cls, 'func', cls).__name__}.{name}"
                              for cls, _, name in RULE_FIELDS])
def test_a_config_checks_every_rule_when_built(cls, label, name):
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        cls(**{name: object()})
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        replace(cls(), **{name: object()})


@pytest.mark.parametrize("memory", [{"capacity": 3}, None, (160, 10, "class_balanced")],
                         ids=["dict", "none", "tuple"])
def test_strategy_memory_must_be_a_memory_config(memory):
    with pytest.raises(ConfigError, match="^strategy memory must be a MemoryConfig, got "):
        Strategy("ER", memory=memory)
    with pytest.raises(ConfigError, match="^strategy memory must be a MemoryConfig, got "):
        replace(Strategy("ER"), memory=memory)


def test_model_hidden_from_a_json_list_equals_the_default():
    config = ModelConfig(hidden=[32])
    assert config.hidden == (32,)
    assert config == ModelConfig() and hash(config) == hash(ModelConfig())
    assert replace(ModelConfig(), hidden=[16, 8]).hidden == (16, 8)
