"""Every config checks its rule table when it is built, and again when
dataclasses.replace builds a changed copy."""

from dataclasses import replace

import pytest

from eegcl import ConfigError, ModelConfig, StreamConfig, TrainConfig
from eegcl.harness import EwcConfig, MemoryConfig
from eegcl.replay import MEMORY_RULES

RULE_FIELDS = [
    *((StreamConfig, f"generator {name}", name) for name in StreamConfig.RULES),
    *((ModelConfig, f"model {name}", name) for name in ModelConfig.RULES),
    *((TrainConfig, f"train {name}", name) for name in TrainConfig.RULES),
    *((MemoryConfig, f"memory {name}", name) for name in MEMORY_RULES),
    (EwcConfig, "ewc lambda", "lam"),
]


@pytest.mark.parametrize("cls, label, name", RULE_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in RULE_FIELDS])
def test_a_config_checks_every_rule_when_built(cls, label, name):
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        cls(**{name: object()})
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        replace(cls(), **{name: object()})
