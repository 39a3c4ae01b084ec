"""The five bundled simulation scenarios by CLI name and description.

Kept apart from ``simulate``, which holds their recipes, so the command
line can list the names without loading the generators.
"""

from enum import Enum

from .errors import BadArguments


class Scenario(Enum):
    """The five bundled generative recipes; values are the CLI names."""

    ALL_LINEAR = "all-linear"
    LINEAR_COMBO = "linear-combo"
    INDEPENDENT = "independent"
    NOISY_COMBO = "noisy-combo"
    CHAINED = "chained"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]

    @classmethod
    def from_cli_name(cls, name: str) -> "Scenario":
        for member in cls:
            if member.value == name:
                return member
        known = ", ".join(m.value for m in cls)
        raise BadArguments(f"unknown scenario {name!r} (known: {known})")


_DESCRIPTIONS = {
    Scenario.ALL_LINEAR: "two variables are exact linear functions of the third",
    Scenario.LINEAR_COMBO: "one variable is an exact linear combination of the other two",
    Scenario.INDEPENDENT: "three mutually independent uniforms",
    Scenario.NOISY_COMBO: "one variable is a noisy linear combination of the other two",
    Scenario.CHAINED: "a noisy chain: y follows x, z follows x and y",
}
