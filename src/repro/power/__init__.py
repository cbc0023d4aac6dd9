"""Power models and network-wide power accounting."""

from .accounting import (
    PowerBreakdown,
    full_power,
    network_power,
)
from .alternative import CHASSIS_REDUCTION_FACTOR, AlternativeHardwarePowerModel
from .cisco import (
    AMPLIFIER_POWER_W,
    CISCO_CHASSIS_POWER_W,
    CiscoRouterPowerModel,
    line_card_power_for_capacity,
)
from .commodity import CommoditySwitchPowerModel
from .model import PowerModel

__all__ = [
    "PowerBreakdown",
    "full_power",
    "network_power",
    "AlternativeHardwarePowerModel",
    "CHASSIS_REDUCTION_FACTOR",
    "AMPLIFIER_POWER_W",
    "CISCO_CHASSIS_POWER_W",
    "CiscoRouterPowerModel",
    "line_card_power_for_capacity",
    "CommoditySwitchPowerModel",
    "PowerModel",
]
