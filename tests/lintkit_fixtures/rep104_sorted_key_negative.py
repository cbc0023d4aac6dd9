# lint-as: src/repro/optim/order.py
"""REP104 fixture: sorts that impose a total order, or start from a sequence."""


def switch_off_order(links, power):
    active = set(links)
    total = sorted(active)
    by_power = sorted(total, key=lambda key: power[key], reverse=True)
    return by_power + sorted(list(links), key=lambda key: (-power[key], key))
