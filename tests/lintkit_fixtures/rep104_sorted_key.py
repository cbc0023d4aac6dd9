# lint-as: src/repro/optim/order.py
"""REP104 fixture: a keyed sort of a set leaves tied elements in set order."""


def switch_off_order(links, power):
    active = set(links)
    for key in list(links):
        candidate = active - {key}
        active = candidate
    by_power = sorted(active, key=lambda key: power[key], reverse=True)  # expect: REP104
    return by_power + sorted({"a", "b"} | set(links), key=len)  # expect: REP104
