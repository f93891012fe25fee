"""Cooling-model tests and their shared helper."""


def max_heat_w(circuit, allowed_rise_k: float) -> float:
    """Heat ``circuit`` removes within an allowed junction temperature rise."""
    if allowed_rise_k <= 0:
        raise ValueError("allowed rise must be positive")
    return allowed_rise_k / circuit.total_k_w
