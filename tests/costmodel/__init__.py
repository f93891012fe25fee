"""Cost-model tests and their shared helper."""


def cost_of(bill, component):
    """Hardware cost of one component group of ``bill`` (0 if absent)."""
    spec = bill.components.get(component)
    return spec.cost_usd if spec is not None else 0.0
