"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input lies outside the domain a formula is valid on."""


class InfeasibleError(ValueError):
    """The requested configuration cannot exist (e.g. effective window <= 0)."""


class NeedsFinerTicks(ValueError):
    """The requested rates are not representable at the current tick resolution."""


class MisalignedPeriods(ValueError):
    """Correlated-pair analysis requires equal periods on both devices."""


class HyperperiodTooLarge(RuntimeError):
    """A latency sweep would have to look further than its budget of joint
    time; that only happens when the joint period (lcm) exceeds the budget."""

    def __init__(self, hyperperiod: int, limit: int):
        self.hyperperiod = hyperperiod
        self.limit = limit
        super().__init__(
            f"hyperperiod {hyperperiod} ticks exceeds budget of {limit} ticks"
        )
