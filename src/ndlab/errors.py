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
    """The worst case lies past the budget of joint time the latency oracle
    may scan, the one thing a refusal means; only a pair whose joint period
    (lcm, named in the message) exceeds the budget can be refused."""

    def __init__(self, hyperperiod: int, limit: int):
        self.hyperperiod = hyperperiod
        self.limit = limit
        super().__init__(
            f"hyperperiod {hyperperiod} ticks exceeds budget of {limit} ticks"
        )
