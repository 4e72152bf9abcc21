"""The refusal family: every exception nd-lab raises to say "no answer for
these inputs" derives from ``DomainError``, and that family is the CLI's
exit-3 contract.  ``nd-lab`` exits 3 on any ``DomainError`` and names its
class in the JSON ``error`` field, so a new refusal needs no edit there."""


class DomainError(ValueError):
    """nd-lab refuses the inputs: they lie outside the domain a formula or
    engine is valid on, or the answer lies past a budget of work."""


class InfeasibleError(DomainError):
    """The requested configuration cannot exist (e.g. effective window <= 0)."""


class NeedsFinerTicks(DomainError):
    """The requested rates are not representable at the current tick resolution."""


class MisalignedPeriods(DomainError):
    """Correlated-pair analysis requires equal periods on both devices."""


class HyperperiodTooLarge(DomainError):
    """The worst case lies past the budget of joint time the latency oracle
    may scan, the one thing a refusal means; only a pair whose joint period
    (lcm, named in the message) exceeds the budget can be refused."""

    def __init__(self, hyperperiod: int, limit: int):
        self.hyperperiod = hyperperiod
        self.limit = limit
        super().__init__(
            f"hyperperiod {hyperperiod} ticks exceeds budget of {limit} ticks"
        )
