"""Free parameters of the analytical model and the simulator.

The paper's validation study (Section 4) fixes the channel timing to

* network bandwidth ``500`` bytes per time unit (``beta_net = 0.002``),
* network latency ``alpha_net = 0.02`` time units,
* switch latency ``alpha_sw = 0.01`` time units,

and sweeps the message geometry (``M = 32`` or ``64`` flits of ``L_m = 256``
or ``512`` bytes) and the offered traffic ``lambda_g`` (messages per node per
time unit).  :data:`PAPER_TIMING` captures the fixed part;
:class:`ModelParameters` bundles everything one evaluation of the model (or
one simulation run) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Tuple

from repro.topology.multicluster import MultiClusterSpec
from repro.utils.units import LinkTiming, bandwidth_to_beta
from repro.utils.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class TimingParameters:
    """Channel timing shared by every network of the system.

    Attributes
    ----------
    alpha_net:
        Network interface latency (node-switch channels), time units.
    alpha_sw:
        Switch latency (switch-switch channels), time units.
    bandwidth:
        Channel bandwidth in bytes per time unit; ``beta_net`` (the per-byte
        transmission time of Eq. 14-15) is its inverse.
    """

    alpha_net: float = 0.02
    alpha_sw: float = 0.01
    bandwidth: float = 500.0

    def __post_init__(self) -> None:
        check_positive(self.alpha_net, "alpha_net")
        check_positive(self.alpha_sw, "alpha_sw")
        check_positive(self.bandwidth, "bandwidth")

    @property
    def beta_net(self) -> float:
        """Transmission time of one byte (inverse bandwidth)."""
        return bandwidth_to_beta(self.bandwidth)

    def link_timing(self, flit_bytes: int) -> LinkTiming:
        """The per-flit channel times ``t_cn`` / ``t_cs`` for a flit size."""
        return LinkTiming(
            alpha_net=self.alpha_net,
            alpha_sw=self.alpha_sw,
            beta_net=self.beta_net,
            flit_bytes=flit_bytes,
        )


#: The timing used throughout the paper's validation study.
PAPER_TIMING = TimingParameters(alpha_net=0.02, alpha_sw=0.01, bandwidth=500.0)


@dataclass(frozen=True)
class MessageSpec:
    """Message geometry: ``M`` flits of ``L_m`` bytes each (assumption 5)."""

    length_flits: int = 32
    flit_bytes: int = 256

    def __post_init__(self) -> None:
        check_positive_int(self.length_flits, "length_flits")
        check_positive_int(self.flit_bytes, "flit_bytes")

    @property
    def total_bytes(self) -> int:
        """Payload carried by one message."""
        return self.length_flits * self.flit_bytes

    def describe(self) -> str:
        return f"M={self.length_flits} flits, Lm={self.flit_bytes} bytes"


#: The four message geometries of Fig. 3 / Fig. 4.
PAPER_MESSAGE_SPECS: Tuple[MessageSpec, ...] = (
    MessageSpec(length_flits=32, flit_bytes=256),
    MessageSpec(length_flits=32, flit_bytes=512),
    MessageSpec(length_flits=64, flit_bytes=256),
    MessageSpec(length_flits=64, flit_bytes=512),
)


@dataclass(frozen=True)
class ModelParameters:
    """Everything one model evaluation needs.

    Attributes
    ----------
    spec:
        The multi-cluster organisation (Table 1 rows are provided by
        :mod:`repro.experiments.configs`).
    message:
        Message geometry.
    timing:
        Channel timing; defaults to the paper's values.
    lambda_g:
        Offered traffic: mean message generation rate per node per time unit
        (assumption 1).  ``0`` is allowed and yields the zero-load latency.
    variance_approximation:
        How the source-queue service-time variance is approximated:
        ``"draper-ghosh"`` is the paper's Eq. 22; ``"zero"`` treats the
        service time as deterministic (the ablation of
        :func:`repro.experiments.ablation.variance_ablation`).
    """

    spec: MultiClusterSpec
    message: MessageSpec = MessageSpec()
    timing: TimingParameters = PAPER_TIMING
    lambda_g: float = 0.0
    variance_approximation: str = "draper-ghosh"

    def __post_init__(self) -> None:
        check_non_negative(self.lambda_g, "lambda_g")
        if self.variance_approximation not in ("draper-ghosh", "zero"):
            raise ValidationError(
                "variance_approximation must be 'draper-ghosh' or 'zero', "
                f"got {self.variance_approximation!r}"
            )

    @property
    def link_timing(self) -> LinkTiming:
        """``t_cn`` / ``t_cs`` for this flit size (Eq. 14-15)."""
        return self.timing.link_timing(self.message.flit_bytes)

    @property
    def t_cn(self) -> float:
        """Node-switch channel time of one flit (Eq. 14)."""
        return self.link_timing.t_cn

    @property
    def t_cs(self) -> float:
        """Switch-switch channel time of one flit (Eq. 15)."""
        return self.link_timing.t_cs

    @property
    def message_length(self) -> int:
        """``M``, the message length in flits."""
        return self.message.length_flits

    def with_traffic(self, lambda_g: float) -> "ModelParameters":
        """A copy of these parameters at a different offered traffic."""
        return replace(self, lambda_g=lambda_g)

    def with_message(self, message: MessageSpec) -> "ModelParameters":
        """A copy of these parameters with a different message geometry."""
        return replace(self, message=message)

    def sweep(self, lambdas: Iterable[float]) -> Tuple["ModelParameters", ...]:
        """One parameter set per offered-traffic value (for latency curves)."""
        return tuple(self.with_traffic(value) for value in lambdas)
