"""Deployment parameters shared by the pipeline, protocol, and CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Config:
    """Tunable parameters with the proposed deployment defaults.

    rho               samples per normalized gait cycle
    bits_per_cycle    fingerprint bits extracted per cycle (b)
    fingerprint_bits  total fingerprint length M = q * b
    cutoff            reliability cutoff N (reduced fingerprint length)
    threshold         similarity required for pairing; the code corrects
                      at most floor(n * (1 - threshold)) bit errors
    band              bandpass corner frequencies in Hz; each recording's
                      own rate bounds them when its bandpass is designed
    """

    rho: int = 40
    bits_per_cycle: int = 4
    fingerprint_bits: int = 192
    cutoff: int = 128
    threshold: float = 0.8
    band: tuple[float, float] = (0.5, 12.0)

    def __post_init__(self) -> None:
        if self.rho < 2 or self.bits_per_cycle < 1:
            raise ConfigError("rho and bits_per_cycle must be positive")
        if self.rho % self.bits_per_cycle != 0:
            raise ConfigError(
                f"bits_per_cycle={self.bits_per_cycle} must divide rho={self.rho}")
        if self.fingerprint_bits % self.bits_per_cycle != 0:
            raise ConfigError(
                f"bits_per_cycle={self.bits_per_cycle} must divide "
                f"fingerprint_bits={self.fingerprint_bits}")
        if not 0 < self.cutoff <= self.fingerprint_bits:
            raise ConfigError(
                f"cutoff={self.cutoff} outside 1..fingerprint_bits={self.fingerprint_bits}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie strictly between 0 and 1")
        lo, hi = self.band
        if not 0.0 < lo < hi:
            raise ConfigError(f"band {self.band} needs 0 < lo < hi")

    @property
    def cycles_per_fingerprint(self) -> int:
        """Number of gait cycles q needed for one fingerprint."""
        return self.fingerprint_bits // self.bits_per_cycle
