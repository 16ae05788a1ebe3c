"""OFDM frame numerology and derived timing quantities."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import SPEED_OF_LIGHT, _json_value


@dataclass(frozen=True)
class OfdmNumerology:
    """Grid dimensions and timing of one OFDM frame.

    Attributes:
        n_subcarriers: number of subcarriers N.
        n_symbols: number of OFDM symbols M in the frame.
        subcarrier_spacing_hz: subcarrier spacing [Hz].
        cp_duration_s: cyclic prefix duration [s] (zero allowed).
        carrier_hz: carrier frequency [Hz].
    """

    n_subcarriers: int = 70
    n_symbols: int = 50
    subcarrier_spacing_hz: float = 200e3
    cp_duration_s: float = 1e-6
    carrier_hz: float = 30e9

    def __post_init__(self):
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.subcarrier_spacing_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("subcarrier spacing and carrier must be positive")
        if self.cp_duration_s < 0:
            raise ValueError("cp duration must be nonnegative")

    @property
    def core_symbol_s(self) -> float:
        """Useful symbol duration T = 1/spacing [s]."""
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def symbol_duration_s(self) -> float:
        """Total symbol duration including CP, T_s = T + T_cp [s]."""
        return self.core_symbol_s + self.cp_duration_s

    @property
    def wavelength(self) -> float:
        """Carrier wavelength [m]."""
        return SPEED_OF_LIGHT / self.carrier_hz

    def to_json_dict(self) -> dict:
        return {
            "n_subcarriers": self.n_subcarriers,
            "n_symbols": self.n_symbols,
            "subcarrier_spacing_hz": self.subcarrier_spacing_hz,
            "cp_duration_s": self.cp_duration_s,
            "carrier_hz": self.carrier_hz,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "OfdmNumerology":
        """Parse the keys of ``to_json_dict``; each must have its default's type."""
        defaults = cls().to_json_dict()
        return cls(**{key: _json_value(value, type(defaults[key]), key)
                      for key, value in {**defaults, **d}.items()})
