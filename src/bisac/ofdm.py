"""OFDM frame numerology and derived timing quantities."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import SPEED_OF_LIGHT, _checked


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
        for name, kind, low, above in (
            ("n_subcarriers", int, 1, False), ("n_symbols", int, 1, False),
            ("subcarrier_spacing_hz", float, 0, True), ("cp_duration_s", float, 0, False),
            ("carrier_hz", float, 0, True),
        ):
            value = _checked(getattr(self, name), kind, name, low, above=above)
            object.__setattr__(self, name, value)

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
