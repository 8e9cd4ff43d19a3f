"""Qm.n fixed-point ridge inference with saturating MACs.

The paper costs the deployed predictor as 16-bit multiply-accumulate
hardware (44.6 pJ per inference, Sec. IV-B), yet the float64 NumPy
path the simulator ran bears no resemblance to that datapath.  This
module models the hardware faithfully enough to measure what
quantization does to predictions:

* weights and activations are quantized to signed **Qm.n** fixed point
  (``m`` integer bits including sign, ``n`` fractional bits, total
  width ``m + n``), with round-to-nearest and saturation at the
  format's bounds;
* activations are the *standardized* features (zero mean, unit
  variance) whenever the model carries a scaler — z-scores fit
  comfortably in a q4.12 activation range of ±8, where raw Table III
  packet counts would not.  The front-end normalisation is assumed to
  run at full precision, as in a hardware pre-scaler with per-feature
  constants;
* the dot product accumulates in a wide fixed-point register
  (``2n`` fractional bits plus ``ceil(log2(F))`` growth bits) through
  **saturating adds** — the accumulator clamps instead of wrapping, so
  a worst-case input can degrade the prediction but never corrupt it;
* the intercept enters the accumulator as a bias in accumulator
  format, and the final value dequantizes back to a float packet
  count for the Eq. 7 state selector.

``quantization_nrmse`` reports the fidelity loss of the fixed-point
path against the float model (0 = bit-exact agreement).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil, log2
from typing import Optional

import numpy as np

from ..ridge import RidgeRegression

_QFORMAT_RE = re.compile(r"q(\d+)\.(\d+)", re.IGNORECASE)


@dataclass(frozen=True)
class QFormat:
    """A signed Qm.n fixed-point format (``m`` includes the sign bit)."""

    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 1:
            raise ValueError("Qm.n needs at least the sign bit (m >= 1)")
        if self.frac_bits < 0:
            raise ValueError("fractional bits cannot be negative")
        if self.total_bits > 32:
            raise ValueError(
                "formats wider than 32 bits are not modelled (products "
                "must fit an int64 accumulator)"
            )

    @classmethod
    def parse(cls, spec: str) -> "QFormat":
        """Parse ``"q4.12"``-style specs (case-insensitive)."""
        match = _QFORMAT_RE.fullmatch(spec.strip())
        if not match:
            raise ValueError(
                f"invalid Q format {spec!r} (expected e.g. 'q4.12')"
            )
        return cls(int_bits=int(match.group(1)), frac_bits=int(match.group(2)))

    @property
    def total_bits(self) -> int:
        """Word width in bits (sign + integer + fractional)."""
        return self.int_bits + self.frac_bits

    @property
    def scale(self) -> int:
        """Integer representation of 1.0 (``2**frac_bits``)."""
        return 1 << self.frac_bits

    @property
    def qmin(self) -> int:
        """Most negative representable integer code."""
        return -(1 << (self.total_bits - 1))

    @property
    def qmax(self) -> int:
        """Most positive representable integer code."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def resolution(self) -> float:
        """Real value of one LSB."""
        return 1.0 / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.qmax / self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Real -> integer codes, round-to-nearest, saturating."""
        codes = np.rint(np.asarray(values, dtype=float) * self.scale)
        # NaN never comes out of the feature collector; map it to 0 so
        # the hardware model stays total.
        codes = np.where(np.isnan(codes), 0.0, codes)
        return np.clip(codes, self.qmin, self.qmax).astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes -> real values."""
        return np.asarray(codes, dtype=np.int64) / float(self.scale)

    def __str__(self) -> str:
        return f"q{self.int_bits}.{self.frac_bits}"


class QuantizedRidge:
    """Fixed-point deployment form of a fitted :class:`RidgeRegression`.

    Drop-in predictor for the :class:`~repro.core.ml_scaling
    .MLPowerScaler`: ``predict`` takes the same raw Table III feature
    vector (or matrix) and returns a float packet count, but every
    arithmetic step between normalisation and the final dequantize
    happens on saturating integers.
    """

    def __init__(
        self,
        model: RidgeRegression,
        weight_format: QFormat,
        activation_format: Optional[QFormat] = None,
    ) -> None:
        if not model.is_fitted:
            raise ValueError("quantization requires a fitted model")
        self.model = model
        self.weight_format = weight_format
        self.activation_format = activation_format or weight_format

        # Per-model power-of-two weight pre-shift (block scaling): a
        # window-500 model predicts hundreds of packets, so its weights
        # can exceed the format's range; scaling all weights down by a
        # shared 2**shift (and the accumulator's binary point with
        # them) keeps the format's full resolution instead of clipping
        # the biggest weights flat.  Hardware cost: none — the shift is
        # a static re-labelling of the accumulator's binary point.
        max_abs = float(np.max(np.abs(model.weights))) if model.weights.size else 0.0
        self.weight_shift = (
            max(0, ceil(log2(max_abs / weight_format.max_value)))
            if max_abs > weight_format.max_value
            else 0
        )
        self._wq = weight_format.quantize(
            model.weights / float(1 << self.weight_shift)
        )
        num_features = int(model.weights.shape[0])
        # Accumulator: full product precision plus tree-growth headroom.
        growth = max(1, ceil(log2(max(num_features, 2))))
        self.acc_frac_bits = max(
            weight_format.frac_bits
            + self.activation_format.frac_bits
            - self.weight_shift,
            0,
        )
        # Wide formats would ask for more than int64 can hold; the
        # hardware register is capped at 62 bits and the saturating
        # adds keep every intermediate inside int64 regardless.
        acc_bits = min(
            weight_format.total_bits
            + self.activation_format.total_bits
            + growth,
            62,
        )
        self.acc_bits = acc_bits
        self.acc_min = -(1 << (acc_bits - 1))
        self.acc_max = (1 << (acc_bits - 1)) - 1
        self._bias = int(
            np.clip(
                round(model.intercept * (1 << self.acc_frac_bits)),
                self.acc_min,
                self.acc_max,
            )
        )

    @classmethod
    def from_spec(
        cls, model: RidgeRegression, spec: str, activation_spec: Optional[str] = None
    ) -> "QuantizedRidge":
        """Build from ``"q4.12"``-style spec strings."""
        wf = QFormat.parse(spec)
        af = QFormat.parse(activation_spec) if activation_spec else None
        return cls(model, wf, activation_format=af)

    @property
    def is_fitted(self) -> bool:
        """Mirrors the float model's interface."""
        return True

    def quantize_activations(self, X: np.ndarray) -> np.ndarray:
        """Raw features -> integer activation codes (normalised first)."""
        X = np.asarray(X, dtype=float)
        if self.model._scaler is not None:
            X = self.model._scaler.transform(X)
        return self.activation_format.quantize(X)

    def accumulate(self, activations_q: np.ndarray) -> np.ndarray:
        """The saturating MAC chain over quantized activations.

        ``activations_q`` is (n_features,) or (rows, n_features) of
        integer codes; returns the accumulator value(s) after all
        ``F`` multiply-accumulates plus the bias add, still in
        fixed-point accumulator units.
        """
        aq = np.asarray(activations_q, dtype=np.int64)
        single = aq.ndim == 1
        if single:
            aq = aq.reshape(1, -1)
        if aq.shape[1] != self._wq.shape[0]:
            raise ValueError(
                f"expected {self._wq.shape[0]} features, got {aq.shape[1]}"
            )
        acc = np.full(aq.shape[0], self._bias, dtype=np.int64)
        # Sequential saturating adds: each product lands in the clamped
        # accumulator exactly as a MAC pipeline would apply it.
        for j in range(aq.shape[1]):
            products = aq[:, j] * self._wq[j]
            acc = np.clip(acc + products, self.acc_min, self.acc_max)
        return acc[0] if single else acc

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Fixed-point prediction, dequantized to a float packet count."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        acc = self.accumulate(self.quantize_activations(X))
        out = np.asarray(acc, dtype=np.int64) / float(1 << self.acc_frac_bits)
        return float(out[0]) if single else out

    def describe(self) -> dict:
        """JSON-able summary (for CLI ``model eval`` and experiments)."""
        return {
            "weight_format": str(self.weight_format),
            "activation_format": str(self.activation_format),
            "weight_shift": self.weight_shift,
            "accumulator_bits": self.acc_bits,
            "accumulator_frac_bits": self.acc_frac_bits,
            "weight_saturation_frac": float(
                np.mean(
                    (self._wq == self.weight_format.qmin)
                    | (self._wq == self.weight_format.qmax)
                )
            ),
        }


def quantization_nrmse(
    model: RidgeRegression,
    quantized: QuantizedRidge,
    X: np.ndarray,
) -> float:
    """Fixed-point fidelity loss on a feature matrix (0 = exact).

    RMSE between the float and quantized predictions, normalised by
    the float predictions' spread (or their RMS when near-constant) —
    the ``model eval`` bound CI pins.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[0] == 0:
        raise ValueError("cannot score an empty feature matrix")
    reference = np.asarray(model.predict(X), dtype=float).ravel()
    approx = np.asarray(quantized.predict(X), dtype=float).ravel()
    err = float(np.sqrt(np.mean((reference - approx) ** 2)))
    spread = float(np.std(reference))
    if spread < 1e-12:
        spread = max(float(np.sqrt(np.mean(reference**2))), 1.0)
    return err / spread


def state_agreement(
    model: RidgeRegression,
    quantized: QuantizedRidge,
    X: np.ndarray,
    to_state,
) -> float:
    """Fraction of rows whose Eq. 7 state matches the float path."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[0] == 0:
        raise ValueError("cannot score an empty feature matrix")
    reference = np.asarray(model.predict(X), dtype=float).ravel()
    approx = np.asarray(quantized.predict(X), dtype=float).ravel()
    hits = sum(
        1 for r, a in zip(reference, approx) if to_state(r) == to_state(a)
    )
    return hits / len(reference)
