"""Model creation: the slow TFLite flow vs. the fast Tensorizer flow.

§3.3: the stock toolchain "only allows the user to generate models by
invoking the Edge TPU compiler in the Python-based TFLite", taking 2.7 s
for a 2K×2K matrix.  §6.2.3: the reimplemented C-based Tensorizer builder
reaches 1.8 ms — a 1500× speedup — by writing the reverse-engineered
binary format directly.

Both builders here produce **byte-identical** model blobs; they differ
only in simulated cost, which is exactly the paper's point — the format
is the same, the stock toolchain is just slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import EdgeTPUConfig
from repro.edgetpu.model_format import ModelBlob, parse_model, serialize_model
from repro.edgetpu.quantize import QuantParams, params_for_data, quantize
from repro.edgetpu.timing import TimingModel


@dataclass(frozen=True)
class CompiledModel:
    """A model blob plus the simulated cost of producing it."""

    blob: bytes
    params: QuantParams
    build_seconds: float

    def parsed(self) -> ModelBlob:
        """Decode the blob back into (int8 matrix, params)."""
        return parse_model(self.blob)


class _BuilderBase:
    """Shared quantize-and-serialize logic for both builders."""

    def __init__(self, config: Optional[EdgeTPUConfig] = None) -> None:
        self.config = config or EdgeTPUConfig()
        self.timing = TimingModel(self.config)
        #: Total models built / simulated seconds spent, for reports.
        self.models_built = 0
        self.total_seconds = 0.0

    def _encode(self, raw: np.ndarray, params: Optional[QuantParams]) -> Tuple[bytes, QuantParams]:
        matrix = np.asarray(raw, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"models are 2-D matrices, got shape {matrix.shape}")
        if params is None:
            params = params_for_data(matrix)
        return serialize_model(quantize(matrix, params), params), params

    def _cost(self, elems: int) -> float:
        raise NotImplementedError

    def compile(self, raw: np.ndarray, params: Optional[QuantParams] = None) -> CompiledModel:
        """Quantize *raw* and serialize it into the §3.3 binary format."""
        blob, used = self._encode(raw, params)
        seconds = self._cost(int(np.asarray(raw).size))
        self.models_built += 1
        self.total_seconds += seconds
        return CompiledModel(blob=blob, params=used, build_seconds=seconds)


class ReferenceCompiler(_BuilderBase):
    """The stock Python TFLite → edgetpu_compiler flow (slow path)."""

    def _cost(self, elems: int) -> float:
        return self.timing.tflite_compile_seconds(elems)


class TensorizerModelBuilder(_BuilderBase):
    """The paper's C-based direct-format writer (fast path, §6.2.3)."""

    def _cost(self, elems: int) -> float:
        return self.timing.tensorizer_build_seconds(elems)
