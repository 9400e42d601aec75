"""Light-weight host runtime (framework Step 4).

Manages the accelerator's external memory (instruction + data files),
drives the simulator segment by segment, executes the few host-side
operations, and exposes an end-to-end ``infer`` call.

Public API
----------
``HostRuntime``
    Deploys a :class:`~repro.compiler.CompiledModel` and runs inference.
``generate_parameters`` / ``ParameterSet``
    Seeded synthetic weights for any IR network (the reproduction's
    substitute for pretrained models — all evaluation metrics depend on
    layer geometry only), drawn on first read.
``reference_inference``
    Pure-numpy golden model of a network.
"""

from repro.runtime.params import ParameterSet, generate_parameters
from repro.runtime.reference import reference_inference
from repro.runtime.host import HostRuntime, InferenceResult

__all__ = [
    "HostRuntime",
    "InferenceResult",
    "ParameterSet",
    "generate_parameters",
    "reference_inference",
]
