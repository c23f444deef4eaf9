"""The forced (affine) flow: closed forms, quadrature, and inversion.

The mild solution adds a forcing convolution to the damped initial state.
Constant and exponential forcing integrate exactly; sampled tables go
through composite Simpson, whose fourth-order convergence shows in a
step-halving table.  The affine flow inverts within the same horizons as
the homogeneous one.
"""

import math

import numpy as np

import retroflow as rf
from retroflow.inhomogeneous import mode_response

PI2 = math.pi**2
spectrum = rf.make_heat_spectrum(4)
quad = rf.QuadratureConfig(steps=64)

# forced from rest by a unit constant on mode 1: the scalar ODE closed form
x0 = rf.SpectralState.zeros(spectrum)
forcing = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
moved = rf.duhamel_evolve(x0, forcing, 1.0, quad)
closed = (1 - math.exp(-PI2)) / PI2
print("mode-1 response after one unit:", moved.coeff(1).to_linear())
print("scalar-ODE closed form:        ", closed)

# the same drive as a sampled table exercises Simpson, whose level sums are
# closed forms per table segment; halving the step cuts the error sixteenfold
table = rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
print("\nSimpson convergence against the closed form:")
prev = None
for steps in (16, 32, 64, 128):
    got, _ = mode_response(-PI2, table, 1.0, rf.QuadratureConfig(steps=steps))
    err = abs(got - closed)
    ratio = "" if prev is None else f"   ratio {prev / err:5.1f}"
    print(f"  {steps:4d} steps: error {err:.3e}{ratio}")
    prev = err

# exponential forcing has its own closed form
response, _ = mode_response(-PI2, rf.ExponentialForcing(1.0, 1.0), 0.5, quad)
print("\nexponential forcing closed form at t = 1/2:", response)

# the affine flow inverts: subtract the accumulated forcing, run backward
rng = np.random.default_rng(7)
x = rf.SpectralState.from_values(spectrum, rng.normal(size=4))
forward = rf.duhamel_evolve(x, forcing, 0.5, quad)
recovered = rf.affine_backward(forward, forcing, 0.5, quad)
print("\naffine roundtrip relative gap:", rf.relative_gap(recovered, x))

# the affine backward-depth norm cancels the forcing identically
print("affine depth-1 norm of e1 (any forcing):",
      rf.affine_norm(rf.SpectralState.basis(spectrum, 1), forcing, 1.0, quad))
print("homogeneous comparison exp(-pi^2):      ", math.exp(-PI2))
