"""Spherical conics and rotational quadric surfaces in the 3-sphere.

Modules map one-to-one onto the pipeline: `sphere` holds points, curves
and discrete differential invariants on S^2; `conics` the three conic
representations, their (mu, c) momentum coefficients and the exact maps
between (mu, c) and the cylinder squares; `momentum` the closed-form K(z)
families and reconstruction by quadratures; `surfaces` the rotational
surfaces of S^3 with fundamental forms, implicit equations and quadric
constructors; `weingarten` the cubic/sextic relations and the classifier;
`projection` stereographic images, spiric/cyclide quartics and mesh export;
`cli` the command-line front end.  `errors` holds the exception types.

Each module imports only modules earlier in the order errors, sphere,
conics, momentum, surfaces, weingarten, projection, cli, and only at its
top level.  This package re-exports nothing: import every name from its
module, as in `from spheriq.conics import momentum_coeffs`.
"""

__version__ = "0.1.0"
