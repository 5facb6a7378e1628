"""The body of `elliptic`: the torus tensor at complex points."""

from __future__ import annotations

import cmath

from .request import EXIT_BADINPUT, EXIT_FAIL, check_size, fail


def _parse_complex(text: str, name: str) -> complex:
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        fail("%s must be a finite complex number like 0.3+1i, got %r" % (name, text),
             EXIT_BADINPUT)
    return value


def run(n, d, tau, x, y, terms):
    """Torus solution for (N, D) at complex points; JSON document output."""
    from . import elliptic

    check_size(n)
    tau_val = _parse_complex(tau, "--tau")
    x_val = _parse_complex(x, "--x")
    y_val = _parse_complex(y, "--y")
    try:
        ctx = elliptic.ThetaContext(tau=tau_val, terms=terms)
    except ValueError as exc:
        fail(str(exc), EXIT_BADINPUT)
    try:
        tensor = elliptic.belavin_r(n, d, ctx, x_val, y_val)
    except elliptic.PoleProximityError as exc:
        fail("pole: %s" % exc, EXIT_FAIL)
    except ValueError as exc:
        fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "elliptic",
        "n": n,
        "d": d,
        "tau": [tau_val.real, tau_val.imag],
        "x": [x_val.real, x_val.imag],
        "y": [y_val.real, y_val.imag],
        "terms": terms,
        "difference_convention": elliptic.v_sign_convention(),
        "tolerance": elliptic.THETA_TOL,
    }
    return tensor, provenance, "json"
