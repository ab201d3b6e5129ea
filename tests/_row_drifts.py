"""The per-row drift formulas the block kernels replaced: one array (or
float) per component, each written out as it was.  They are the oracles of
`test_drift_kernels.py`, which requires the kernels to equal them byte for
byte."""

import numpy as np

from circuitlab.mmc import net_interest


def employment_drift(s, lam, growth, params, s_f=None):
    """Drift of (s_w, lambda_w) given the employment growth rate."""
    if params.omega > 0:
        if s_f is None:
            s_f = 1.0 - s
        return (-(params.a - params.b * lam - params.omega / (1.0 - lam)) * s,
                (growth - params.omega / s_f) * lam)
    return -(params.a - params.b * lam) * s, growth * lam


def goodwin_drift(s, lam, params):
    """Goodwin: growth c - d*s_w."""
    return employment_drift(s, lam, params.c - params.d * s, params)


def keen_drift(s, lam, g, s_f, fx, params, with_nu_factor):
    """Keen, given s_f = 1 - s_w and fx = f(.)."""
    nu_fx = params.nu_f * fx
    scaled = nu_fx if with_nu_factor or params.omega == 0 else fx
    ds, dl = employment_drift(s, lam, scaled - params.c, params, s_f)
    dg = (params.r_l - nu_fx + params.d) * g + params.nu_f * (fx - s_f)
    return ds, dl, dg


def mmc_flows(x, u, p):
    """MMC at propensity u, x mapping STOCK_NAMES to rows: (drift by name,
    capital_ok, unmet, capacity_capped)."""
    c_r, l_r, l_f, k_f = x["c_r"], x["l_r"], x["l_f"], x["k_f"]
    ni_r = net_interest(x["d_r"], l_r, p)
    ni_f = net_interest(x["d_f"], l_f, p)
    loans = l_r + l_f
    capital_ok = p.nu_b * loans - x["k_b"] < 0.0

    one_minus_u, s_f = 1.0 - u, 1.0 - x["s_w"]
    rentier_income = p.delta_bb * ni_r + (p.delta_rf - p.delta_rb) * ni_f
    base = (p.delta_ff - u) * c_r / one_minus_u
    cf_r = rentier_income - p.delta_rb * p.xi_delta * loans - base
    cf_f = p.delta_ff * ni_f + base
    new_l_r = np.maximum(-cf_r, 0.0)
    new_l_f = np.maximum(-cf_f, 0.0)
    unmet = np.where(capital_ok, 0.0, new_l_r + new_l_f)
    c_bar = (p.alpha0 * (rentier_income + p.delta_rf * c_r / one_minus_u)
             + p.alpha1 * p.nu_f * k_f)
    ds, dl = employment_drift(x["s_w"], x["lambda_w"],
                              u * c_r / (one_minus_u * p.nu_f * k_f) - p.c, p, s_f)
    drift = {
        "c_r": p.kappa_c * (c_bar - c_r),
        "d_r": np.maximum(cf_r, 0.0),
        "l_r": -p.xi_delta * l_r + np.where(capital_ok, new_l_r, 0.0),
        "d_f": np.maximum(cf_f, 0.0),
        "l_f": -p.xi_delta * l_f + np.where(capital_ok, new_l_f, 0.0),
        "k_f": u * c_r / one_minus_u - p.xi_a * k_f,
        "k_b": -p.delta_bb * (p.xi_delta * loans + ni_r + ni_f),
        "theta_w": p.alpha * x["theta_w"],
        "n_w": p.beta * x["n_w"],
        "s_w": ds,
        "lambda_w": dl,
    }
    return drift, capital_ok, unmet, c_r / (one_minus_u * s_f) > p.nu_f * k_f


def mmc_diffusion(x, p):
    """MMC noise loadings of c_r, k_f, s_w, lambda_w, in that order."""
    def jacobi(v):
        return np.sqrt(np.maximum(v * (1.0 - v), 0.0))
    return [p.sigma_c * x["c_r"], p.sigma_k * x["k_f"],
            p.sigma_s * jacobi(x["s_w"]), p.sigma_lambda * jacobi(x["lambda_w"])]
