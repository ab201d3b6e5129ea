"""circuitlab: monetary-circuit macro dynamics, interconnected banking
networks with structural defaults, and single-bank balance-sheet and
dividend optimization.

Importing any module loads numpy only.  The circuit models (`goodwin`,
`keen`, `mmc`), the network Monte Carlo (`network`) and the balance sheet
(`balance`, `ledger`) need nothing else.  scipy loads on the first call that
uses it: `bessel.iv_scaled` above z = 700 (`scipy.special.ive`),
`wedge.norm_cdf` (`scipy.special.ndtr`), `dividend.stationary_barrier`
(`scipy.optimize.brentq`) and `dividend.solve_variational` (LAPACK
`dgttrf`/`dgttrs` from `scipy.linalg.lapack` and the BLAS `dtbsv`)."""

__version__ = "0.1.0"
