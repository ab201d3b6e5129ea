"""circuitlab: monetary-circuit macro dynamics, interconnected banking
networks with structural defaults, and single-bank balance-sheet and
dividend optimization.

Importing any module loads numpy only.  The circuit models (`goodwin`,
`keen`, `mmc`), the network Monte Carlo (`network`) and the balance sheet
(`balance`, `ledger`) need nothing else.  scipy loads on the first call that
uses it: `wedge.norm_cdf` and `wedge.survival_1d` (`scipy.special.ndtr` and
`log_ndtr`), and `dividend.solve_variational` (LAPACK `dgttrf`/`dgttrs` from
`scipy.linalg.lapack` and the BLAS `dtbsv`).  `dividend.stationary_barrier`
bisects the symbol's roots and its scanned bracket of E* to adjacent
doubles with numpy alone."""

__version__ = "0.1.0"
