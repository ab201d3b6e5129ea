"""Double-entry bank balance-sheet bookkeeping.

Replays the money creation and annihilation pictures: a single bank issuing
a loan creates a matching deposit (new money), repayment destroys it, and
the two-bank sequence shows how lending out of cash plus the interbank
rebalancing loan leaves both banks liquid and mutually linked.

Money supply is measured as total deposits (banks' external liabilities);
cash held at the central bank is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable

__all__ = ["BankLedger", "LedgerEvent", "LedgerError", "apply_event",
           "two_bank_creation", "capital_check", "money_supply",
           "EVENT_KINDS"]

# tolerance of the balance identity (relative to total assets) and of the
# non-negative entries (absolute): rounding of the postings, not a slack
IDENTITY_TOL = 1e-9

EVENT_KINDS = (
    "issue_loan_single",
    "repay_with_interest",
    "default_loss",
    "lend_from_cash",
    "deposit_at_other",
    "interbank_lend",
    "central_bank_repo",
)


class LedgerError(ValueError):
    """Infeasible event (insufficient cash, missing loan, broken identity)."""


@dataclass(frozen=True)
class BankLedger:
    external_assets: float = 0.0
    interbank_assets: float = 0.0
    cash: float = 0.0
    external_liabilities: float = 0.0
    interbank_liabilities: float = 0.0
    equity: float = 0.0

    @property
    def total_assets(self) -> float:
        return self.external_assets + self.interbank_assets + self.cash

    @property
    def total_liabilities(self) -> float:
        return self.external_liabilities + self.interbank_liabilities

    @property
    def loan_assets(self) -> float:
        return self.external_assets + self.interbank_assets

    def balance_residual(self) -> float:
        return self.total_assets - self.total_liabilities - self.equity

    def check(self) -> "BankLedger":
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise LedgerError(f"{f.name} is not finite: {getattr(self, f.name)}")
        if abs(self.balance_residual()) > IDENTITY_TOL * max(1.0, abs(self.total_assets)):
            raise LedgerError(
                f"balance identity violated by {self.balance_residual():.6g}"
            )
        for name in ("external_assets", "interbank_assets", "cash",
                     "external_liabilities", "interbank_liabilities"):
            if getattr(self, name) < -IDENTITY_TOL:
                raise LedgerError(f"{name} went negative")
        return self


@dataclass(frozen=True)
class LedgerEvent:
    kind: str
    amount: float
    bank: int = 0
    counterparty: int | None = None
    interest: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise LedgerError(f"unknown event kind {self.kind!r}")
        if not (math.isfinite(self.amount) and self.amount > 0):
            raise LedgerError(f"event amount must be finite and positive, got {self.amount}")
        if not (math.isfinite(self.interest) and self.interest >= 0):
            raise LedgerError(f"interest must be finite and non-negative, got {self.interest}")


def money_supply(ledgers: Iterable[BankLedger]) -> float:
    """Total deposits across banks; central-bank cash is not money here."""
    return sum(b.external_liabilities for b in ledgers)


def apply_event(
    ledgers: list[BankLedger], event: LedgerEvent, repo_haircut: float = 0.0
) -> tuple[list[BankLedger], float]:
    """Post one event; returns the new ledgers and the money-supply delta.
    The event's bank, and its counterparty if it names one, must index
    `ledgers`, and a bank is not its own counterparty; the repo haircut must
    be finite and non-negative."""
    if not (math.isfinite(repo_haircut) and repo_haircut >= 0):
        raise LedgerError(f"repo_haircut must be finite and non-negative, got {repo_haircut}")
    out = list(ledgers)
    for role, k in (("bank", event.bank), ("counterparty", event.counterparty)):
        if k is not None and k not in range(len(out)):
            raise LedgerError(f"{role} {k!r} is not one of the {len(out)} banks")
    if event.counterparty == event.bank:
        raise LedgerError(f"bank {event.bank} cannot be its own counterparty")
    i = event.bank
    a = event.amount
    before = money_supply(out)
    bank = out[i]

    if event.kind == "issue_loan_single":
        # loan asset and matching deposit created on the same books
        out[i] = replace(bank,
                         external_assets=bank.external_assets + a,
                         external_liabilities=bank.external_liabilities + a)
    elif event.kind == "repay_with_interest":
        if bank.external_assets < a:
            raise LedgerError(
                f"repayment of {a} exceeds loan assets {bank.external_assets}")
        if bank.external_liabilities < a:
            raise LedgerError("no deposit to extinguish against the repayment")
        # principal cancels loan against deposit; interest arrives as an
        # exogenous asset inflow and accrues to equity
        out[i] = replace(
            bank,
            external_assets=bank.external_assets - a + event.interest,
            external_liabilities=bank.external_liabilities - a,
            equity=bank.equity + event.interest,
        )
    elif event.kind == "default_loss":
        if bank.external_assets < a:
            raise LedgerError(
                f"write-off of {a} exceeds loan assets {bank.external_assets}")
        out[i] = replace(bank,
                         external_assets=bank.external_assets - a,
                         equity=bank.equity - a)
    elif event.kind == "lend_from_cash":
        if bank.cash < a:
            raise LedgerError(f"cash {bank.cash} insufficient to lend {a}")
        out[i] = replace(bank,
                         external_assets=bank.external_assets + a,
                         cash=bank.cash - a)
    elif event.kind == "deposit_at_other":
        out[i] = replace(bank,
                         cash=bank.cash + a,
                         external_liabilities=bank.external_liabilities + a)
    elif event.kind == "interbank_lend":
        j = event.counterparty
        if j is None:
            raise LedgerError("interbank_lend requires a counterparty")
        lender = out[i]
        if lender.cash < a:
            raise LedgerError(f"lender cash {lender.cash} insufficient for {a}")
        out[i] = replace(lender,
                         cash=lender.cash - a,
                         interbank_assets=lender.interbank_assets + a)
        out[j] = replace(out[j],
                         cash=out[j].cash + a,
                         interbank_liabilities=out[j].interbank_liabilities + a)
    elif event.kind == "central_bank_repo":
        # cash against collateralized borrowing from the central bank; the
        # haircut requires posting (1 + h) * amount of performing assets,
        # which stay on the books (encumbrance is not tracked)
        need = a * (1.0 + repo_haircut)
        if bank.external_assets < need:
            raise LedgerError(
                f"collateral {need} exceeds performing assets {bank.external_assets}")
        out[i] = replace(bank,
                         cash=bank.cash + a,
                         interbank_liabilities=bank.interbank_liabilities + a)
    for b in out:
        b.check()
    return out, money_supply(out) - before


def two_bank_creation(
    bank1: BankLedger,
    bank2: BankLedger,
    amount: float,
    central_bank_fallback: bool = False,
) -> list[tuple[BankLedger, BankLedger]]:
    """Three-stage money creation across two banks.

    Stage I -> II: bank 1 lends `amount` out of cash; the borrower deposits
    it at bank 2.  Stage II -> III: bank 2 lends its excess cash back to
    bank 1, restoring both cash positions and creating the interbank link.
    Returns the ledger pair at each of the three stages.

    If bank 1's cash is short and no central-bank fallback is configured the
    event is rejected; with the fallback, a repo for the shortfall (no
    haircut) is synthesized first.
    """
    if not (math.isfinite(amount) and amount >= 0):
        raise LedgerError(f"amount must be finite and non-negative, got {amount}")
    if amount == 0:
        return [(bank1, bank2)] * 3
    ledgers = [bank1.check(), bank2.check()]
    steps = [tuple(ledgers)]

    if ledgers[0].cash < amount:
        if not central_bank_fallback:
            raise LedgerError(
                f"bank 1 cash {ledgers[0].cash} cannot fund a loan of {amount} "
                "and no central-bank fallback is configured"
            )
        shortfall = amount - ledgers[0].cash
        ledgers, _ = apply_event(ledgers, LedgerEvent("central_bank_repo", shortfall, bank=0))

    ledgers, delta = apply_event(ledgers, LedgerEvent("lend_from_cash", amount, bank=0))
    ledgers, delta2 = apply_event(ledgers, LedgerEvent("deposit_at_other", amount, bank=1))
    steps.append(tuple(ledgers))

    ledgers, _ = apply_event(
        ledgers, LedgerEvent("interbank_lend", amount, bank=1, counterparty=0))
    steps.append(tuple(ledgers))
    return steps


def capital_check(ledger: BankLedger, nu_b: float) -> tuple[bool, float]:
    """Equity versus the capital requirement nu_b * loan assets; returns
    (satisfied, slack)."""
    if not 0.0 < nu_b < 1.0:
        raise ValueError("nu_b must lie in (0, 1)")
    slack = ledger.equity - nu_b * ledger.loan_assets
    return slack > 0.0, slack
