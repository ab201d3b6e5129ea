"""Double-entry bank balance-sheet bookkeeping.

Replays the money creation and annihilation pictures: a single bank issuing
a loan creates a matching deposit (new money), repayment destroys it, and
the two-bank sequence shows how lending out of cash plus the interbank
rebalancing loan leaves both banks liquid and mutually linked.

Every event kind posts from one table, `POSTINGS`: the entries it moves on
the bank's books and, for a kind between two banks, on the counterparty's,
each by +1 or -1 times the event's amount.  One rule refuses a posting: an
entry that it lowers must hold at least the amount, except equity, which
records losses.  Two rules are the kinds' own: a central-bank repo needs
(1 + haircut) times its amount in performing assets as collateral, and a
repayment's interest arrives after its principal, as an asset inflow that
accrues to equity.

Money supply is measured as total deposits (banks' external liabilities);
cash held at the central bank is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable

__all__ = ["BankLedger", "LedgerEvent", "LedgerError", "apply_event",
           "two_bank_creation", "capital_check", "money_supply",
           "EVENT_KINDS", "POSTINGS"]

# tolerance of the balance identity (relative to total assets) and of the
# non-negative entries (absolute): rounding of the postings, not a slack
IDENTITY_TOL = 1e-9

# per event kind, (the bank's entries, the counterparty's entries or None
# when the kind names no counterparty), each moved by its sign times the amount
POSTINGS = {
    # a loan asset and its matching deposit, created on the same books
    "issue_loan_single": ({"external_assets": 1, "external_liabilities": 1}, None),
    # the principal cancels loan against deposit; the interest follows it
    "repay_with_interest": ({"external_assets": -1, "external_liabilities": -1}, None),
    # a written-off loan: equity absorbs the loss, the deposit survives
    "default_loss": ({"external_assets": -1, "equity": -1}, None),
    "lend_from_cash": ({"external_assets": 1, "cash": -1}, None),
    "deposit_at_other": ({"cash": 1, "external_liabilities": 1}, None),
    "interbank_lend": ({"cash": -1, "interbank_assets": 1},
                       {"cash": 1, "interbank_liabilities": 1}),
    # cash against collateralized borrowing from the central bank
    "central_bank_repo": ({"cash": 1, "interbank_liabilities": 1}, None),
}
# a repayment's interest: an exogenous asset inflow that accrues to equity
INTEREST = {"external_assets": 1, "equity": 1}
EVENT_KINDS = tuple(POSTINGS)


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


def _post(ledger: BankLedger, k: int, entries: dict[str, int], amount: float,
          kind: str) -> BankLedger:
    """Bank k's `ledger` with each entry moved by its sign times `amount`.
    An entry the posting lowers, other than equity, must hold the amount."""
    for name, sign in entries.items():
        held = getattr(ledger, name)
        if sign < 0 and name != "equity" and held < amount:
            raise LedgerError(f"bank {k} {name} {held} insufficient for {kind} of {amount}")
    return replace(ledger, **{name: getattr(ledger, name) + sign * amount
                              for name, sign in entries.items()})


def apply_event(
    ledgers: list[BankLedger], event: LedgerEvent, repo_haircut: float = 0.0
) -> tuple[list[BankLedger], float]:
    """Post one event; returns the new ledgers and the money-supply delta.
    The event's bank, and its counterparty exactly when its kind has one,
    must index `ledgers`, and a bank is not its own counterparty; the repo
    haircut must be finite and non-negative."""
    if not (math.isfinite(repo_haircut) and repo_haircut >= 0):
        raise LedgerError(f"repo_haircut must be finite and non-negative, got {repo_haircut}")
    out = list(ledgers)
    for role, k in (("bank", event.bank), ("counterparty", event.counterparty)):
        if k is not None and k not in range(len(out)):
            raise LedgerError(f"{role} {k!r} is not one of the {len(out)} banks")
    if event.counterparty == event.bank:
        raise LedgerError(f"bank {event.bank} cannot be its own counterparty")
    i, j, a = event.bank, event.counterparty, event.amount
    own, other = POSTINGS[event.kind]
    if (other is None) != (j is None):
        need = "requires a" if j is None else "takes no"
        raise LedgerError(f"{event.kind} {need} counterparty")
    if event.kind == "central_bank_repo":
        # the haircut requires posting (1 + h) * amount of performing
        # assets, which stay on the books (encumbrance is not tracked)
        need = a * (1.0 + repo_haircut)
        if out[i].external_assets < need:
            raise LedgerError(
                f"collateral {need} exceeds performing assets {out[i].external_assets}")
    before = money_supply(out)
    out[i] = _post(out[i], i, own, a, event.kind)
    if other is not None:
        out[j] = _post(out[j], j, other, a, event.kind)
    if event.kind == "repay_with_interest":
        out[i] = _post(out[i], i, INTEREST, event.interest, event.kind)
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
