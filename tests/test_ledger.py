import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitlab.ledger import (
    EVENT_KINDS,
    BankLedger,
    LedgerError,
    LedgerEvent,
    apply_event,
    capital_check,
    money_supply,
    two_bank_creation,
)

# the printed two-bank money-creation table, column by column
STEP_I = (
    BankLedger(external_assets=19, interbank_assets=6, cash=3,
               external_liabilities=20, interbank_liabilities=3, equity=5),
    BankLedger(external_assets=24, interbank_assets=9, cash=4,
               external_liabilities=25, interbank_liabilities=7, equity=5),
)
STEP_II = (
    BankLedger(21, 6, 1, 20, 3, 5),
    BankLedger(24, 9, 6, 27, 7, 5),
)
STEP_III = (
    BankLedger(21, 6, 3, 20, 5, 5),
    BankLedger(24, 11, 4, 27, 7, 5),
)


def test_single_bank_issue_repay():
    bank = BankLedger(external_assets=20, external_liabilities=15, equity=5)
    out, delta = apply_event([bank], LedgerEvent("issue_loan_single", 2.0))
    assert out[0] == BankLedger(22, 0, 0, 17, 0, 5)
    assert delta == 2.0
    out2, delta2 = apply_event(
        out, LedgerEvent("repay_with_interest", 2.0, interest=0.5))
    assert out2[0] == BankLedger(20.5, 0, 0, 15, 0, 5.5)
    assert delta2 == -2.0


def test_single_bank_default_branch():
    bank = BankLedger(external_assets=22, external_liabilities=17, equity=5)
    out, delta = apply_event([bank], LedgerEvent("default_loss", 2.0))
    assert out[0] == BankLedger(20, 0, 0, 17, 0, 3)
    assert delta == 0.0  # the created deposit survives; equity absorbs the loss


def test_round_trip_destroys_created_money():
    bank = BankLedger(external_assets=20, external_liabilities=15, equity=5)
    m0 = money_supply([bank])
    out, created = apply_event([bank], LedgerEvent("issue_loan_single", 2.0))
    out, destroyed = apply_event(out, LedgerEvent("repay_with_interest", 2.0))
    assert created == 2.0 and destroyed == -2.0
    assert money_supply(out) == m0


def test_two_bank_creation_reproduces_printed_table():
    steps = two_bank_creation(STEP_I[0], STEP_I[1], amount=2.0)
    assert steps[0] == STEP_I
    assert steps[1] == STEP_II
    assert steps[2] == STEP_III


def test_two_bank_creation_money_and_equity():
    steps = two_bank_creation(STEP_I[0], STEP_I[1], amount=2.0)
    supplies = [money_supply(s) for s in steps]
    assert supplies == [45.0, 47.0, 47.0]  # +2 created, interbank leg neutral
    for pair in steps:
        assert pair[0].equity == 5.0 and pair[1].equity == 5.0
    # cash restored to the initial levels by stage III
    assert steps[2][0].cash == steps[0][0].cash
    assert steps[2][1].cash == steps[0][1].cash


def test_two_bank_creation_zero_amount_identity():
    steps = two_bank_creation(STEP_I[0], STEP_I[1], amount=0.0)
    assert all(s == STEP_I for s in steps)


def test_two_bank_insufficient_cash():
    poor = BankLedger(external_assets=19, interbank_assets=6, cash=0.5,
                      external_liabilities=17.5, interbank_liabilities=3, equity=5)
    with pytest.raises(LedgerError, match="fallback"):
        two_bank_creation(poor, STEP_I[1], amount=2.0)
    steps = two_bank_creation(poor, STEP_I[1], amount=2.0,
                              central_bank_fallback=True)
    # repo covered the shortfall: interbank liabilities include the repo
    assert steps[2][0].interbank_liabilities == pytest.approx(3 + 1.5 + 2.0)
    for pair in steps:
        for b in pair:
            assert abs(b.balance_residual()) < 1e-12


def test_balance_identity_preserved_by_every_event():
    ledgers = [STEP_I[0], STEP_I[1]]
    events = [
        LedgerEvent("issue_loan_single", 1.5, bank=0),
        LedgerEvent("deposit_at_other", 0.75, bank=1),
        LedgerEvent("lend_from_cash", 1.0, bank=1),
        LedgerEvent("interbank_lend", 0.5, bank=0, counterparty=1),
        LedgerEvent("central_bank_repo", 2.0, bank=0),
        LedgerEvent("repay_with_interest", 1.0, bank=0, interest=0.25),
        LedgerEvent("default_loss", 0.5, bank=1),
    ]
    for ev in events:
        ledgers, _ = apply_event(ledgers, ev)
        for b in ledgers:
            assert abs(b.balance_residual()) < 1e-12


def test_infeasible_events_rejected():
    bank = BankLedger(external_assets=1.0, cash=0.2,
                      external_liabilities=0.5, equity=0.7)
    with pytest.raises(LedgerError, match="bank 0 cash 0.2 insufficient for lend_from_cash"):
        apply_event([bank], LedgerEvent("lend_from_cash", 1.0))
    with pytest.raises(LedgerError,
                       match="bank 0 external_assets 1.0 insufficient for repay_with_interest"):
        apply_event([bank], LedgerEvent("repay_with_interest", 5.0))
    with pytest.raises(LedgerError, match="amount"):
        LedgerEvent("issue_loan_single", -1.0)
    with pytest.raises(LedgerError, match="unknown event"):
        LedgerEvent("print_money", 1.0)


@pytest.mark.parametrize("event, message", [
    (LedgerEvent("issue_loan_single", 1.0, bank=-1), "bank -1 is not one of the 2 banks"),
    (LedgerEvent("issue_loan_single", 1.0, bank=2), "bank 2 is not one of the 2 banks"),
    (LedgerEvent("interbank_lend", 0.5, bank=0, counterparty=-2),
     "counterparty -2 is not one of the 2 banks"),
    (LedgerEvent("interbank_lend", 0.5, bank=0, counterparty=5),
     "counterparty 5 is not one of the 2 banks"),
    (LedgerEvent("interbank_lend", 0.5, bank=1, counterparty=1),
     "bank 1 cannot be its own counterparty"),
    (LedgerEvent("issue_loan_single", 0.5, bank=0, counterparty=1),
     "issue_loan_single takes no counterparty"),
])
def test_event_outside_the_ledgers_rejected(event, message):
    # a negative index would post to a bank counted from the end, a self-loan
    # would book an interbank claim on the lender itself, and a counterparty
    # on a single-bank kind was accepted and left untouched
    with pytest.raises(LedgerError, match=message):
        apply_event(list(STEP_I), event)


def test_repo_haircut_requires_collateral():
    bank = BankLedger(external_assets=1.0, external_liabilities=0.5, equity=0.5)
    with pytest.raises(LedgerError, match="collateral"):
        apply_event([bank], LedgerEvent("central_bank_repo", 1.0),
                    repo_haircut=0.2)
    out, delta = apply_event([bank], LedgerEvent("central_bank_repo", 0.8),
                             repo_haircut=0.2)
    assert out[0].cash == pytest.approx(0.8)
    assert delta == 0.0  # central-bank cash is not counted as money


@pytest.mark.parametrize("haircut", [-2.0, math.nan, math.inf])
def test_repo_haircut_must_be_finite_and_non_negative(haircut):
    # a haircut of -2 once made the collateral need negative, and the repo
    # was granted against no assets
    bank = BankLedger(cash=1.0, equity=1.0)
    with pytest.raises(LedgerError, match="repo_haircut must be finite and non-negative"):
        apply_event([bank], LedgerEvent("central_bank_repo", 1.0), repo_haircut=haircut)


def test_capital_check_worked_example():
    # post-issuance single-bank state: equity 5, loans 22
    bank = BankLedger(external_assets=22, external_liabilities=17, equity=5)
    ok, slack = capital_check(bank, nu_b=0.1)
    assert ok and slack == pytest.approx(2.8)


def test_capital_check_edges():
    no_equity = BankLedger(external_assets=10, external_liabilities=10, equity=0)
    ok, slack = capital_check(no_equity, 0.1)
    assert not ok and slack == pytest.approx(-1.0)
    no_loans = BankLedger(cash=4, external_liabilities=1, equity=3)
    ok, slack = capital_check(no_loans, 0.25)
    assert ok and slack == pytest.approx(3.0)
    with pytest.raises(ValueError):
        capital_check(no_loans, 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(LedgerError, match="amount"):
        LedgerEvent("issue_loan_single", bad)
    with pytest.raises(LedgerError, match="interest"):
        LedgerEvent("repay_with_interest", 1.0, interest=bad)
    with pytest.raises(LedgerError, match="not finite"):
        BankLedger(external_assets=bad, external_liabilities=1.0).check()
    with pytest.raises(LedgerError, match="not finite"):
        apply_event([BankLedger(external_assets=20, external_liabilities=15, equity=bad)],
                    LedgerEvent("issue_loan_single", 2.0))
    with pytest.raises(LedgerError, match="amount"):
        two_bank_creation(STEP_I[0], STEP_I[1], amount=bad)


# --------------------------------------------------------------------------
# the balance identity as a property over random event sequences

entry = st.floats(0.0, 50.0)


@st.composite
def balanced_ledger(draw):
    """A ledger whose equity is its assets less its liabilities."""
    ext, inter, cash, dep, ib = (draw(entry) for _ in range(5))
    return BankLedger(ext, inter, cash, dep, ib, equity=ext + inter + cash - dep - ib)


@st.composite
def ledger_event(draw, n_banks: int):
    """Any event on any bank, feasible or not: amounts up to twice the
    entries, counterparties anywhere in the book or outside it."""
    kind = draw(st.sampled_from(EVENT_KINDS))
    bank = draw(st.integers(0, n_banks - 1))
    counterparty = (draw(st.one_of(st.none(), st.integers(-1, n_banks)))
                    if kind == "interbank_lend" else None)
    return LedgerEvent(kind, draw(st.floats(1e-3, 100.0)), bank=bank,
                       counterparty=counterparty, interest=draw(st.floats(0.0, 5.0)))


def _feasible(ledgers, ev, haircut):
    """Whether `apply_event` should post `ev`: the precondition of its kind."""
    b = ledgers[ev.bank]
    a = ev.amount
    return {
        "issue_loan_single": True,
        "repay_with_interest": b.external_assets >= a and b.external_liabilities >= a,
        "default_loss": b.external_assets >= a,
        "lend_from_cash": b.cash >= a,
        "deposit_at_other": True,
        "interbank_lend": (ev.counterparty in range(len(ledgers))
                           and ev.counterparty != ev.bank and b.cash >= a),
        "central_bank_repo": b.external_assets >= a * (1.0 + haircut),
    }[ev.kind]


# money created (+) or destroyed (-) by each kind, in units of the amount
MONEY = {"issue_loan_single": 1.0, "repay_with_interest": -1.0, "deposit_at_other": 1.0}


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n_banks=st.integers(1, 4), haircut=st.floats(0.0, 0.5),
       n_events=st.integers(1, 25))
def test_every_event_keeps_the_identity_or_is_refused(data, n_banks, haircut, n_events):
    ledgers = data.draw(st.lists(balanced_ledger(), min_size=n_banks, max_size=n_banks))
    for _ in range(n_events):
        ev = data.draw(ledger_event(n_banks))
        before = list(ledgers)
        if not _feasible(ledgers, ev, haircut):
            with pytest.raises(LedgerError):
                apply_event(ledgers, ev, repo_haircut=haircut)
            assert ledgers == before
            continue
        ledgers, delta = apply_event(ledgers, ev, repo_haircut=haircut)
        for b in ledgers:
            assert abs(b.balance_residual()) < 1e-12
        assert delta == pytest.approx(MONEY.get(ev.kind, 0.0) * ev.amount, abs=1e-9)
        untouched = set(range(n_banks)) - {ev.bank, ev.counterparty}
        assert all(ledgers[k] == before[k] for k in untouched)
