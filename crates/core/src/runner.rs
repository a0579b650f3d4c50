//! The one entrant runner behind the rung ladder
//! ([`Minimizer::run_governed`]) and the form race
//! ([`Minimizer::run_portfolio`]), and the SP floor every path ends in:
//! "in the worst case, SP and SPP forms coincide" (paper §1).

use std::time::{Duration, Instant};

use spp_boolfn::{BoolFn, Cube};
use spp_obs::{Event, Form, Outcome, RunCtx, Rung};
use spp_sp::{SpForm, SpMinResult};

use crate::{Minimizer, Pseudocube, SppForm};

/// How the runner picks its answer among the accepted entrants.
pub(crate) enum Policy<'a, A> {
    /// The first accepted entrant answers (the rung ladder).
    FirstAccepted,
    /// The accepted entrant of least cost answers, ties going to the
    /// earlier entrant (the form race).
    Cheapest(&'a dyn Fn(&A) -> u64),
}

/// One element of an entrant list: a ladder rung or a raced form.
pub(crate) trait Entrant: Copy {
    /// The entrant the SP backstop runs as.
    const BACKSTOP: Self;
    fn started(self) -> Event;
    fn finished(self, outcome: Outcome, cost: Option<u64>, accepted: bool) -> Event;
}

impl Entrant for Rung {
    const BACKSTOP: Self = Rung::Sop;

    fn started(self) -> Event {
        Event::RungStarted { rung: self }
    }

    fn finished(self, outcome: Outcome, _cost: Option<u64>, accepted: bool) -> Event {
        Event::RungFinished { rung: self, outcome, accepted }
    }
}

impl Entrant for Form {
    const BACKSTOP: Self = Form::Sop;

    fn started(self) -> Event {
        Event::FormStarted { form: self }
    }

    fn finished(self, outcome: Outcome, cost: Option<u64>, accepted: bool) -> Event {
        Event::FormFinished { form: self, outcome, cost, accepted }
    }
}

/// What one entrant produced.
pub(crate) trait Answer {
    fn outcome(&self) -> Outcome;
    /// Whether the answer provably computes `f` (the independent check).
    fn realizes(&self, f: &BoolFn) -> bool;
    /// The SP backstop's answer for session `m`.
    fn backstop(m: &Minimizer<'_>) -> Self;
}

/// How one entrant fared.
pub(crate) struct Lap<E> {
    pub(crate) entrant: E,
    pub(crate) outcome: Outcome,
    /// The entrant's cost in a [`Policy::Cheapest`] race, when verified.
    pub(crate) cost: Option<u64>,
    pub(crate) wall: Duration,
    pub(crate) accepted: bool,
}

/// The SP floor: the SP minimum of `f` over its prime implicants
/// `primes`, and `ctx`'s stop reason after it. The cover runs on `ctx`'s
/// clock alone ([`RunCtx::clock`]), so it is greedy once the deadline has
/// passed or the token is cancelled; it emits no event and charges no
/// memory account. It generates no pseudocube, so it fits any budget.
pub(crate) fn sp_floor(
    f: &BoolFn,
    primes: &[Cube],
    limits: &spp_cover::Limits,
    ctx: &RunCtx,
) -> (SpMinResult, Outcome) {
    let mut limits = limits.clone();
    if ctx.stop_reason().is_some() {
        // A stopped run gets the greedy cover outright. The clock cannot
        // see a blown hard memory budget, but a run that blew it has
        // stopped as surely as one past its deadline.
        limits.max_exact_columns = 0;
    }
    let sp = spp_sp::cover_primes(f, primes, &limits, &ctx.clock());
    (sp, ctx.stop_reason().unwrap_or_default())
}

/// An SP form as an SPP form, each cube a pseudoproduct.
pub(crate) fn sp_as_spp(form: &SpForm) -> SppForm {
    SppForm::new(form.num_vars(), form.cubes().iter().map(Pseudocube::from_cube).collect())
}

impl Minimizer<'_> {
    /// The [`sp_floor`] of the session's function, on its clock.
    pub(crate) fn sp_floor(&self) -> (SpMinResult, Outcome) {
        let primes = spp_sp::prime_implicants(self.f);
        sp_floor(self.f, &primes, &self.options.cover_limits, &self.ctx)
    }

    /// Runs `entrants` in order and answers under `policy`, ending in the
    /// SP backstop when no entrant is accepted. Each entrant gets a fresh
    /// byte account (one entrant's spike must not disqualify the next)
    /// and is accepted iff its answer realizes `f` and did not end
    /// [`Outcome::MemoryExceeded`]. `run` returns `None` when the
    /// entrant's parameters do not apply to `f`; it is then skipped.
    /// Returns the answer and a lap per entrant run, backstop included.
    pub(crate) fn run_entrants<E: Entrant, A: Answer>(
        &self,
        entrants: impl IntoIterator<Item = E>,
        policy: Policy<'_, A>,
        mut run: impl FnMut(E) -> Option<A>,
    ) -> (A, Vec<Lap<E>>) {
        let mut laps = Vec::new();
        let mut best: Option<(A, u64)> = None;
        for entrant in entrants {
            self.ctx.governor().reset();
            self.ctx.emit(entrant.started());
            let start = Instant::now();
            let Some(answer) = run(entrant) else {
                self.ctx.emit(entrant.finished(Outcome::Completed, None, false));
                continue;
            };
            let outcome = answer.outcome();
            let verified = answer.realizes(self.f);
            let accepted = verified && outcome != Outcome::MemoryExceeded;
            let cost = match &policy {
                Policy::Cheapest(cost) if verified => Some(cost(&answer)),
                _ => None,
            };
            self.ctx.emit(entrant.finished(outcome, cost, accepted));
            laps.push(Lap { entrant, outcome, cost, wall: start.elapsed(), accepted });
            if !accepted {
                continue;
            }
            if matches!(policy, Policy::FirstAccepted) {
                return (answer, laps);
            }
            let cost = cost.unwrap_or(u64::MAX);
            // Strict `<`: ties stay with the earlier (canonical-order)
            // entrant, which pins the winner at any thread count.
            if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                best = Some((answer, cost));
            }
        }
        if let Some((answer, _)) = best {
            return (answer, laps);
        }
        let entrant = E::BACKSTOP;
        self.ctx.governor().reset();
        self.ctx.emit(entrant.started());
        let start = Instant::now();
        let answer = A::backstop(self);
        let outcome = answer.outcome();
        let cost = match &policy {
            Policy::Cheapest(cost) => Some(cost(&answer)),
            Policy::FirstAccepted => None,
        };
        self.ctx.emit(entrant.finished(outcome, cost, true));
        laps.push(Lap { entrant, outcome, cost, wall: start.elapsed(), accepted: true });
        (answer, laps)
    }
}
