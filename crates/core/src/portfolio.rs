//! Multi-form portfolio racing: SPP vs ESOP vs DSOP vs SOP.
//!
//! The paper's central claim is comparative — SPP forms are on average
//! about half the size of the corresponding SOP forms — and the natural
//! way to *use* that claim is to race the forms and keep the cheapest
//! verified realization. [`FormPortfolio`] configures the race (which
//! forms, which cost [`Objective`]); [`Minimizer::run_portfolio`] runs
//! every entrant under the session's shared deadline and memory budget,
//! independently verifies each result against the input function, and
//! returns a [`PortfolioResult`] naming the winner plus a
//! [`PortfolioReport`] per entrant.
//!
//! The race and the resource-governed *rung* ladder
//! ([`Minimizer::run_governed`]) are one entrant runner with two
//! policies: the ladder takes the first accepted rung, the race the
//! cheapest accepted form. Either way each entrant gets a governor reset
//! (so one entrant's memory spike cannot disqualify the next), an entrant
//! that ends in [`Outcome::MemoryExceeded`] or fails verification is not
//! accepted, and one SP backstop — a plain SOP cover here, the ladder's
//! bottom rung there — answers when no entrant is accepted. Forms always
//! run in the fixed [`Form::ALL`] order and ties break toward the earlier
//! form, so for completed races the winner and its cost are
//! bit-identical at any thread count.

use std::fmt;
use std::time::Duration;

use spp_boolfn::BoolFn;
use spp_dsop::DsopForm;
use spp_esop::{EsopForm, EsopLimits};
use spp_obs::{Form, Outcome, Rung};
use spp_sp::SpForm;

use crate::runner::{Answer, Policy};
use crate::session::Minimizer;
use crate::SppForm;

/// The widest function the cube-form engines take: ESOP minimization and
/// every cube form's verification expand the truth table.
pub(crate) const CUBE_FORM_MAX_INPUTS: usize = 24;

/// What the race minimizes.
///
/// Literal count is the paper's cost function and the default. Gate
/// count prices the two-input network the form maps to — where an XOR
/// gate is *not* the same price as an AND or OR (in CMOS an XOR2 is
/// roughly two NAND-equivalents), so an EXOR-heavy form that wins on
/// literals can lose on gates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Total literal count across the form (the paper's §2 cost).
    #[default]
    Literals,
    /// Weighted two-input gate count: AND2 and OR2 cost 1, XOR2 costs 2,
    /// inverters are free (absorbed into adjacent gates).
    Gates,
}

impl Objective {
    const ALL: [Objective; 2] = [Objective::Literals, Objective::Gates];

    /// The wire name (`literals` / `gates`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::Literals => "literals",
            Objective::Gates => "gates",
        }
    }

    /// Parses a wire name; `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Objective> {
        Self::ALL.into_iter().find(|v| v.as_str() == s)
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The race configuration: which forms enter and what they are judged
/// on. An empty form list means *all* forms ([`Form::ALL`]).
///
/// # Examples
///
/// ```
/// use spp_core::{FormPortfolio, Objective};
/// use spp_obs::Form;
///
/// let race = FormPortfolio::new()
///     .forms(vec![Form::Esop, Form::Sop])
///     .objective(Objective::Gates);
/// assert_eq!(race.entrants(), vec![Form::Esop, Form::Sop]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FormPortfolio {
    forms: Vec<Form>,
    objective: Objective,
}

impl FormPortfolio {
    /// A race of all forms on the literal-count objective.
    #[must_use]
    pub fn new() -> Self {
        FormPortfolio::default()
    }

    /// Restricts the race to `forms` (duplicates and order are ignored;
    /// the race always runs in [`Form::ALL`] order). Empty means all.
    #[must_use]
    pub fn forms(mut self, forms: Vec<Form>) -> Self {
        self.forms = forms;
        self
    }

    /// Sets the cost function.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The requested form subset, exactly as configured (empty = all).
    #[must_use]
    pub fn requested(&self) -> &[Form] {
        &self.forms
    }

    /// The configured objective.
    #[must_use]
    pub fn cost_objective(&self) -> Objective {
        self.objective
    }

    /// The forms that will actually race, in running order.
    #[must_use]
    pub fn entrants(&self) -> Vec<Form> {
        Form::ALL
            .into_iter()
            .filter(|f| self.forms.is_empty() || self.forms.contains(f))
            .collect()
    }
}

/// A minimized realization in whichever form won (or raced).
#[derive(Clone, Debug)]
pub enum FormRealization {
    /// A Sum-of-Pseudoproducts form.
    Spp(SppForm),
    /// An Exclusive-or Sum-of-Products form.
    Esop(EsopForm),
    /// A Disjoint Sum-of-Products form.
    Dsop(DsopForm),
    /// A plain Sum-of-Products form.
    Sop(SpForm),
}

impl FormRealization {
    /// Which form this realization is in.
    #[must_use]
    pub fn form(&self) -> Form {
        match self {
            FormRealization::Spp(_) => Form::Spp,
            FormRealization::Esop(_) => Form::Esop,
            FormRealization::Dsop(_) => Form::Dsop,
            FormRealization::Sop(_) => Form::Sop,
        }
    }

    /// The number of terms (pseudoproducts or products).
    #[must_use]
    pub fn num_terms(&self) -> usize {
        match self {
            FormRealization::Spp(f) => f.num_pseudoproducts(),
            FormRealization::Esop(f) => f.num_products(),
            FormRealization::Dsop(f) => f.num_products(),
            FormRealization::Sop(f) => f.num_products(),
        }
    }

    /// The total literal count.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        match self {
            FormRealization::Spp(f) => f.literal_count(),
            FormRealization::Esop(f) => f.literal_count(),
            FormRealization::Dsop(f) => f.literal_count(),
            FormRealization::Sop(f) => f.literal_count(),
        }
    }

    /// Lifts a realization over the variables `vars` (increasing) into
    /// `B^n`: every term keeps its literals and ignores the other inputs.
    /// Costs under either [`Objective`] are unchanged.
    pub(crate) fn lift(&self, n: usize, vars: &[usize]) -> FormRealization {
        let cubes = |cubes: &[spp_boolfn::Cube]| cubes.iter().map(|c| c.lift(n, vars)).collect();
        match self {
            FormRealization::Spp(form) => FormRealization::Spp(SppForm::new(
                n,
                form.terms().iter().map(|t| t.lift(n, vars)).collect(),
            )),
            FormRealization::Esop(form) => {
                FormRealization::Esop(EsopForm::new(n, cubes(form.cubes())))
            }
            FormRealization::Dsop(form) => {
                FormRealization::Dsop(DsopForm::new(n, cubes(form.cubes())))
            }
            FormRealization::Sop(form) => FormRealization::Sop(SpForm::new(n, cubes(form.cubes()))),
        }
    }

    /// Whether the realization provably computes `f`, under the *form's
    /// own* semantics (OR of terms for SPP/SOP, XOR of cubes for ESOP,
    /// disjointness plus coverage for DSOP).
    #[must_use]
    pub fn realizes(&self, f: &BoolFn) -> bool {
        match self {
            FormRealization::Spp(form) => form.check_realizes(f).is_ok(),
            FormRealization::Esop(form) => form.realizes(f),
            FormRealization::Dsop(form) => form.realizes(f),
            FormRealization::Sop(form) => form.realizes(f),
        }
    }

    /// The realization's cost under `objective`.
    ///
    /// Under [`Objective::Gates`] every form is priced as a tree of
    /// two-input gates, mirroring the netlist builder's construction:
    /// a `w`-literal EXOR factor is `w−1` XOR2 gates (weight 2 each), a
    /// `k`-factor pseudoproduct adds `k−1` AND2 gates, an `l`-literal
    /// product is `l−1` AND2 gates, and `m` terms combine with `m−1` OR2
    /// gates — XOR2 for ESOP, whose sum *is* a parity. Inverters are
    /// free.
    #[must_use]
    pub fn cost(&self, objective: Objective) -> u64 {
        match objective {
            Objective::Literals => self.literal_count(),
            Objective::Gates => match self {
                FormRealization::Spp(form) => {
                    let mut cost = 0u64;
                    for term in form.terms() {
                        let cex = term.cex();
                        for factor in cex.factors() {
                            cost += 2 * u64::from(factor.literal_count()).saturating_sub(1);
                        }
                        cost += (cex.factors().len() as u64).saturating_sub(1);
                    }
                    cost + (form.num_pseudoproducts() as u64).saturating_sub(1)
                }
                FormRealization::Esop(form) => gate_cost_cubes(form.cubes(), 2),
                FormRealization::Dsop(form) => gate_cost_cubes(form.cubes(), 1),
                FormRealization::Sop(form) => gate_cost_cubes(form.cubes(), 1),
            },
        }
    }
}

impl fmt::Display for FormRealization {
    /// Delegates to the underlying form's algebraic rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormRealization::Spp(form) => form.fmt(f),
            FormRealization::Esop(form) => form.fmt(f),
            FormRealization::Dsop(form) => form.fmt(f),
            FormRealization::Sop(form) => form.fmt(f),
        }
    }
}

/// AND-tree per cube plus a combine tree across cubes, with the combine
/// gate weighted (1 for OR2, 2 for XOR2).
fn gate_cost_cubes(cubes: &[spp_boolfn::Cube], combine_weight: u64) -> u64 {
    let ands: u64 =
        cubes.iter().map(|c| u64::from(c.literal_count()).saturating_sub(1)).sum();
    ands + combine_weight * (cubes.len() as u64).saturating_sub(1)
}

/// How one entrant fared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioReport {
    /// The form that ran.
    pub form: Form,
    /// How its run ended.
    pub outcome: Outcome,
    /// Its cost under the race objective — `None` if the result failed
    /// verification (in which case it never competes).
    pub cost: Option<u64>,
    /// Wall-clock time this entrant took.
    pub wall: Duration,
    /// Whether the entrant competed: verified and within the memory
    /// budget.
    pub accepted: bool,
}

/// The race outcome: the cheapest verified realization plus the full
/// per-entrant scoreboard.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The winning form.
    pub winner: Form,
    /// The winning realization (always verified against the input).
    pub realization: FormRealization,
    /// The winner's cost under the race objective.
    pub cost: u64,
    /// Whether the winner's engine *proved* optimality within its own
    /// form (never across forms: a proved-minimal ESOP says nothing
    /// about the minimal SPP).
    pub optimal: bool,
    /// The winning entrant's outcome.
    pub outcome: Outcome,
    /// The degradation rung the winner corresponds to, for hosts that
    /// report rungs: the governed ladder's own rung for an SPP winner,
    /// [`Rung::Sop`] for a SOP winner, and exact/heuristic for the cube
    /// engines depending on whether optimality was proved.
    pub rung: Rung,
    /// One report per entrant, in running order (plus the SOP backstop
    /// if the race needed it).
    pub reports: Vec<PortfolioReport>,
}

impl Minimizer<'_> {
    /// Races the configured forms and returns the cheapest *verified*
    /// realization under the portfolio's objective.
    ///
    /// This is the entrant runner behind [`run_governed`](Self::run_governed)
    /// with the *cheapest* policy in place of the ladder's
    /// *first-accepted* one. All entrants share this session's deadline,
    /// cancellation token and memory budget; the byte account is reset
    /// before each form (like the rung ladder) so one entrant's spike
    /// cannot disqualify the next. Entrants run in [`Form::ALL`] order,
    /// each result is verified against `f` under its own form semantics,
    /// and ties break toward the earlier form — so a completed race
    /// returns the same winner and cost at any thread count.
    /// [`Event::FormStarted`](spp_obs::Event::FormStarted) /
    /// [`Event::FormFinished`](spp_obs::Event::FormFinished) trace the race;
    /// if every requested entrant is excluded (memory-exceeded or
    /// unverified), the runner's SP backstop answers with a plain SOP
    /// cover, as the ladder's bottom rung does.
    ///
    /// ESOP, DSOP and SOP results of *complete* runs are cached per form
    /// when the session has a cache, so re-racing a function warms every
    /// lane, not just the SPP one.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    /// use spp_core::{FormPortfolio, Minimizer};
    /// use spp_obs::Form;
    ///
    /// // Parity: SPP and ESOP collapse to x0⊕x1⊕x2⊕x3 (4 literals);
    /// // SOP needs 8 products of 4 literals. The tie breaks to SPP.
    /// let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
    /// let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
    /// assert_eq!((r.winner, r.cost), (Form::Spp, 4));
    /// assert!(r.realization.realizes(&f));
    /// assert_eq!(r.reports.len(), 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `f.num_vars() > 24` and the race includes a cube form
    /// (ESOP, DSOP or SOP): those engines and their verification expand
    /// the truth table. [`crate::execute_fns`] answers such a request
    /// with a typed error instead.
    #[must_use]
    pub fn run_portfolio(&self, portfolio: &FormPortfolio) -> PortfolioResult {
        let objective = portfolio.cost_objective();
        let cost = |answer: &FormAnswer| answer.realization.cost(objective);
        let (best, laps) = self.run_entrants(
            portfolio.entrants(),
            Policy::Cheapest(&cost),
            |form| Some(self.run_form(form)),
        );
        PortfolioResult {
            winner: best.realization.form(),
            cost: cost(&best),
            realization: best.realization,
            optimal: best.optimal,
            outcome: best.outcome,
            rung: best.rung,
            reports: laps
                .into_iter()
                .map(|lap| PortfolioReport {
                    form: lap.entrant,
                    outcome: lap.outcome,
                    cost: lap.cost,
                    wall: lap.wall,
                    accepted: lap.accepted,
                })
                .collect(),
        }
    }

    /// Runs one entrant. SPP runs the governed rung ladder (its results
    /// flow through the result and EPPP caches there); the cube forms go
    /// through the per-form cache, and a *complete* run's cubes are
    /// inserted into it. Partial (deadline- or cancel-truncated) results
    /// are budget-dependent best-so-far data and are never stored.
    fn run_form(&self, form: Form) -> FormAnswer {
        if form == Form::Spp {
            let r = self.run_governed();
            let (optimal, outcome, rung) = (r.optimal, r.outcome, r.rung);
            return FormAnswer { realization: FormRealization::Spp(r.form), optimal, outcome, rung };
        }
        let cache = self.cache.as_ref();
        let cached = cache.and_then(|c| c.get_form_cubes(self.f, form, &self.options, &self.ctx));
        let (cubes, optimal, outcome) = match cached {
            Some((cubes, optimal)) => (cubes, optimal, Outcome::Completed),
            None => {
                let (cubes, optimal, outcome) = match form {
                    Form::Esop => {
                        let r = spp_esop::minimize_esop(self.f, &EsopLimits::default(), &self.ctx);
                        (r.form.cubes().to_vec(), r.optimal, r.outcome)
                    }
                    Form::Dsop => {
                        let r =
                            spp_dsop::minimize_dsop(self.f, &self.options.cover_limits, &self.ctx);
                        (r.form.cubes().to_vec(), r.optimal, r.outcome)
                    }
                    _ => {
                        let (sp, outcome) = self.sp_floor();
                        (sp.form.cubes().to_vec(), sp.optimal, outcome)
                    }
                };
                if let Some(cache) = cache.filter(|_| outcome == Outcome::Completed) {
                    cache.put_form_cubes(self.f, form, &self.options, &cubes, optimal, &self.ctx);
                }
                (cubes, optimal, outcome)
            }
        };
        let n = self.f.num_vars();
        let cube_rung = if optimal { Rung::Exact } else { Rung::Heuristic };
        let (realization, rung) = match form {
            Form::Esop => (FormRealization::Esop(EsopForm::new(n, cubes)), cube_rung),
            Form::Dsop => (FormRealization::Dsop(DsopForm::new(n, cubes)), cube_rung),
            _ => (FormRealization::Sop(SpForm::new(n, cubes)), Rung::Sop),
        };
        FormAnswer { realization, optimal, outcome, rung }
    }
}

/// A realization with its run verdict: what one race entrant, or one
/// output of a request, answered.
pub(crate) struct FormAnswer {
    pub(crate) realization: FormRealization,
    pub(crate) optimal: bool,
    pub(crate) outcome: Outcome,
    pub(crate) rung: Rung,
}

impl Answer for FormAnswer {
    fn outcome(&self) -> Outcome {
        self.outcome
    }

    fn realizes(&self, f: &BoolFn) -> bool {
        self.realization.realizes(f)
    }

    fn backstop(m: &Minimizer<'_>) -> Self {
        let (sp, outcome) = m.sp_floor();
        // The backstop never proves optimality (and a *governed* SOP
        // entrant that lost verification would not have either).
        let realization = FormRealization::Sop(sp.form);
        FormAnswer { realization, optimal: false, outcome, rung: Rung::Sop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SppCache;
    use spp_obs::{JsonLinesSink, Outcome, RunCtx};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parity_ties_break_to_spp() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
        assert_eq!(r.winner, Form::Spp);
        assert_eq!(r.cost, 4);
        assert!(r.realization.realizes(&f));
        assert_eq!(r.reports.len(), 4);
        assert!(r.reports.iter().all(|rep| rep.accepted));
        // Winner's cost is ≤ every entrant's cost — the race invariant.
        assert!(r.reports.iter().all(|rep| rep.cost.is_none_or(|c| r.cost <= c)));
    }

    #[test]
    fn esop_can_beat_spp_on_gates_vs_literals() {
        // Every accepted race satisfies the invariant under both
        // objectives, and costs are internally consistent.
        let f = BoolFn::from_truth_fn(4, |x| x % 5 == 1 || x % 7 == 3);
        for objective in [Objective::Literals, Objective::Gates] {
            let race = FormPortfolio::new().objective(objective);
            let r = Minimizer::new(&f).run_portfolio(&race);
            assert!(r.realization.realizes(&f), "{objective}");
            assert_eq!(r.cost, r.realization.cost(objective));
            assert!(r.reports.iter().all(|rep| rep.cost.is_none_or(|c| r.cost <= c)));
        }
    }

    #[test]
    fn restricted_race_runs_only_requested_forms() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
        let race = FormPortfolio::new().forms(vec![Form::Sop, Form::Esop]);
        assert_eq!(race.entrants(), vec![Form::Esop, Form::Sop]);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let ran: Vec<Form> = r.reports.iter().map(|rep| rep.form).collect();
        assert_eq!(ran, vec![Form::Esop, Form::Sop]);
        assert!(r.realization.realizes(&f));
    }

    #[test]
    fn race_emits_form_events_in_canonical_order() {
        let f = BoolFn::from_truth_fn(3, |x| x != 0 && x != 7);
        let buf = Buf::default();
        let ctx = RunCtx::new().with_sink(Arc::new(JsonLinesSink::new(buf.clone())));
        let m = {
            let mut m = Minimizer::new(&f);
            m.ctx = ctx;
            m
        };
        let _ = m.run_portfolio(&FormPortfolio::new());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let started: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"form_started\""))
            .collect();
        assert_eq!(started.len(), 4);
        for (line, name) in started.iter().zip(["spp", "esop", "dsop", "sop"]) {
            assert!(line.contains(name), "{line} should be {name}");
        }
        assert_eq!(text.lines().filter(|l| l.contains("\"form_finished\"")).count(), 4);
    }

    #[test]
    fn warm_race_hits_every_form_lane() {
        let cache = SppCache::in_memory(4 * 1024 * 1024);
        let f = BoolFn::from_truth_fn(4, |x| x % 3 == 1);
        let race = FormPortfolio::new();
        let cold = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        let baseline = cache.stats().hits;
        let warm = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        assert_eq!(cold.winner, warm.winner);
        assert_eq!(cold.cost, warm.cost);
        // At least the three cube lanes hit (the SPP lane has its own
        // result cache, counted separately).
        assert!(cache.stats().hits >= baseline + 3, "stats: {:?}", cache.stats());
        assert!(warm.reports.iter().all(|rep| rep.outcome == Outcome::Completed));
    }

    #[test]
    fn gate_costs_weight_xor_double() {
        // x0·x1 + x̄0·x̄1 as DSOP/SOP: 2 AND2 + 1 OR2 = 3.
        // Its ESOP needs the same cubes but an XOR combine: 2 + 2 = 4.
        let f = BoolFn::from_truth_fn(2, |x| x == 0 || x == 3);
        let race = FormPortfolio::new().objective(Objective::Gates);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let by_form = |form: Form| {
            r.reports.iter().find(|rep| rep.form == form).and_then(|rep| rep.cost)
        };
        assert_eq!(by_form(Form::Sop), Some(3));
        assert_eq!(by_form(Form::Dsop), Some(3));
        // SPP on this function is the 2-literal factor chain
        // (x0⊕x̄1): one XOR2 = 2.
        assert_eq!(by_form(Form::Spp), Some(2));
        assert_eq!(r.winner, Form::Spp);
    }
}
