//! The unified builder-style session API: [`Session`], seen as
//! [`Minimizer`] and [`MultiMinimizer`].
//!
//! Every minimization entry point of the workspace funnels through this
//! one builder, which owns the algorithm configuration
//! ([`SppOptions`]) *and* the run control ([`RunCtx`]: deadline,
//! cancellation, progress events). The serve daemon and the CLI reach
//! them through the transport-neutral [`crate::MinimizeRequest`] /
//! [`crate::MinimizeResponse`] pair, which is a thin layer over these
//! same sessions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_boolfn::{BoolFn, Cube};
use spp_obs::{CancelToken, EventSink, Outcome, RunCtx, Rung};
use spp_par::Parallelism;

use crate::generate::generate_eppp_session;
use crate::heuristic::{heuristic_from_cover_session, heuristic_session};
use crate::minimize::exact_session_cached;
use crate::multi::multi_session_cached;
use crate::restricted::restricted_session;
use crate::runner::{sp_as_spp, Answer, Policy};
use crate::{
    EpppSet, GenLimits, GenStats, Grouping, MultiSppResult, Pseudocube, SppCache, SppError,
    SppMinResult, SppOptions,
};

/// A configured minimization session on `f`, a [`BoolFn`] or a slice of
/// them: the one builder behind [`Minimizer`] and [`MultiMinimizer`].
///
/// Build one per run: algorithm knobs (`grouping`, `limits`,
/// `cover_limits`, `threads`) and run control (`deadline`, `cancel_token`,
/// `mem_budget`, `on_event`) chain fluently, then one of the `run_*` /
/// `generate` methods executes. The run's deadline is its only clock: on
/// deadline or cancellation every phase unwinds to a valid best-so-far
/// form and the cause is recorded in the result's `outcome`.
#[derive(Debug)]
pub struct Session<'f, I: ?Sized> {
    pub(crate) f: &'f I,
    pub(crate) options: SppOptions,
    pub(crate) ctx: RunCtx,
    pub(crate) cache: Option<SppCache>,
}

/// A configured single-output minimization session — the front door of the
/// crate. Its builder methods are [`Session`]'s.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spp_boolfn::BoolFn;
/// use spp_core::{Grouping, Minimizer, Outcome};
///
/// let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
/// let r = Minimizer::new(&f)
///     .grouping(Grouping::PartitionTrie)
///     .deadline(Duration::from_secs(5))
///     .run_exact();
/// assert!(r.form.check_realizes(&f).is_ok());
/// assert_eq!(r.outcome, Outcome::Completed);
/// assert_eq!(r.literal_count(), 4);
/// ```
pub type Minimizer<'f> = Session<'f, BoolFn>;

/// A configured multi-output minimization session: per-output EPPP
/// generation plus one shared covering problem in which each chosen
/// pseudoproduct's literals are paid once. Its builder methods are
/// [`Session`]'s.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_core::MultiMinimizer;
///
/// let f0 = BoolFn::from_truth_fn(3, |x| (x ^ (x >> 1)) & 1 == 1);
/// let f1 = BoolFn::from_truth_fn(3, |x| (x ^ (x >> 1)) & 1 == 1 && x & 0b100 != 0);
/// let r = MultiMinimizer::new(&[f0.clone(), f1.clone()]).run().unwrap();
/// assert!(r.forms[0].check_realizes(&f0).is_ok());
/// assert!(r.shared_literal_count <= r.separate_literal_count());
/// ```
pub type MultiMinimizer<'f> = Session<'f, [BoolFn]>;

// Not derived: a derive would require `I: Clone`, which `[BoolFn]` is not.
impl<I: ?Sized> Clone for Session<'_, I> {
    fn clone(&self) -> Self {
        Session {
            f: self.f,
            options: self.options.clone(),
            ctx: self.ctx.clone(),
            cache: self.cache.clone(),
        }
    }
}

impl<'f, I: ?Sized> Session<'f, I> {
    /// Starts a session on `f` with default options and no run control.
    #[must_use]
    pub fn new(f: &'f I) -> Self {
        Session { f, options: SppOptions::default(), ctx: RunCtx::default(), cache: None }
    }

    /// Replaces the whole option block at once.
    #[must_use]
    pub fn options(mut self, options: SppOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the structure-grouping strategy for candidate generation.
    #[must_use]
    pub fn grouping(mut self, grouping: Grouping) -> Self {
        self.options.grouping = grouping;
        self
    }

    /// Sets the generation budget.
    #[must_use]
    pub fn limits(mut self, limits: GenLimits) -> Self {
        self.options.gen_limits = limits;
        self
    }

    /// Sets the covering budget.
    #[must_use]
    pub fn cover_limits(mut self, limits: spp_cover::Limits) -> Self {
        self.options.cover_limits = limits;
        self
    }

    /// Caps the whole run (every output and phase, the SP floor
    /// included) to `budget` from now.
    #[must_use]
    pub fn deadline(self, budget: Duration) -> Self {
        self.deadline_at(Instant::now() + budget)
    }

    /// Caps the whole run with an absolute deadline.
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.ctx = self.ctx.cap_deadline(Some(deadline));
        self
    }

    /// Uses exactly `n` worker threads (`--threads`-style override; wins
    /// over the `SPP_THREADS` environment default).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.options.gen_limits.parallelism = Parallelism::fixed(n);
        self
    }

    /// Sets the full worker-thread policy (e.g. [`Parallelism::AUTO`]).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.options.gen_limits.parallelism = parallelism;
        self
    }

    /// Installs a cancellation token: the run stops cooperatively (with a
    /// valid best-so-far result) once the token is cancelled.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.ctx = self.ctx.with_cancel(token);
        self
    }

    /// Sets the session's memory-accounting budgets, in bytes. A blown
    /// `soft` budget degrades quality while the run completes (generation
    /// truncates, the covering step skips its exact refinement); a blown
    /// `hard` budget stops phases like a deadline, with
    /// [`Outcome::MemoryExceeded`] — and makes
    /// [`Minimizer::run_governed`] descend the ladder.
    #[must_use]
    pub fn mem_budget(mut self, soft: Option<u64>, hard: Option<u64>) -> Self {
        self.ctx = self.ctx.with_mem_budget(soft, hard);
        self
    }

    /// Installs a progress-event sink (see [`spp_obs::EventSink`]).
    #[must_use]
    pub fn on_event(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Attaches a cross-call result cache (see [`SppCache`]): a verified
    /// result hit skips both phases (for several outputs, a verified
    /// whole-circuit hit skips everything), a cached EPPP set skips that
    /// function's generation, and sibling results warm-start the covering
    /// search. Clones of one cache share a store, so many sessions can
    /// feed each other.
    #[must_use]
    pub fn cache(mut self, cache: SppCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configured run-control context (for composing with the lower
    /// level `spp_cover` API).
    #[must_use]
    pub fn run_ctx(&self) -> &RunCtx {
        &self.ctx
    }
}

impl Minimizer<'_> {
    /// Generates the EPPP candidate set (Algorithm 2 steps 1–2) without
    /// covering: successive unions of same-structure pseudocubes starting
    /// from single points, where a pseudocube with `h` literals is
    /// discarded only when a one-step union covers it with at most `h`
    /// literals. The retained set always covers the ON-set, so a valid
    /// cover exists even when the limits truncate the run.
    #[must_use]
    pub fn generate(&self) -> EpppSet {
        // Only the unrestricted set is cacheable: a `generate_where`
        // predicate is an arbitrary closure with no stable cache key.
        if let Some(cache) = &self.cache {
            if let Some(set) =
                cache.get_eppp(self.f, self.options.grouping, 0, &self.ctx)
            {
                return set;
            }
            let set = self.generate_where(&|_| true);
            cache.put_eppp(self.f, self.options.grouping, 0, &set, &self.ctx);
            return set;
        }
        self.generate_where(&|_| true)
    }

    /// [`Minimizer::generate`] restricted to a *conforming* family of
    /// pseudoproducts (e.g. bounded factor width for `k`-SPP synthesis).
    /// Non-conforming pseudocubes are still traversed — their unions may
    /// lead back into the family — but never retained as candidates, and
    /// only a conforming union may discard its halves. The predicate must
    /// be `Sync`: workers call it concurrently when the sweep runs
    /// parallel.
    #[must_use]
    pub fn generate_where(
        &self,
        conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
    ) -> EpppSet {
        generate_eppp_session(
            self.f,
            self.options.grouping,
            &self.options.gen_limits,
            conforming,
            &self.ctx,
        )
    }

    /// Runs the exact minimizer — the paper's **Algorithm 2** (EPPP
    /// generation + minimum-literal covering).
    #[must_use]
    pub fn run_exact(&self) -> SppMinResult {
        exact_session_cached(self.f, &self.options, &self.ctx, self.cache.as_ref())
    }

    /// Runs the incremental heuristic — the paper's **Algorithm 3**
    /// (`SPP_k` forms) — seeded with the SP prime implicants.
    ///
    /// # Errors
    ///
    /// [`SppError::HeuristicK`] when `k` is outside `0 ≤ k < n`.
    pub fn run_heuristic(&self, k: usize) -> Result<SppMinResult, SppError> {
        let r = heuristic_session(self.f, k, &self.options, &self.ctx)?;
        if let Some(cache) = &self.cache {
            cache.put_warm_form(self.f, Rung::Heuristic, r.form.terms(), &self.ctx);
        }
        Ok(r)
    }

    /// [`Minimizer::run_heuristic`] seeded by an arbitrary cube cover.
    ///
    /// # Errors
    ///
    /// [`SppError::HeuristicK`] when `k` is out of range,
    /// [`SppError::SeedNotACover`] / [`SppError::SeedNotImplicant`] when
    /// the seed violates its contract.
    pub fn run_heuristic_from_cover(
        &self,
        cover: &[Cube],
        k: usize,
    ) -> Result<SppMinResult, SppError> {
        heuristic_from_cover_session(self.f, cover, k, &self.options, &self.ctx)
    }

    /// Runs the width-restricted minimizer (`k`-SPP: every EXOR factor has
    /// at most `max_factor_literals` literals; 2 gives the classical
    /// 2-SPP form).
    ///
    /// # Errors
    ///
    /// [`SppError::ZeroFactorWidth`] when `max_factor_literals == 0`.
    pub fn run_restricted(
        &self,
        max_factor_literals: usize,
    ) -> Result<SppMinResult, SppError> {
        let r = restricted_session(self.f, max_factor_literals, &self.options, &self.ctx)?;
        if let Some(cache) = &self.cache {
            cache.put_warm_form(self.f, Rung::RestrictedExact, r.form.terms(), &self.ctx);
        }
        Ok(r)
    }

    /// Runs the resource-governed degradation ladder: **exact** SPP
    /// (Algorithm 2) → **restricted exact** (2-SPP, a far smaller search
    /// space) → **heuristic** (`SPP_0`, Algorithm 3) → **SP fallback**
    /// (cubes only — always within reach).
    ///
    /// The ladder is the crate's one entrant runner with the
    /// *first-accepted* policy; the form race
    /// ([`run_portfolio`](Self::run_portfolio)) is the same runner with
    /// the *cheapest* policy. Each rung runs under the session's
    /// [`mem_budget`](Self::mem_budget) with the byte account reset
    /// first, and its result is independently verified against `f`. The
    /// first rung that verifies *and* stays within the hard budget is the
    /// answer; a rung ending with [`Outcome::MemoryExceeded`] (or failing
    /// verification — defense in depth) makes the ladder descend, and the
    /// runner's SP backstop is the bottom rung. [`SppMinResult::rung`]
    /// records which rung produced the returned form, and `RungStarted` /
    /// `RungFinished` events trace the descent.
    ///
    /// A deadline or cancellation does *not* descend: the rung's
    /// best-so-far form is already the best answer the remaining time
    /// allows. Without a memory budget this behaves like
    /// [`run_exact`](Self::run_exact) plus ladder events.
    #[must_use]
    pub fn run_governed(&self) -> SppMinResult {
        let rungs = [Rung::Exact, Rung::RestrictedExact, Rung::Heuristic];
        let (r, _) = self.run_entrants(rungs, Policy::FirstAccepted, |rung| {
            let mut r = match rung {
                Rung::Exact => {
                    exact_session_cached(self.f, &self.options, &self.ctx, self.cache.as_ref())
                }
                Rung::RestrictedExact => {
                    restricted_session(self.f, 2, &self.options, &self.ctx).ok()?
                }
                _ => heuristic_session(self.f, 0, &self.options, &self.ctx).ok()?,
            };
            r.rung = rung;
            r.faults = self.ctx.faults();
            Some(r)
        });
        // A lower generating rung's form warm-starts later exact covers.
        if matches!(r.rung, Rung::RestrictedExact | Rung::Heuristic) {
            if let Some(cache) = &self.cache {
                cache.put_warm_form(self.f, r.rung, r.form.terms(), &self.ctx);
            }
        }
        r
    }
}

impl Answer for SppMinResult {
    fn outcome(&self) -> Outcome {
        self.outcome
    }

    fn realizes(&self, f: &BoolFn) -> bool {
        self.form.check_realizes(f).is_ok()
    }

    fn backstop(m: &Minimizer<'_>) -> Self {
        let start = Instant::now();
        let (sp, outcome) = m.sp_floor();
        let form = sp_as_spp(&sp.form);
        SppMinResult {
            num_candidates: form.num_pseudoproducts(),
            form,
            // An SP form is an upper bound on the minimal SPP form.
            optimal: false,
            gen_stats: GenStats::default(),
            gen_elapsed: start.elapsed(),
            cover_elapsed: Duration::ZERO,
            outcome,
            rung: Rung::Sop,
            faults: m.ctx.faults(),
        }
    }
}

impl MultiMinimizer<'_> {
    /// Runs the shared-term multi-output minimization.
    ///
    /// # Errors
    ///
    /// [`SppError::NoOutputs`] on an empty slice,
    /// [`SppError::MixedVariableCounts`] when outputs disagree on the
    /// variable count.
    pub fn run(&self) -> Result<MultiSppResult, SppError> {
        multi_session_cached(self.f, &self.options, &self.ctx, self.cache.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_obs::{Event, Outcome};
    use std::sync::Mutex;

    #[test]
    fn builder_chain_configures_everything() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f)
            .grouping(Grouping::HashMap)
            .limits(GenLimits::default().with_max_pseudocubes(50_000))
            .cover_limits(spp_cover::Limits::default())
            .threads(2)
            .deadline(Duration::from_secs(10))
            .run_exact();
        assert_eq!(r.literal_count(), 3);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.optimal);
    }

    #[test]
    fn session_events_cover_both_phases() {
        struct Log(Mutex<Vec<String>>);
        impl EventSink for Log {
            fn emit(&self, event: &Event) {
                self.0.lock().unwrap().push(event.to_json());
            }
        }
        let log = Arc::new(Log(Mutex::new(Vec::new())));
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).on_event(log.clone()).run_exact();
        assert!(r.optimal);
        let lines = log.0.lock().unwrap();
        let text = lines.join("\n");
        assert!(text.contains("\"phase_started\""));
        assert!(text.contains("\"generate\""));
        assert!(text.contains("\"cover\""));
        assert!(text.contains("\"gen_level_finished\""));
        assert!(text.contains("\"cover_finished\""));
        // Phase events bracket properly: generate starts first, cover
        // finishes last.
        assert!(lines.first().unwrap().contains("generate"));
        assert!(lines.last().unwrap().contains("phase_finished"));
    }

    #[test]
    fn cancel_token_stops_a_session() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let token = CancelToken::new();
        token.cancel();
        let r = Minimizer::new(&f).cancel_token(token).run_exact();
        assert_eq!(r.outcome, Outcome::Cancelled);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn heuristic_and_restricted_run_through_the_session() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let h = Minimizer::new(&f).run_heuristic(0).unwrap();
        assert!(h.form.check_realizes(&f).is_ok());
        let r = Minimizer::new(&f).run_restricted(2).unwrap();
        assert!(r.form.check_realizes(&f).is_ok());
        assert!(Minimizer::new(&f).run_heuristic(9).is_err());
        assert!(Minimizer::new(&f).run_restricted(0).is_err());
    }

    #[test]
    fn governed_run_without_budget_stays_on_the_exact_rung() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).run_governed();
        assert_eq!(r.rung, Rung::Exact);
        assert_eq!(r.literal_count(), 3);
        assert!(r.optimal);
        assert!(r.faults.is_empty());
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn impossible_hard_budget_descends_to_the_sp_fallback() {
        struct Log(Mutex<Vec<String>>);
        impl EventSink for Log {
            fn emit(&self, event: &Event) {
                self.0.lock().unwrap().push(event.to_json());
            }
        }
        let log = Arc::new(Log(Mutex::new(Vec::new())));
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        // One byte: every generating rung trips MemoryExceeded, only the
        // SP fallback (which allocates no pseudocube pool) survives.
        let r = Minimizer::new(&f)
            .mem_budget(None, Some(1))
            .on_event(log.clone())
            .run_governed();
        assert_eq!(r.rung, Rung::Sop);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
        let text = log.0.lock().unwrap().join("\n");
        for rung in ["exact", "restricted_exact", "heuristic"] {
            assert!(
                text.contains(&format!(
                    "{{\"event\":\"rung_finished\",\"rung\":\"{rung}\",\
                     \"outcome\":\"memory_exceeded\",\"accepted\":false}}"
                )),
                "missing descent record for {rung} in:\n{text}"
            );
        }
        assert!(text.contains("\"rung\":\"sop\",\"outcome\":\"completed\",\"accepted\":true"));
    }

    #[test]
    fn calibrated_hard_budget_lands_on_a_lower_generating_rung() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1 || x.count_ones() >= 4);
        // Measure what each rung actually charges, then pick a budget
        // between the heuristic's appetite and the exact algorithm's.
        let exact = Minimizer::new(&f).threads(1).mem_budget(None, None);
        let _ = exact.run_exact();
        let exact_bytes = exact.run_ctx().governor().bytes();
        let heur = Minimizer::new(&f).threads(1).mem_budget(None, None);
        let _ = heur.run_heuristic(0).unwrap();
        let heur_bytes = heur.run_ctx().governor().bytes();
        assert!(
            heur_bytes < exact_bytes,
            "calibration broke: heuristic {heur_bytes} >= exact {exact_bytes}"
        );
        let budget = heur_bytes + (exact_bytes - heur_bytes) / 2;
        let r = Minimizer::new(&f)
            .threads(1)
            .mem_budget(None, Some(budget))
            .run_governed();
        // The exact rung cannot fit; some lower rung must have been
        // accepted with a verified form.
        assert!(r.rung > Rung::Exact, "budget {budget} did not trip the exact rung");
        assert!(r.form.check_realizes(&f).is_ok());
        assert!(r.outcome.is_completed(), "accepted rung ended {}", r.outcome);
    }

    #[test]
    fn degenerate_inputs_minimize_at_one_and_four_threads() {
        for threads in [1usize, 4] {
            let zero = BoolFn::from_indices(4, &[]);
            let r = Minimizer::new(&zero).threads(threads).run_exact();
            assert_eq!(r.form.num_pseudoproducts(), 0, "threads={threads}");
            assert!(r.form.check_realizes(&zero).is_ok(), "threads={threads}");
            let r = Minimizer::new(&zero).threads(threads).run_governed();
            assert!(r.form.check_realizes(&zero).is_ok(), "threads={threads}");

            let one = BoolFn::from_truth_fn(4, |_| true);
            let r = Minimizer::new(&one).threads(threads).run_exact();
            assert_eq!(r.literal_count(), 0, "threads={threads}");
            assert!(r.form.check_realizes(&one).is_ok(), "threads={threads}");
            let r = Minimizer::new(&one).threads(threads).run_governed();
            assert!(r.form.check_realizes(&one).is_ok(), "threads={threads}");

            let single = BoolFn::from_indices(4, &[0b1010]);
            for r in [
                Minimizer::new(&single).threads(threads).run_exact(),
                Minimizer::new(&single).threads(threads).run_governed(),
                Minimizer::new(&single).threads(threads).run_heuristic(0).unwrap(),
                Minimizer::new(&single).threads(threads).run_restricted(2).unwrap(),
            ] {
                assert_eq!(r.form.num_pseudoproducts(), 1, "threads={threads}");
                assert_eq!(r.literal_count(), 4, "threads={threads}");
                assert!(r.form.check_realizes(&single).is_ok(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sessions_report_their_own_rung() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        assert_eq!(Minimizer::new(&f).run_exact().rung, Rung::Exact);
        assert_eq!(Minimizer::new(&f).run_heuristic(0).unwrap().rung, Rung::Heuristic);
        assert_eq!(
            Minimizer::new(&f).run_restricted(2).unwrap().rung,
            Rung::RestrictedExact
        );
    }

    #[test]
    fn generate_matches_an_explicitly_configured_session() {
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]);
        let new = Minimizer::new(&f).generate();
        let explicit = Minimizer::new(&f)
            .grouping(Grouping::PartitionTrie)
            .generate_where(&|_| true);
        assert_eq!(new.pseudocubes, explicit.pseudocubes);
        assert_eq!(new.stats.comparisons, explicit.stats.comparisons);
        assert_eq!(new.stats.total_generated, explicit.stats.total_generated);
        assert_eq!(new.stats.outcome, explicit.stats.outcome);
    }
}
