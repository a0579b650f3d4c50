//! Disjoint Sum-of-Products (DSOP) minimization.
//!
//! A DSOP is an SOP whose products are pairwise disjoint — no point is
//! covered twice. Disjointness buys two things: the OR is also an XOR
//! (every DSOP is an ESOP), and the form directly gives the function's
//! minterm count as the sum of its products' sizes, which is why DSOPs
//! appear as the seed of spectral and ESOP-synthesis methods.
//!
//! The entry point is [`minimize_dsop`], following Bernasconi, Ciriani,
//! Luccio and Pagli ("Compact DSOP and partial DSOP Forms"): select a
//! small SOP cover with the existing covering engine
//! ([`spp_sp::cover_primes`]), then make it disjoint by *disjoint
//! sharp* — each product, taken largest first, is split against the
//! already-accepted products into fragments that miss them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod form;
mod sharp;

pub use form::DsopForm;

use spp_boolfn::{BoolFn, Cube};
use spp_obs::RunCtx;

/// The outcome of [`minimize_dsop`].
#[derive(Clone, Debug)]
pub struct DsopMinResult {
    /// The minimized form (always realizes the input function).
    pub form: DsopForm,
    /// Always `false`: the construction is a heuristic; DSOP minimality
    /// is not proved.
    pub optimal: bool,
    /// How the run ended. The covering step runs on the context's clock
    /// and is greedy once it has stopped; splitting itself is polynomial
    /// and always finishes.
    pub outcome: spp_obs::Outcome,
}

impl DsopMinResult {
    /// The number of literals in the minimized form.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        self.form.literal_count()
    }
}

/// Minimizes `f` as a DSOP: a covering-engine SOP selection followed by
/// deterministic disjoint-sharp splitting (largest products first, ties
/// broken on the cube encoding). The SOP cover runs on `ctx`'s clock alone
/// ([`RunCtx::clock`]): it stops at the deadline or on a cancel, and
/// emits no event.
///
/// The result always realizes `f` — splitting preserves the covered set
/// exactly, and fragments inherit their parent's ON/DC-only points.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_dsop::minimize_dsop;
/// use spp_obs::RunCtx;
///
/// let maj = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
/// let r = minimize_dsop(&maj, &spp_cover::Limits::default(), &RunCtx::new());
/// assert!(r.form.realizes(&maj));
/// // The three overlapping majority primes split into disjoint products.
/// assert!(r.form.num_products() >= 3);
/// # let _ = r.literal_count();
/// ```
///
/// # Panics
///
/// Panics if `f.num_vars() > 24` (prime generation expands minterms).
#[must_use]
pub fn minimize_dsop(f: &BoolFn, limits: &spp_cover::Limits, ctx: &RunCtx) -> DsopMinResult {
    let sp = spp_sp::cover_primes(f, &spp_sp::prime_implicants(f), limits, &ctx.clock());

    // Largest cubes (fewest literals) first keeps the big products whole
    // and splinters only the small ones; the full key fixes the order.
    let mut cubes: Vec<Cube> = sp.form.cubes().to_vec();
    cubes.sort_unstable_by_key(|c| (c.literal_count(), c.mask().to_u64(), c.values().to_u64()));

    let mut accepted: Vec<Cube> = Vec::new();
    for cube in cubes {
        let mut fragments = vec![cube];
        for d in &accepted {
            fragments = fragments.iter().flat_map(|c| sharp::disjoint_sharp(c, d)).collect();
            if fragments.is_empty() {
                break;
            }
        }
        accepted.extend(fragments);
    }

    DsopMinResult {
        form: DsopForm::new(f.num_vars(), accepted),
        optimal: false,
        outcome: ctx.stop_reason().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: &BoolFn) -> DsopMinResult {
        minimize_dsop(f, &spp_cover::Limits::default(), &RunCtx::new())
    }

    #[test]
    fn result_is_disjoint_and_realizes() {
        for n in 2..=5 {
            let f = BoolFn::from_truth_fn(n, |x| x.wrapping_mul(2654435761) >> 2 & 3 != 1);
            let r = run(&f);
            assert!(r.form.is_disjoint(), "n={n}");
            assert!(r.form.realizes(&f), "n={n}");
        }
    }

    #[test]
    fn already_disjoint_covers_are_untouched() {
        // x0·x1 + x̄0·x̄1: the two primes are already disjoint.
        let f = BoolFn::from_truth_fn(2, |x| x == 0 || x == 3);
        let r = run(&f);
        assert_eq!(r.form.num_products(), 2);
        assert_eq!(r.literal_count(), 4);
    }

    #[test]
    fn constant_functions() {
        let zero = BoolFn::from_truth_fn(3, |_| false);
        let r = run(&zero);
        assert_eq!(r.form.num_products(), 0);
        assert!(r.form.realizes(&zero));

        let one = BoolFn::from_truth_fn(3, |_| true);
        let r = run(&one);
        assert_eq!(r.form.num_products(), 1);
        assert!(r.form.realizes(&one));
    }

    #[test]
    fn dsop_never_beats_its_sop_on_products() {
        let maj = BoolFn::from_truth_fn(5, |x| x.count_ones() >= 3);
        let sp = spp_sp::minimize_sp(&maj, &spp_cover::Limits::default());
        let r = run(&maj);
        assert!(r.form.num_products() >= sp.form.num_products());
        assert!(r.form.is_disjoint());
        assert!(r.form.realizes(&maj));
    }
}
