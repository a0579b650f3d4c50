//! Fault injection into the covering search. The failpoint registry is
//! process-global, so this test has a binary of its own: armed here, it
//! cannot fire inside the unrelated searches of the unit tests.

#![cfg(feature = "failpoints")]

use spp_cover::{solve_exact_ctx, solve_greedy, CoverProblem, Limits, Outcome, Parallelism, RunCtx};
use spp_obs::failpoints::{self, FailAction};

/// An injected subtree panic at any thread count keeps the warm-start
/// incumbent, records the fault and never escapes `solve_exact_ctx`.
#[test]
fn injected_subtree_panic_keeps_the_incumbent() {
    let mut p = CoverProblem::new(8);
    for i in 0..8 {
        for j in (i + 1)..8 {
            p.add_column(&[i, j], 2);
        }
    }
    let greedy = solve_greedy(&p);
    for threads in [1usize, 2, 4] {
        failpoints::clear_all();
        failpoints::set("cover.subtree", FailAction::Panic("injected".to_owned()));
        let ctx = RunCtx::new();
        let limits = Limits::default().with_parallelism(Parallelism::fixed(threads));
        let (sol, outcome) = solve_exact_ctx(&p, &limits, Some(&greedy), &ctx);
        assert!(p.is_cover(&sol.columns), "threads={threads}");
        assert!(sol.cost <= greedy.cost, "threads={threads}");
        assert!(!sol.optimal, "threads={threads}");
        assert_eq!(outcome, Outcome::Completed, "threads={threads}");
        let faults = ctx.faults();
        assert!(!faults.is_empty(), "threads={threads}");
        assert!(faults.iter().all(|f| f.site == "cover.subtree"), "threads={threads}");
        assert!(faults[0].message.contains("injected"), "threads={threads}");
    }
    failpoints::clear_all();
}
