//! Cross-form invariants of the portfolio layer: every engine's output
//! realizes the same function under its own semantics, and a completed
//! race is deterministic — same winner, same cost — at any thread count.

use proptest::prelude::*;
use spp::core::{Form, FormPortfolio, FormRealization, Minimizer, Objective};
use spp::prelude::*;

/// A random function on `n ≤ 5` variables as an on-set bitmap.
fn small_fn() -> impl Strategy<Value = BoolFn> {
    (2usize..=5).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), 1 << n)
            .prop_map(move |bits| BoolFn::from_truth_fn(n, |x| bits[x as usize]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every entrant of a full race realizes `f` under its own form
    /// semantics — XOR of cubes for ESOP, disjoint OR for DSOP, plain
    /// OR for SOP and SPP — at 1, 2 and 4 worker threads.
    #[test]
    fn all_forms_realize_the_same_function(f in small_fn()) {
        for threads in [1usize, 2, 4] {
            let r = Minimizer::new(&f)
                .threads(threads)
                .run_portfolio(&FormPortfolio::new());
            prop_assert!(r.realization.realizes(&f), "winner at {threads} threads");
            prop_assert_eq!(r.reports.len(), 4);
            for rep in &r.reports {
                prop_assert!(rep.accepted, "{} rejected at {threads} threads", rep.form);
                // The winner is the cheapest verified entrant.
                prop_assert!(rep.cost.is_none_or(|c| r.cost <= c));
            }
        }
    }

    /// A completed race is bit-deterministic: the winner, its cost and
    /// every entrant's cost are identical at 1, 2 and 4 threads, under
    /// both objectives.
    #[test]
    fn portfolio_race_is_thread_count_invariant(f in small_fn()) {
        for objective in [Objective::Literals, Objective::Gates] {
            let race = FormPortfolio::new().objective(objective);
            let baseline = Minimizer::new(&f).threads(1).run_portfolio(&race);
            for threads in [2usize, 4] {
                let r = Minimizer::new(&f).threads(threads).run_portfolio(&race);
                prop_assert_eq!(r.winner, baseline.winner, "winner at {} threads", threads);
                prop_assert_eq!(r.cost, baseline.cost, "cost at {} threads", threads);
                let costs: Vec<_> = r.reports.iter().map(|rep| (rep.form, rep.cost)).collect();
                let base: Vec<_> =
                    baseline.reports.iter().map(|rep| (rep.form, rep.cost)).collect();
                prop_assert_eq!(costs, base, "scoreboard at {} threads", threads);
            }
        }
    }

    /// Single-form races return that form, and its cost matches the
    /// realization's own accounting.
    #[test]
    fn single_form_races_return_the_requested_form(f in small_fn()) {
        for form in Form::ALL {
            let race = FormPortfolio::new().forms(vec![form]);
            let r = Minimizer::new(&f).run_portfolio(&race);
            prop_assert_eq!(r.winner, form);
            prop_assert_eq!(r.cost, r.realization.cost(Objective::Literals));
            prop_assert!(r.realization.realizes(&f));
        }
    }
}

/// The four realization variants all map to working netlists — checked
/// once on parity, where SPP/ESOP collapse and SOP/DSOP explode.
#[test]
fn realizations_render_to_equivalent_netlists() {
    let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
    for form in Form::ALL {
        let race = FormPortfolio::new().forms(vec![form]);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let net =
            spp::netlist::Netlist::from_realizations(std::slice::from_ref(&r.realization));
        assert!(net.equivalent_to(&f, 0), "{form} netlist differs");
        assert!(matches!(
            (form, &r.realization),
            (Form::Spp, FormRealization::Spp(_))
                | (Form::Esop, FormRealization::Esop(_))
                | (Form::Dsop, FormRealization::Dsop(_))
                | (Form::Sop, FormRealization::Sop(_))
        ));
    }
}

/// The cube-form engines and their verification expand the truth table,
/// so a race that includes ESOP, DSOP or SOP on more than 24 inputs is a
/// typed `bad_request` before any work runs, not a worker panic. An
/// SPP-only race of the same function still answers.
#[test]
fn wide_portfolio_requests_are_rejected_with_a_typed_error() {
    use spp::{execute, ExecEnv, MinimizeMode, MinimizeRequest, WireErrorKind};

    let pla = format!(".i 25\n.o 1\n{} 1\n.e\n", "0".repeat(25));
    let race = |forms: Vec<Form>| {
        let req = MinimizeRequest::new("wide", pla.as_str())
            .with_mode(MinimizeMode::Portfolio)
            .with_forms(forms);
        execute(&req, &ExecEnv::default())
    };
    for forms in [vec![], vec![Form::Esop], vec![Form::Dsop], vec![Form::Spp, Form::Sop]] {
        let err = race(forms.clone()).expect_err("a wide cube-form race must be refused");
        assert_eq!(err.kind, WireErrorKind::BadRequest, "{forms:?}");
        assert_eq!(err.id.as_deref(), Some("wide"));
        assert!(err.message.contains("at most 24 inputs"), "{forms:?}: {}", err.message);
    }
    let spp = race(vec![Form::Spp]).expect("an SPP-only race has no input limit");
    assert_eq!(spp.response.winner, Some(Form::Spp));
    assert!(spp.response.verified);
}
