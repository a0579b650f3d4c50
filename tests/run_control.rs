//! Integration tests of the run-control subsystem: deadlines,
//! deterministic cancellation and the [`SppError`] surface, end to end
//! through the facade crate.

use std::time::{Duration, Instant};

use spp::benchgen::registry;
use spp::core::CancelToken;
use spp::obs::Form;
use spp::prelude::*;
use spp::{execute_fns, ExecEnv, MinimizeMode, MinimizeRequest};

/// An already-expired deadline must stop every phase promptly and still
/// yield a *verified* form for every registry benchmark — the degraded
/// result is valid, never garbage.
#[test]
fn zero_deadline_yields_valid_forms_on_every_benchmark() {
    for name in registry::ALL_NAMES {
        let c = registry::circuit(name).unwrap();
        let f = c.output_on_support(0);
        if f.is_zero() || f.num_vars() == 0 {
            continue;
        }
        let start = Instant::now();
        let r = Minimizer::new(&f).deadline(Duration::ZERO).run_exact();
        let elapsed = start.elapsed();
        assert_eq!(
            r.outcome,
            Outcome::DeadlineExceeded,
            "{name}: an expired deadline must be reported"
        );
        assert!(!r.optimal, "{name}: a cut-short run can never claim optimality");
        r.form
            .check_realizes(&f)
            .unwrap_or_else(|e| panic!("{name}: best-so-far form invalid: {e}"));
        // "Promptly" allows the SP fallback that guarantees validity, but
        // not a full exact run on the hard benchmarks.
        assert!(
            elapsed < Duration::from_secs(20),
            "{name}: expired deadline took {elapsed:?} to unwind"
        );
    }
}

/// A fuse-armed token trips at a *counted* checkpoint, and counted
/// checkpoints happen at the same algorithmic points at any thread count —
/// so the cancelled best-so-far result is bit-identical across thread
/// counts.
#[test]
fn counted_cancellation_is_thread_count_invariant() {
    let f = registry::circuit("adr4").unwrap().output_on_support(2);
    let run = |threads: usize| {
        let r = Minimizer::new(&f)
            .threads(threads)
            .cancel_token(CancelToken::cancel_after_checkpoints(2))
            .run_exact();
        assert_eq!(r.outcome, Outcome::Cancelled, "x{threads}");
        r.form.check_realizes(&f).unwrap_or_else(|e| panic!("x{threads}: {e}"));
        r.form
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), baseline, "cancelled form diverged at x{threads}");
    }
}

/// The heuristic under a cancelled token also unwinds to a valid form.
#[test]
fn cancelled_heuristic_still_realizes_f() {
    let f = registry::circuit("life").unwrap().output_on_support(0);
    let token = CancelToken::new();
    token.cancel();
    let r = Minimizer::new(&f).cancel_token(token).run_heuristic(1).unwrap();
    assert_eq!(r.outcome, Outcome::Cancelled);
    r.form.check_realizes(&f).unwrap();
}

/// Outcome identifiers round-trip (they are part of the JSON baseline
/// schema, so their spelling is load-bearing).
#[test]
fn outcome_identifiers_round_trip() {
    for o in [Outcome::Completed, Outcome::DeadlineExceeded, Outcome::Cancelled] {
        assert_eq!(Outcome::parse(&o.to_string()), Some(o));
    }
    assert_eq!(Outcome::parse("nonsense"), None);
    assert_eq!(
        Outcome::Completed.merge(Outcome::DeadlineExceeded),
        Outcome::DeadlineExceeded
    );
    assert_eq!(Outcome::DeadlineExceeded.merge(Outcome::Cancelled), Outcome::Cancelled);
}

/// Every contract violation surfaces as a typed [`SppError`] whose
/// message keeps the old panic wording.
#[test]
fn spp_errors_are_typed_and_well_worded() {
    let f = BoolFn::from_truth_fn(3, |x| x != 0);
    let e = Minimizer::new(&f).run_heuristic(7).unwrap_err();
    assert!(matches!(e, SppError::HeuristicK { k: 7, n: 3 }), "{e:?}");
    assert!(e.to_string().contains("must satisfy"), "{e}");

    let e = Minimizer::new(&f).run_restricted(0).unwrap_err();
    assert!(matches!(e, SppError::ZeroFactorWidth));
    assert!(e.to_string().contains("at least one literal"), "{e}");

    let e = MultiMinimizer::new(&[]).run().unwrap_err();
    assert!(matches!(e, SppError::NoOutputs));
    assert!(e.to_string().contains("at least one output"), "{e}");

    let g = BoolFn::from_truth_fn(4, |x| x == 1);
    let e = MultiMinimizer::new(&[f.clone(), g]).run().unwrap_err();
    assert!(matches!(e, SppError::MixedVariableCounts { expected: 3, found: 4 }));
    assert!(e.to_string().contains("share the input variables"), "{e}");

    let e = spp::core::parse_pla("not a pla").unwrap_err();
    assert!(matches!(e, SppError::Pla(_)));
    assert!(std::error::Error::source(&e).is_some(), "parse errors keep their source");
}

/// `parse_pla` is the fallible front door to PLA input: the Ok side
/// matches `str::parse`, the Err side is an [`SppError`].
#[test]
fn parse_pla_matches_fromstr() {
    let text = ".i 2\n.o 1\n01 1\n10 1\n.e\n";
    let via_error_api = spp::core::parse_pla(text).unwrap();
    let via_fromstr: Pla = text.parse().unwrap();
    assert_eq!(via_error_api.output_fns(), via_fromstr.output_fns());
}

/// Cancels its token the moment generation starts its degree-0 sweep and
/// records how many unions that sweep still produced.
struct CancelAtSweep {
    token: CancelToken,
    unions: std::sync::Mutex<Option<usize>>,
}

impl spp::EventSink for CancelAtSweep {
    fn emit(&self, event: &spp::Event) {
        match event {
            spp::Event::GenLevelStarted { degree: 0, .. } => self.token.cancel(),
            spp::Event::GenLevelFinished { degree: 0, unions, .. } => {
                *self.unions.lock().unwrap() = Some(*unions);
            }
            _ => {}
        }
    }
}

/// The union sweep polls the clock and the cancel flag by work done, not
/// by outer step: a degree-0 sweep over a 12-input function has ~10^6
/// pairs in one structure group, and a stop raised as it starts must be
/// seen within a few thousand unions per worker.
#[test]
fn union_sweep_notices_a_cancel_within_a_few_thousand_unions() {
    let f = BoolFn::from_truth_fn(12, |x| x % 3 == 1);
    assert_eq!(f.support().len(), 12);
    for threads in [1, 2] {
        let token = CancelToken::new();
        let sink = std::sync::Arc::new(CancelAtSweep {
            token: token.clone(),
            unions: std::sync::Mutex::new(None),
        });
        let r = Minimizer::new(&f)
            .threads(threads)
            .cancel_token(token)
            .on_event(sink.clone())
            .run_exact();
        assert_eq!(r.outcome, Outcome::Cancelled, "x{threads}");
        r.form.check_realizes(&f).unwrap_or_else(|e| panic!("x{threads}: {e}"));
        let unions = sink.unions.lock().unwrap().expect("the degree-0 sweep finished");
        assert!(unions <= 4096, "x{threads}: {unions} unions after the cancel");
    }
}

/// An 11-input function that depends on every input: ON iff bit 13 of
/// `x · 2654435761 mod 2^32` is set. Its SP cover is the bulk of the
/// work, so it shows whether the SP floor sees the request's clock.
fn hash11() -> BoolFn {
    let f = BoolFn::from_truth_fn(11, |x| ((x * 2_654_435_761) % (1 << 32)) >> 13 & 1 == 1);
    assert_eq!(f.support().len(), 11);
    f
}

/// Runs `req` on `f` through the request front door and checks that the
/// answer is verified, stopped for `expected`, and arrived within `bound`.
///
/// These bounds cover the SP floor only: every stopped run ends in the SP
/// cover, which runs on the request's clock and is greedy once the
/// deadline has passed or the token is cancelled. They are not the
/// 50 ms + 10% deadline contract: generation and cover setup still
/// overrun a 10 ms deadline by up to a few hundred milliseconds.
fn assert_stops_in_time(
    f: &BoolFn,
    req: &MinimizeRequest,
    env: &ExecEnv,
    expected: Outcome,
    bound: Duration,
) {
    let start = Instant::now();
    let executed =
        execute_fns(req, std::slice::from_ref(f), &["y".into()], env).expect("request is valid");
    let wall = start.elapsed();
    let r = &executed.response;
    let case = format!("{:?} x{:?}", req.mode, req.threads);
    assert!(r.verified, "{case}: answer not verified");
    assert!(
        executed.realizations[0].realizes(f),
        "{case}: answer does not realize f"
    );
    assert_eq!(r.outcome, expected, "{case}");
    assert!(
        wall < bound,
        "{case}: answered in {wall:?}, bound {bound:?}"
    );
}

/// A governed request under a 10 ms deadline answers a full-support
/// 11-input function well within 2 s, at 1 and 2 threads.
#[test]
fn governed_request_answers_hash11_soon_after_its_deadline() {
    let f = hash11();
    for threads in [1, 2] {
        let req = MinimizeRequest::new("hash11", "")
            .with_threads(threads)
            .with_deadline_ms(10);
        let env = ExecEnv::default();
        assert_stops_in_time(
            &f,
            &req,
            &env,
            Outcome::DeadlineExceeded,
            Duration::from_secs(2),
        );
    }
}

/// A governed request cancelled as generation starts answers within 2 s:
/// the SP floor sees the cancel, not just the phases before it.
#[test]
fn governed_request_answers_hash11_soon_after_a_cancel() {
    let f = hash11();
    for threads in [1, 2] {
        let token = CancelToken::new();
        let sink = std::sync::Arc::new(CancelAtSweep {
            token: token.clone(),
            unions: std::sync::Mutex::new(None),
        });
        let env = ExecEnv {
            cancel: Some(token),
            sink: Some(sink),
            ..ExecEnv::default()
        };
        let req = MinimizeRequest::new("hash11", "").with_threads(threads);
        assert_stops_in_time(&f, &req, &env, Outcome::Cancelled, Duration::from_secs(2));
    }
}

/// Plain SP is the SP floor alone: under a 10 ms deadline it answers
/// within 1 s and says the deadline stopped it.
#[test]
fn sop_mode_answers_hash11_soon_after_its_deadline() {
    let f = hash11();
    for threads in [1, 2] {
        let req = MinimizeRequest::new("sop", "")
            .with_mode(MinimizeMode::Sop)
            .with_threads(threads)
            .with_deadline_ms(10);
        let env = ExecEnv::default();
        assert_stops_in_time(
            &f,
            &req,
            &env,
            Outcome::DeadlineExceeded,
            Duration::from_secs(1),
        );
    }
}

/// Both entrants of a DSOP-versus-SOP race are SP covers (DSOP splits
/// one); under a 10 ms deadline the race answers within 1 s.
#[test]
fn dsop_sop_race_answers_hash11_soon_after_its_deadline() {
    let f = hash11();
    for threads in [1, 2] {
        let req = MinimizeRequest::new("race", "")
            .with_mode(MinimizeMode::Portfolio)
            .with_forms(vec![Form::Dsop, Form::Sop])
            .with_threads(threads)
            .with_deadline_ms(10);
        let env = ExecEnv::default();
        assert_stops_in_time(
            &f,
            &req,
            &env,
            Outcome::DeadlineExceeded,
            Duration::from_secs(1),
        );
    }
}
