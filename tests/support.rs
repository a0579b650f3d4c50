//! The request front door minimizes each output on its true support: an
//! output that ignores some inputs is projected onto the inputs it reads,
//! minimized there, and its answer lifted back to the declared inputs.
//! These tests pin that the lifted answer is the projected run's answer
//! (same literals, same proof), that it verifies against the declared
//! function, and which functions are left as declared.

use std::sync::{Arc, Mutex};

use spp::benchgen::registry;
use spp::prelude::*;
use spp::{execute_fns, Event, EventSink, ExecEnv, Executed, MinimizeMode, MinimizeRequest};

/// Runs `fns` through the front door in `mode`, recording every event.
fn run(fns: &[BoolFn], mode: MinimizeMode) -> (Executed, Vec<Event>) {
    #[derive(Default)]
    struct Log(Mutex<Vec<Event>>);
    impl EventSink for Log {
        fn emit(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }
    let log = Arc::new(Log::default());
    let env = ExecEnv {
        sink: Some(log.clone()),
        ..ExecEnv::default()
    };
    let labels: Vec<String> = (0..fns.len()).map(|j| format!("y{j}")).collect();
    let req = MinimizeRequest::new("support", "")
        .with_mode(mode)
        .with_threads(1);
    let executed = execute_fns(&req, fns, &labels, &env).expect("request is valid");
    let events = std::mem::take(&mut *log.0.lock().unwrap());
    (executed, events)
}

/// The size of the first generation level: the ON and DC points of the
/// function a session actually ran on.
fn first_level_size(events: &[Event]) -> Option<usize> {
    events.iter().find_map(|e| match e {
        Event::GenLevelStarted { degree: 0, size } => Some(*size),
        _ => None,
    })
}

/// `core` (over `positions.len()` inputs) read at `positions` of an
/// `n`-input space; every other input is ignored.
fn pad(core: &BoolFn, n: usize, positions: &[usize]) -> BoolFn {
    let m = core.num_vars();
    assert_eq!(positions.len(), m);
    BoolFn::from_truth_fn(n, |x| {
        let inner = positions
            .iter()
            .enumerate()
            .fold(0u64, |acc, (j, &p)| acc | ((x >> p) & 1) << j);
        core.is_on(&Gf2Vec::from_u64(m, inner))
    })
}

/// Asserts the padded function answers exactly as its core: same literal
/// count, terms, proof and outcome, and a form that verifies against the
/// padded function itself.
fn assert_same_answer(core: &BoolFn, padded: &BoolFn, mode: MinimizeMode, what: &str) {
    let (small, _) = run(std::slice::from_ref(core), mode);
    let (wide, _) = run(std::slice::from_ref(padded), mode);
    let (s, w) = (&small.response, &wide.response);
    assert_eq!(
        w.outputs[0].literals, s.outputs[0].literals,
        "{what}: literals"
    );
    assert_eq!(w.outputs[0].terms, s.outputs[0].terms, "{what}: terms");
    assert_eq!(w.optimal, s.optimal, "{what}: optimal");
    assert_eq!(w.outcome, s.outcome, "{what}: outcome");
    assert!(w.verified, "{what}: verified");
    let realization = &wide.realizations[0];
    assert!(
        realization.realizes(padded),
        "{what}: the lifted form realizes the padded function"
    );
    assert_eq!(realization.literal_count(), w.outputs[0].literals, "{what}");
}

/// `a⊕bc` padded to 9–14 inputs answers as the 3-input run does, in
/// every single-output mode.
#[test]
fn a_padded_three_input_core_answers_as_the_core() {
    let core = BoolFn::from_truth_fn(3, |x| (x & 1 == 1) != ((x >> 1) & (x >> 2) & 1 == 1));
    let modes = [
        MinimizeMode::Governed,
        MinimizeMode::Exact,
        MinimizeMode::Heuristic(0),
        MinimizeMode::Restricted(2),
        MinimizeMode::Sop,
        MinimizeMode::Portfolio,
    ];
    for n in 9..=14 {
        // Spread the core's inputs over the padding.
        let positions = [1, n / 2, n - 1];
        let padded = pad(&core, n, &positions);
        assert_eq!(padded.support(), positions);
        for mode in modes {
            assert_same_answer(&core, &padded, mode, &format!("n={n} {}", mode.as_str()));
        }
        let (executed, events) = run(std::slice::from_ref(&padded), MinimizeMode::Governed);
        assert_eq!(executed.response.outputs[0].literals, 5);
        assert!(executed.response.optimal);
        assert_eq!(executed.forms[0].num_vars(), n);
        executed.forms[0]
            .check_realizes(&padded)
            .expect("lifted SPP form realizes f");
        // Generation ran on the 4 ON points of the core, not on 2^(n-2).
        assert_eq!(first_level_size(&events), Some(4), "n={n}");
    }
}

/// Random functions of at most 5 inputs, padded to 6–10 inputs at random
/// positions, answer as they do unpadded.
#[test]
fn randomly_padded_small_functions_answer_as_unpadded() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..24 {
        let m = 1 + (next() % 5) as usize;
        let n = m + 1 + (next() % 5) as usize;
        let table = next();
        let core = BoolFn::from_truth_fn(m, |x| (table >> x) & 1 == 1);
        let mut positions: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            positions.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        positions.truncate(m);
        positions.sort_unstable();
        let padded = pad(&core, n, &positions);
        for mode in [MinimizeMode::Governed, MinimizeMode::Portfolio] {
            let what = format!(
                "case {case}: m={m} n={n} at {positions:?} {}",
                mode.as_str()
            );
            assert_same_answer(&core, &padded, mode, &what);
        }
    }
}

/// Constant functions have an empty support and run as declared; an
/// input only the DC-set depends on is part of the support, so it is
/// kept.
#[test]
fn constants_and_dc_only_inputs_are_not_projected() {
    for (f, literals) in [
        (BoolFn::from_truth_fn(4, |_| false), 0),
        (BoolFn::from_truth_fn(4, |_| true), 0),
    ] {
        let (executed, events) = run(std::slice::from_ref(&f), MinimizeMode::Governed);
        assert!(executed.response.verified);
        assert_eq!(executed.response.outputs[0].literals, literals);
        let points = f.on_set().len();
        assert_eq!(
            first_level_size(&events).unwrap_or(0),
            points,
            "as declared"
        );
    }

    // ON = x0·x1 (x2 ignored); DC = {000}, which x2 does change.
    let p = |s: &str| Gf2Vec::from_bit_str(s).unwrap();
    let f = BoolFn::with_dont_cares(3, [p("110"), p("111")], [p("000")]);
    assert_eq!(f.support(), vec![0, 1, 2]);
    let (executed, events) = run(std::slice::from_ref(&f), MinimizeMode::Governed);
    assert!(executed.response.verified);
    executed.forms[0]
        .check_realizes(&f)
        .expect("form realizes f");
    assert_eq!(first_level_size(&events), Some(3), "all three inputs kept");
}

/// Every output of `name` costs the same at the front door as a direct
/// session on `output_on_support(j)`, the table harness's instance.
fn outputs_match_the_table_harness_instance(name: &str) {
    let circuit = registry::circuit(name).unwrap();
    let (executed, _) = run(circuit.outputs(), MinimizeMode::Governed);
    assert!(executed.response.verified, "{name}");
    for (j, report) in executed.response.outputs.iter().enumerate() {
        let g = circuit.output_on_support(j);
        let direct = Minimizer::new(&g).threads(1).run_governed();
        assert_eq!(report.literals, direct.literal_count(), "{name}({j})");
    }
}

#[test]
fn adr4_outputs_match_the_table_harness_instance() {
    outputs_match_the_table_harness_instance("adr4");
}

#[test]
fn f51m_outputs_match_the_table_harness_instance() {
    outputs_match_the_table_harness_instance("f51m");
}
