//! Pins the observable behaviour of every entrant list: the governed rung
//! ladder, the form race and each `execute_fns` mode. For every case the
//! full event-line sequence and the result (or wire response) must match
//! `tests/entrants.golden` byte for byte, at 1 and 2 worker threads.
//! Only `wall_ms` values are masked; everything else — event order,
//! outcomes, costs, forms, cache traffic — is compared verbatim.
//!
//! Parallel branch & bound workers emit their `cover_subtree_*` events in
//! whatever order they run, so the functions here are chosen so that no
//! covering problem branches at its root: each output is one
//! pseudoproduct, and the ladder descent stops every search under its
//! one-byte budget before it branches. The event order then does not
//! depend on the thread count. The one exception is shared multi-output
//! covering, which generates its outputs on concurrent workers: at 2
//! threads its event lines are compared as a multiset.

use std::sync::{Arc, Mutex};

use spp::core::{Form, FormPortfolio, PortfolioResult, SppMinResult};
use spp::prelude::*;
use spp::{execute_fns, Event, EventSink, ExecEnv, MinimizeMode, MinimizeRequest};

const GOLDEN: &str = include_str!("entrants.golden");

#[derive(Default)]
struct Log(Mutex<Vec<String>>);

impl EventSink for Log {
    fn emit(&self, event: &Event) {
        self.0.lock().unwrap().push(event.to_json());
    }
}

impl Log {
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

/// Replaces every `"wall_ms":<number>` value with `_`.
fn mask_wall(line: &str) -> String {
    const KEY: &str = "\"wall_ms\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
            .unwrap_or(rest.len());
        out.push('_');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn events(log: &Log) -> String {
    log.take().iter().map(|l| mask_wall(l) + "\n").collect()
}

fn bit(x: u64, i: u32) -> bool {
    (x >> i) & 1 == 1
}

/// The 5-input function the one-byte ladder descends on.
fn mod3() -> BoolFn {
    BoolFn::from_truth_fn(5, |x| x % 3 == 1)
}

/// `(x1⊕x̄2)·(x3⊕x4)`: one pseudoproduct of 4 literals, whose ESOP,
/// DSOP and SOP forms cost 8, 16 and 16.
fn pair() -> BoolFn {
    BoolFn::from_truth_fn(5, |x| bit(x, 1) == bit(x, 2) && bit(x, 3) != bit(x, 4))
}

/// `x3·(x2⊕x4)`: a second one-pseudoproduct output.
fn single() -> BoolFn {
    BoolFn::from_truth_fn(5, |x| bit(x, 3) && bit(x, 2) != bit(x, 4))
}

fn spp_result(r: &SppMinResult) -> String {
    format!(
        "result form={} literals={} candidates={} rung={} outcome={} optimal={} faults={}\n",
        r.form,
        r.literal_count(),
        r.num_candidates,
        r.rung.as_str(),
        r.outcome.as_str(),
        r.optimal,
        r.faults.len(),
    )
}

fn race_result(r: &PortfolioResult) -> String {
    let mut out = format!(
        "result winner={} cost={} optimal={} outcome={} rung={} realization={}\n",
        r.winner,
        r.cost,
        r.optimal,
        r.outcome.as_str(),
        r.rung.as_str(),
        r.realization,
    );
    for rep in &r.reports {
        out += &format!(
            "report form={} outcome={} cost={:?} accepted={}\n",
            rep.form,
            rep.outcome.as_str(),
            rep.cost,
            rep.accepted,
        );
    }
    out
}

fn governed(threads: usize, f: &BoolFn, hard: Option<u64>) -> String {
    let log = Arc::new(Log::default());
    let mut m = Minimizer::new(f).threads(threads).on_event(log.clone());
    if hard.is_some() {
        m = m.mem_budget(None, hard);
    }
    let r = m.run_governed();
    events(&log) + &spp_result(&r)
}

fn race(threads: usize, f: &BoolFn, forms: Vec<Form>, hard: Option<u64>) -> String {
    let log = Arc::new(Log::default());
    let mut m = Minimizer::new(f).threads(threads).on_event(log.clone());
    if hard.is_some() {
        m = m.mem_budget(None, hard);
    }
    let r = m.run_portfolio(&FormPortfolio::new().forms(forms));
    events(&log) + &race_result(&r)
}

fn warm_race(threads: usize) -> String {
    let f = pair();
    let cache = SppCache::in_memory(4 * 1024 * 1024);
    let log = Arc::new(Log::default());
    let mut out = String::new();
    for pass in ["cold", "warm"] {
        let r = Minimizer::new(&f)
            .threads(threads)
            .on_event(log.clone())
            .cache(cache.clone())
            .run_portfolio(&FormPortfolio::new());
        let stats = cache.stats();
        out += &format!("-- {pass}\n");
        out += &events(&log);
        out += &race_result(&r);
        out += &format!(
            "cache hits={} misses={} insertions={}\n",
            stats.hits, stats.misses, stats.insertions
        );
    }
    out
}

/// Two outputs, so the per-output loop and the portfolio
/// aggregation both run more than once.
fn outputs() -> Vec<BoolFn> {
    vec![pair(), single()]
}

fn execute(threads: usize, mode: MinimizeMode, multi: bool) -> String {
    let fns = outputs();
    let labels = vec!["a".to_owned(), "b".to_owned()];
    let log = Arc::new(Log::default());
    let env = ExecEnv {
        cache: Some(SppCache::in_memory(4 * 1024 * 1024)),
        sink: Some(log.clone()),
        ..ExecEnv::default()
    };
    let req = MinimizeRequest::new("pin", "")
        .with_mode(mode)
        .with_multi(multi)
        .with_threads(threads);
    let executed = execute_fns(&req, &fns, &labels, &env).expect("request is valid");
    let forms: String = executed
        .forms
        .iter()
        .map(|form| format!("form {form}\n"))
        .chain(executed.realizations.iter().map(|r| format!("realization {r}\n")))
        .collect();
    events(&log) + &mask_wall(&executed.response.to_json()) + "\n" + &forms
}

/// Every pinned case, by name.
fn render(case: &str, threads: usize) -> String {
    match case {
        "governed" => governed(threads, &pair(), None),
        "governed_one_byte" => governed(threads, &mod3(), Some(1)),
        "race_all" => race(threads, &pair(), Vec::new(), None),
        "race_esop_sop" => race(threads, &pair(), vec![Form::Esop, Form::Sop], None),
        "race_one_byte" => race(threads, &mod3(), Vec::new(), Some(1)),
        "race_warm" => warm_race(threads),
        "execute_governed" => execute(threads, MinimizeMode::Governed, false),
        "execute_exact" => execute(threads, MinimizeMode::Exact, false),
        "execute_heuristic_0" => execute(threads, MinimizeMode::Heuristic(0), false),
        "execute_restricted_2" => execute(threads, MinimizeMode::Restricted(2), false),
        "execute_sop" => execute(threads, MinimizeMode::Sop, false),
        "execute_portfolio" => execute(threads, MinimizeMode::Portfolio, false),
        "execute_multi" => execute(threads, MinimizeMode::Exact, true),
        other => panic!("unknown case {other}"),
    }
}

/// The golden sections: `=== <case>` headers, each followed by the
/// case's expected text.
fn golden() -> Vec<(&'static str, String)> {
    let mut sections: Vec<(&str, String)> = Vec::new();
    for line in GOLDEN.lines() {
        if let Some(name) = line.strip_prefix("=== ") {
            sections.push((name, String::new()));
        } else if let Some((_, text)) = sections.last_mut() {
            text.push_str(line);
            text.push('\n');
        }
    }
    sections
}

fn check(case: &str) {
    let sections = golden();
    let expected = sections
        .iter()
        .find(|(name, _)| *name == case)
        .map(|(_, text)| text.as_str())
        .unwrap_or_else(|| panic!("no golden section for {case}"));
    for threads in [1, 2] {
        let actual = render(case, threads);
        let matches = if case == "execute_multi" && threads > 1 {
            let sorted = |text: &str| {
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                lines.sort();
                lines
            };
            sorted(&actual) == sorted(expected)
        } else {
            actual == expected
        };
        if !matches {
            let line = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
            panic!(
                "{case} at {threads} threads differs from the golden text at line {}:\n\
                 --- actual\n{actual}--- expected\n{expected}",
                line + 1
            );
        }
    }
}

#[test]
fn governed_ladder_without_budget() {
    check("governed");
}

#[test]
fn governed_ladder_descends_to_sop_under_a_one_byte_budget() {
    check("governed_one_byte");
}

#[test]
fn full_form_race() {
    check("race_all");
}

#[test]
fn esop_sop_race() {
    check("race_esop_sop");
}

#[test]
fn race_under_a_one_byte_budget() {
    check("race_one_byte");
}

#[test]
fn warm_race_hits_the_per_form_cache() {
    check("race_warm");
}

#[test]
fn execute_fns_in_every_mode() {
    for case in [
        "execute_governed",
        "execute_exact",
        "execute_heuristic_0",
        "execute_restricted_2",
        "execute_sop",
        "execute_portfolio",
        "execute_multi",
    ] {
        check(case);
    }
}

/// Every golden section has a test above, and no case is pinned twice.
#[test]
fn golden_sections_are_the_pinned_cases() {
    let names: Vec<&str> = golden().iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "governed",
            "governed_one_byte",
            "race_all",
            "race_esop_sop",
            "race_one_byte",
            "race_warm",
            "execute_governed",
            "execute_exact",
            "execute_heuristic_0",
            "execute_restricted_2",
            "execute_sop",
            "execute_portfolio",
            "execute_multi",
        ]
    );
}
