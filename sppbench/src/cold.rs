//! `cold-corpus`: one caller runs the library front door once per corpus
//! function, pass after pass, with no cache.

use std::time::Instant;

use spp_core::{MinimizeRequest, Outcome};

use crate::check::{self, Truth};
use crate::engine::{self, Digest, THREADS};
use crate::gen::{self, CorpusFn};
use crate::host::{self, StealMeter};
use crate::metrics::RunResult;
use crate::stats::{median, Pct};
use crate::trace::Tracer;
use crate::Ctx;

/// The cover's wall-clock cap (`spp-cover` `CoverLimits::default`); a
/// function near it could change its answer on a slower host.
const COVER_CAP_MS: f64 = 10_000.0;

/// Checks one answer: an error, `verified:false`, a checker rejection or
/// (here) any outcome other than `completed` is a failure.
pub fn verdict(
    result: &Result<spp_core::MinimizeResponse, String>,
    truth: &Truth,
    need_completed: bool,
) -> Result<(), String> {
    let r = result.as_ref().map_err(Clone::clone)?;
    if need_completed && r.outcome != Outcome::Completed {
        return Err(format!("outcome {} is not completed", r.outcome.as_str()));
    }
    if !r.verified {
        return Err("verified:false".into());
    }
    for o in &r.outputs {
        check::check_output(truth, &o.form, o.literals).map_err(|e| format!("checker: {e}"))?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let corpus: Vec<CorpusFn> = gen::cold_corpus(ctx.seed);
    let truths: Vec<Truth> = corpus
        .iter()
        .map(|f| check::read_pla(&f.pla))
        .collect::<Result<_, _>>()?;
    let requests: Vec<MinimizeRequest> = corpus
        .iter()
        .map(|f| MinimizeRequest::new(f.name.clone(), f.pla.clone()).with_threads(THREADS))
        .collect();
    let plas: Vec<&str> = corpus.iter().map(|f| f.pla.as_str()).collect();
    out.e2e.insert("setup_s", crate::library_setup_s(&plas)?);

    let n = corpus.len();
    // Per function: (wall ms, steal share) of every call.
    let mut walls: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut traced_walls: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let run_steal = StealMeter::start();
    let mut literals: Vec<Option<u64>> = vec![None; n];
    let mut proven: Vec<bool> = vec![false; n];
    let mut digests: Vec<Digest> = Vec::new();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut pass = 0usize;
    loop {
        // In the traced run, passes alternate untraced / traced so both
        // sides see the same host conditions.
        let traced = ctx.trace && pass % 2 == 1;
        let pass_start = Instant::now();
        let mut digest = Digest::default();
        for (i, req) in requests.iter().enumerate() {
            let meter = StealMeter::start();
            let c = engine::call(req, traced);
            let timed = (c.wall_ms(), meter.share());
            out.attempted += 1;
            if let Err(why) = verdict(&c.result, &truths[i], true) {
                out.fail(format!("{}: {why}", corpus[i].name));
            }
            if let Ok(r) = &c.result {
                let lits = r.total_literals();
                if literals[i].is_some_and(|l| l != lits) {
                    out.fail(format!(
                        "{}: literal count changed between passes",
                        corpus[i].name
                    ));
                }
                literals[i] = Some(lits);
                proven[i] = r.optimal;
            }
            if traced {
                traced_walls[i].push(timed);
                digest.add(&c);
                engine::trace_call(&mut tracer, &c, &format!("p{pass}/{}", corpus[i].name));
            } else {
                walls[i].push(timed);
            }
        }
        if traced {
            digests.push(digest);
        }
        pass += 1;
        let pass_s = pass_start.elapsed().as_secs_f64();
        let min_passes = if ctx.trace { 2 } else { 1 };
        if pass >= min_passes && started.elapsed().as_secs_f64() + pass_s > ctx.seconds {
            break;
        }
    }

    // Per-function medians over the calls with little steal make the
    // batch robust to a disturbed call.
    let per_fn: Vec<f64> = walls.iter().map(|w| median(&host::quiet(w))).collect();
    let kept: usize = walls.iter().map(|w| host::quiet(w).len()).sum();
    let batch_ms: f64 = per_fn.iter().sum();
    let total_literals: u64 = literals.iter().map(|l| l.unwrap_or(0)).sum();
    let proven_count = proven.iter().filter(|p| **p).count();
    out.e2e
        .insert("peak_rss_mb", crate::wire::peak_rss_mb(None).unwrap_or(0.0));
    out.e2e.insert("ok_share", 1.0 - out.fail_share());
    out.e2e.insert("p50_ms", Pct::of(&per_fn, 50.0).value);
    out.layer
        .insert("tail.p99_ms", Pct::of(&per_fn, 99.0).value);
    out.e2e.insert("rate_rps", n as f64 / (batch_ms / 1e3));
    out.e2e.insert("literals", total_literals as f64);

    out.named("cold.batch_s", batch_ms / 1e3, "s");
    out.named("cold.literals", total_literals as f64, "count");
    out.named("cold.proven", proven_count as f64, "count");
    out.notes.push(format!(
        "cold-corpus: {pass} passes; per-function p50 {} ms, p99 {} ms over per-function medians \
         of {kept} of {} untraced calls with little steal (steal over the run {:.1}%)",
        Pct::of(&per_fn, 50.0),
        Pct::of(&per_fn, 99.0),
        walls.iter().map(Vec::len).sum::<usize>(),
        run_steal.share() * 100.0
    ));
    let worst = walls
        .iter()
        .chain(&traced_walls)
        .flatten()
        .map(|w| w.0)
        .fold(0.0, f64::max);
    out.notes.push(format!(
        "cold-corpus: slowest call {worst:.1} ms, headroom {:.1} ms below the {COVER_CAP_MS} ms cover cap",
        COVER_CAP_MS - worst
    ));
    for (i, f) in corpus.iter().enumerate() {
        out.notes.push(format!(
            "  {:<12} {:<10} wall median {:>9.2} ms  max {:>9.2} ms  literals {:>4}  proven {}",
            f.name,
            f.bound.as_str(),
            per_fn[i],
            walls[i]
                .iter()
                .chain(&traced_walls[i])
                .map(|w| w.0)
                .fold(0.0, f64::max),
            literals[i].map_or("-".to_owned(), |l| l.to_string()),
            proven[i]
        ));
    }

    if ctx.trace {
        let traced_fn: Vec<f64> = traced_walls
            .iter()
            .map(|w| median(&host::quiet(w)))
            .collect();
        let traced_batch: f64 = traced_fn.iter().sum();
        crate::layers_from_digests(&mut out, &digests);
        out.layer
            .insert("trace.overhead", traced_batch / batch_ms - 1.0);
        crate::layers_from_spans(&mut out, &tracer, digests.len() as f64);
    }
    Ok(out)
}
