//! `deadline-wide`: one caller sends `governed` library requests with
//! 10, 100 and 1000 ms deadlines on padded, XOR-heavy functions of 9 to
//! 12 inputs.

use std::time::{Duration, Instant};

use spp_core::{Event, MinimizeRequest};

use crate::check::{self, Truth};
use crate::cold::verdict;
use crate::engine::{self, Call, Digest, THREADS};
use crate::gen;
use crate::host::{self, StealMeter};
use crate::metrics::RunResult;
use crate::stats::{median, Pct};
use crate::trace::{ms, Tracer};
use crate::Ctx;

/// How far past its deadline an answer may arrive and still count as on
/// time.
pub const SLACK_MS: f64 = 20.0;

/// Run-control figures of one traced call, measured against the instant
/// its deadline fell due (`deadline_ms` after the call started).
#[derive(Default)]
struct Overrun {
    levels_past: u64,
    phase_overrun_ms: Option<f64>,
    backstop_ms: Option<f64>,
}

fn overrun(c: &Call, deadline_ms: u64) -> Overrun {
    let due = c.start + Duration::from_millis(deadline_ms);
    let mut o = Overrun::default();
    for (at, e) in &c.events {
        match e {
            Event::GenLevelStarted { .. } if *at > due => o.levels_past += 1,
            Event::PhaseFinished { .. } if *at > due => {
                o.phase_overrun_ms = Some(ms(due, *at));
            }
            _ => {}
        }
    }
    // The tail after the engine's last event: verification and, when a
    // stopped run's form fails it, the SOP backstop.
    if let Some((last, _)) = c.events.last() {
        o.backstop_ms = Some(ms(*last, c.end));
    }
    o
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let items = gen::deadline_items(ctx.seed);
    let truths: Vec<Truth> = items
        .iter()
        .map(|d| check::read_pla(&d.pla))
        .collect::<Result<_, _>>()?;
    let requests: Vec<MinimizeRequest> = items
        .iter()
        .map(|d| {
            MinimizeRequest::new(d.name.clone(), d.pla.clone())
                .with_threads(THREADS)
                .with_deadline_ms(d.deadline_ms)
        })
        .collect();
    let plas: Vec<&str> = items.iter().map(|d| d.pla.as_str()).collect();
    out.e2e.insert("setup_s", crate::library_setup_s(&plas)?);

    let n = items.len();
    // Per request: (latency ms, steal share) of every call.
    let mut latency: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut traced_latency: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let run_steal = StealMeter::start();
    let mut literals: Vec<Option<u64>> = vec![None; n];
    // Per call: (1 if answered after deadline + slack, steal share).
    let mut lateness: Vec<(f64, f64)> = Vec::new();
    let mut digests: Vec<Digest> = Vec::new();
    let (mut levels_past, mut phase_overrun, mut backstop) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut pass = 0usize;
    loop {
        let traced = ctx.trace && pass % 2 == 1;
        let pass_start = Instant::now();
        let mut digest = Digest::default();
        let mut pass_levels_past = 0;
        for (i, req) in requests.iter().enumerate() {
            let meter = StealMeter::start();
            let c = engine::call(req, traced);
            let timed = (c.wall_ms(), meter.share());
            out.attempted += 1;
            // A stopped run may answer `deadline_exceeded`; it must still
            // be a verified, correct form.
            if let Err(why) = verdict(&c.result, &truths[i], false) {
                out.fail(format!("{}: {why}", items[i].name));
            }
            if let Ok(r) = &c.result {
                literals[i].get_or_insert(r.total_literals());
            }
            let late = timed.0 > items[i].deadline_ms as f64 + SLACK_MS;
            lateness.push((f64::from(u8::from(late)), timed.1));
            if traced {
                traced_latency[i].push(timed);
                digest.add(&c);
                let o = overrun(&c, items[i].deadline_ms);
                pass_levels_past += o.levels_past;
                phase_overrun.extend(o.phase_overrun_ms);
                backstop.extend(o.backstop_ms);
                engine::trace_call(&mut tracer, &c, &format!("p{pass}/{}", items[i].name));
            } else {
                latency[i].push(timed);
            }
        }
        if traced {
            digests.push(digest);
            levels_past.push(pass_levels_past as f64);
        }
        pass += 1;
        let pass_s = pass_start.elapsed().as_secs_f64();
        let min_passes = if ctx.trace { 2 } else { 1 };
        if pass >= min_passes && started.elapsed().as_secs_f64() + pass_s > ctx.seconds {
            break;
        }
    }

    let per_req: Vec<f64> = latency.iter().map(|l| median(&host::quiet(l))).collect();
    let overshoot: Vec<f64> = per_req
        .iter()
        .zip(&items)
        .map(|(l, d)| l - d.deadline_ms as f64)
        .collect();
    let judged = host::quiet(&lateness);
    let late_share = judged.iter().sum::<f64>() / judged.len().max(1) as f64;
    let total_literals: u64 = literals.iter().map(|l| l.unwrap_or(0)).sum();
    out.e2e
        .insert("peak_rss_mb", crate::wire::peak_rss_mb(None).unwrap_or(0.0));
    out.e2e.insert("ok_share", 1.0 - out.fail_share());
    // The gate takes the latency median: the overshoot subtracts a fixed
    // deadline, so a 12% slower host moved its median by 28%.
    out.e2e.insert("p50_ms", Pct::of(&per_req, 50.0).value);
    out.layer
        .insert("tail.p99_ms", Pct::of(&overshoot, 99.0).value);
    out.e2e
        .insert("rate_rps", n as f64 / (per_req.iter().sum::<f64>() / 1e3));
    out.e2e.insert("literals", total_literals as f64);

    out.named("deadline.late_share", late_share, "share");
    out.named(
        "deadline.overshoot_p50_ms",
        Pct::of(&overshoot, 50.0).value,
        "ms",
    );
    out.notes.push(format!(
        "deadline-wide: {pass} passes; overshoot p50 {} ms, p99 {} ms over per-request medians \
         of the calls with little steal ({} of {}; steal over the run {:.1}%); late = answered \
         after deadline + {SLACK_MS} ms",
        Pct::of(&overshoot, 50.0),
        Pct::of(&overshoot, 99.0),
        judged.len(),
        lateness.len(),
        run_steal.share() * 100.0
    ));
    for (i, d) in items.iter().enumerate() {
        out.notes.push(format!(
            "  {:<28} latency median {:>9.2} ms  overshoot {:>9.2} ms  literals {}",
            d.name,
            per_req[i],
            overshoot[i],
            literals[i].map_or("-".to_owned(), |l| l.to_string())
        ));
    }

    if ctx.trace {
        crate::layers_from_digests(&mut out, &digests);
        out.layer.insert("deadline.late_share", late_share);
        out.layer
            .insert("deadline.levels_past", median(&levels_past));
        out.layer
            .insert("deadline.phase_overrun_ms", median(&phase_overrun));
        out.layer.insert("deadline.backstop_ms", median(&backstop));
        let traced_sum: f64 = traced_latency.iter().map(|l| median(&host::quiet(l))).sum();
        out.layer.insert(
            "trace.overhead",
            traced_sum / per_req.iter().sum::<f64>() - 1.0,
        );
        crate::layers_from_spans(&mut out, &tracer, digests.len() as f64);
    }
    Ok(out)
}
