//! `serve-hot`: an out-of-process `spp serve --workers 2` daemon driven
//! open-loop, at fixed rates, by the benchmark's own load generator over one
//! connection (a second connection only added client threads competing
//! for the two cores, and widened the latency tail from run to run).
//!
//! Every request is timed from the instant it was *due*, not from when
//! the sender got round to it, so a stalled sender charges its delay to
//! the requests behind it; the sender's own lateness is reported
//! separately (`driver.lag_p99_ms`, the load generator's lag).

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spp_core::{MinimizeMode, MinimizeRequest, MinimizeResponse, Rung};
use spp_obs::json::Json;

use crate::check::{self, Truth};
use crate::gen::{self, Kind, ServeItem, ServeStream};
use crate::host::StealMeter;
use crate::metrics::RunResult;
use crate::stats::{median, Pct};
use crate::trace::{ms, Tracer};
use crate::wire::{self, Daemon};
use crate::Ctx;

/// The p99 latency limit a rate must meet to count toward goodput.
pub const LIMIT_MS: f64 = 10.0;
/// The fixed rate at which `p50_ms` and `tail.p99_ms` are reported.
pub const REFERENCE_RPS: f64 = 1000.0;
/// Daemon worker pool size (the host has two cores).
const WORKERS: usize = 2;
/// Reference-rate segments; the figures come from the ones with little
/// steal.
const SEGMENTS: usize = 6;
/// The goodput ladder: fixed rates doubling from this one, …
const LADDER_FROM_RPS: f64 = 250.0;
/// … over at most this many rungs (250 to 64 000 rps).
const LADDER_RUNGS: u32 = 9;
/// Requests per latency window: a window's p99 has ten samples beyond
/// it. A step's percentile is the median over its windows of each
/// window's percentile, so one burst of host interference moves one
/// window, not the step.
const WINDOW: usize = 1000;
/// Daemon start-ups timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// The request each timed start-up answers: a 4-input majority.
const SETUP_PLA: &str =
    ".i 4\n.o 1\n.type fd\n11-- 1\n1-1- 1\n1--1 1\n-11- 1\n-1-1 1\n--11 1\n.e\n";

/// One request of a step, ready to send.
struct Planned {
    id: String,
    item: ServeItem,
    payload: String,
    due: Duration,
    encode: (Instant, Instant),
}

/// What came back for one request.
struct Reply {
    recv: Instant,
    text: String,
    /// An error frame: a refused or failed request, which misses any
    /// latency limit.
    error: bool,
    /// Traced runs decode on arrival: when decoding started and ended.
    decode_span: Option<(Instant, Instant)>,
    /// The decoded reply, until the checker takes it.
    decoded: Option<Result<MinimizeResponse, String>>,
}

/// One fixed-rate step (or several, absorbed one after another).
#[derive(Default)]
struct Step {
    plan: Vec<Planned>,
    /// Per request: when it was due, when its send began and ended.
    sends: Vec<(Instant, Instant, Instant)>,
    replies: Vec<Option<Reply>>,
}

impl Step {
    /// Latency of every request from its due time; a missing reply or an
    /// error frame counts as infinitely late.
    fn latencies(&self) -> Vec<f64> {
        self.sends
            .iter()
            .zip(&self.replies)
            .map(|((due, _, _), r)| match r {
                Some(r) if !r.error => ms(*due, r.recv),
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn absorb(&mut self, other: Step) {
        self.plan.extend(other.plan);
        self.sends.extend(other.sends);
        self.replies.extend(other.replies);
    }

    /// Each consecutive window of about [`WINDOW`] requests' `p`-th
    /// latency percentile.
    fn per_window(&self, p: f64) -> Vec<f64> {
        let lat = self.latencies();
        let windows = (lat.len() / WINDOW).max(1);
        let size = lat.len().div_ceil(windows);
        lat.chunks(size).map(|c| Pct::of(c, p).value).collect()
    }

    /// The median over windows of each window's `p`-th percentile.
    fn windowed(&self, p: f64) -> f64 {
        median(&self.per_window(p))
    }

    /// Whether the step meets the latency limit: every request answered
    /// without an error frame, the windowed p99 within the limit, and the
    /// last window's median too, so a backlog that grows through the step
    /// fails it even when the early windows were fast.
    fn meets_limit(&self) -> bool {
        self.latencies().iter().all(|l| l.is_finite())
            && self.windowed(99.0) <= LIMIT_MS
            && self
                .per_window(50.0)
                .last()
                .is_some_and(|&p50| p50 <= LIMIT_MS)
    }

    fn lags(&self) -> Vec<f64> {
        self.sends
            .iter()
            .map(|(due, start, _)| ms(*due, *start))
            .collect()
    }
}

/// A reference segment: the step, its checked answers, the steal share of
/// its interval and the daemon's CPU seconds during it.
type Segment = (Step, Vec<Option<MinimizeResponse>>, f64, f64);

fn decode(text: &str) -> Result<MinimizeResponse, String> {
    if let Some(frame) = spp_core::ErrorFrame::from_json(text) {
        return Err(format!(
            "error frame {}: {}",
            frame.kind.as_str(),
            frame.message
        ));
    }
    MinimizeResponse::from_json(text).map_err(|f| format!("undecodable response: {}", f.message))
}

struct Client {
    items: ServeStream,
    sent: u64,
    stream: TcpStream,
}

impl Client {
    /// The next `rate × secs` requests of the seeded stream.
    fn stream(&mut self, rate: f64, secs: f64) -> Vec<ServeItem> {
        let count = ((rate * secs).ceil() as usize).max(1);
        self.items.by_ref().take(count).collect()
    }

    /// Encodes `items` as requests due `1/rate` apart.
    fn plan(&mut self, items: Vec<ServeItem>, rate: f64, traced: bool) -> Vec<Planned> {
        items
            .into_iter()
            .enumerate()
            .map(|(k, item)| {
                self.sent += 1;
                let id = format!("r{}", self.sent);
                let mode = if item.kind == Kind::Portfolio {
                    MinimizeMode::Portfolio
                } else {
                    MinimizeMode::Governed
                };
                let req =
                    MinimizeRequest::new(id.clone(), gen::truth_pla(item.truth)).with_mode(mode);
                let t0 = Instant::now();
                let payload = req.to_json();
                let encode = (t0, if traced { Instant::now() } else { t0 });
                Planned {
                    id,
                    item,
                    payload,
                    due: Duration::from_secs_f64(k as f64 / rate),
                    encode,
                }
            })
            .collect()
    }

    /// Sends `plan` open-loop while a reader thread collects the replies.
    fn run(&mut self, plan: Vec<Planned>, traced: bool) -> io::Result<Step> {
        let index: HashMap<String, usize> = plan
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        let expected = plan.len();
        let mut stream = self.stream.try_clone()?;
        let reader = std::thread::spawn(move || {
            let mut got: Vec<(usize, Reply)> = Vec::with_capacity(expected);
            while got.len() < expected {
                let text = match wire::read_frame(&mut stream) {
                    Ok(text) => text,
                    Err(e) => return (got, Some(e)),
                };
                let recv = Instant::now();
                let Some(&i) = wire::reply_id(&text).and_then(|id| index.get(id)) else {
                    return (
                        got,
                        Some(io::Error::other(format!(
                            "reply without a known id: {text}"
                        ))),
                    );
                };
                let (decode_span, decoded) = if traced {
                    let start = Instant::now();
                    let r = decode(&text);
                    (Some((start, Instant::now())), Some(r))
                } else {
                    (None, None)
                };
                let error = text.contains("\"error\":");
                got.push((
                    i,
                    Reply {
                        recv,
                        text,
                        error,
                        decode_span,
                        decoded,
                    },
                ));
            }
            (got, None)
        });
        let origin = Instant::now() + Duration::from_millis(2);
        let mut sends = Vec::with_capacity(plan.len());
        let mut send_error = None;
        for p in &plan {
            let due = origin + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            if let Err(e) = wire::write_frame(&mut self.stream, &p.payload) {
                send_error = Some(e);
                // Unblock the reader: nothing more is coming.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                break;
            }
            sends.push((due, start, Instant::now()));
        }
        let (got, read_error) = reader
            .join()
            .map_err(|_| io::Error::other("reader thread panicked"))?;
        if let Some(e) = send_error.or(read_error) {
            return Err(e);
        }
        let mut replies: Vec<Option<Reply>> = (0..plan.len()).map(|_| None).collect();
        for (i, reply) in got {
            replies[i] = Some(reply);
        }
        Ok(Step {
            plan,
            sends,
            replies,
        })
    }
}

/// Checks every reply of a step; returns the decoded responses (`None`
/// for a failed request) and counts failures into `out` when `counted`.
/// Refusals (`overloaded`) in a ladder rung that missed the limit are the
/// load telling the client no, and are not counted.
fn check_step(
    step: &mut Step,
    truths: &mut HashMap<u32, Truth>,
    out: &mut RunResult,
    counted: bool,
) -> Vec<Option<MinimizeResponse>> {
    let mut decoded = Vec::with_capacity(step.plan.len());
    for (p, reply) in step.plan.iter().zip(step.replies.iter_mut()) {
        let verdict = match reply {
            None => Err("no reply".to_owned()),
            Some(r) => {
                let result = r.decoded.take().unwrap_or_else(|| decode(&r.text));
                result.and_then(|resp| {
                    if !resp.verified {
                        return Err("verified:false".to_owned());
                    }
                    let truth = truths.entry(p.item.truth).or_insert_with(|| {
                        check::read_pla(&gen::truth_pla(p.item.truth)).expect("own PLA")
                    });
                    for o in &resp.outputs {
                        check::check_output(truth, &o.form, o.literals)
                            .map_err(|e| format!("checker: {e}"))?;
                    }
                    Ok(resp)
                })
            }
        };
        match verdict {
            Ok(resp) => {
                if counted {
                    out.attempted += 1;
                }
                decoded.push(Some(resp));
            }
            Err(why) => {
                let refused = why.contains("error frame overloaded");
                if counted || !refused {
                    out.attempted += 1;
                    out.fail(format!("{} ({}): {why}", p.id, p.item.kind.as_str()));
                }
                decoded.push(None);
            }
        }
    }
    decoded
}

fn daemon_cpu(daemon: &Daemon) -> f64 {
    daemon.pid().and_then(wire::cpu_seconds).unwrap_or(0.0)
}

fn cache_counters(addr: &str) -> Result<BTreeMap<&'static str, f64>, String> {
    let stats = wire::control(addr, "stats").map_err(|e| format!("stats op failed: {e}"))?;
    let cache = stats.get("cache").ok_or("stats without a cache object")?;
    let mut out = BTreeMap::new();
    for key in [
        "hits",
        "misses",
        "insertions",
        "evictions",
        "delta_reuses",
        "delta_rejects",
    ] {
        out.insert(key, cache.get(key).and_then(Json::as_f64).unwrap_or(0.0));
    }
    Ok(out)
}

/// Set-up time of the daemon: spawn `spp serve` until it has answered a
/// ping and one small minimize request.
fn daemon_setup(ctx: &Ctx) -> Result<f64, String> {
    let start = Instant::now();
    let mut daemon = Daemon::start(&ctx.spp, WORKERS).map_err(|e| format!("spp serve: {e}"))?;
    let mut stream = wire::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let req = MinimizeRequest::new("setup", SETUP_PLA);
    wire::write_frame(&mut stream, &req.to_json()).map_err(|e| e.to_string())?;
    let reply = wire::read_frame(&mut stream).map_err(|e| e.to_string())?;
    let took = start.elapsed().as_secs_f64();
    decode(&reply)?;
    drop(stream);
    daemon.stop().map_err(|e| format!("set-up daemon: {e}"))?;
    Ok(took)
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| daemon_setup(ctx))
        .collect::<Result<_, _>>()?;
    out.e2e.insert("setup_s", median(&setups));

    let mut daemon = Daemon::start(&ctx.spp, WORKERS).map_err(|e| format!("spp serve: {e}"))?;
    let stream = wire::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client {
        items: ServeStream::new(ctx.seed),
        sent: 0,
        stream,
    };
    let mut truths: HashMap<u32, Truth> = HashMap::new();
    let step = |client: &mut Client, rate: f64, secs: f64, traced: bool| {
        let items = client.stream(rate, secs);
        let plan = client.plan(items, rate, traced);
        let step = client
            .run(plan, traced)
            .map_err(|e| format!("load at {rate} rps: {e}"));
        std::thread::sleep(Duration::from_millis(100));
        step
    };

    // Warm-up: every hot key once, so the timed steps see a warm cache.
    // Its answers give `literals`.
    let warm_items: Vec<ServeItem> = gen::hot_set()
        .into_iter()
        .map(|truth| ServeItem {
            kind: Kind::Hot,
            truth,
        })
        .collect();
    let warm_plan = client.plan(warm_items, 200.0, false);
    let mut warm = client
        .run(warm_plan, false)
        .map_err(|e| format!("warm-up: {e}"))?;
    let warm_answers = check_step(&mut warm, &mut truths, &mut out, true);
    let hot_answers: Vec<&MinimizeResponse> = warm_answers.iter().flatten().collect();
    let hot_literals: u64 = hot_answers.iter().map(|a| a.total_literals()).sum();
    let unproven = hot_answers.iter().filter(|a| !a.optimal).count();

    // The reference rate is measured in segments, so the figures can come
    // from the ones with little steal. A traced run alternates untraced
    // and traced segments and climbs no ladder.
    let mut settle = step(&mut client, REFERENCE_RPS, ctx.seconds * 0.05, false)?;
    check_step(&mut settle, &mut truths, &mut out, true);
    // The footprint with the working set loaded; later, the overloaded
    // ladder rungs would set the peak by how far their queues grew, which
    // follows the host's spare CPU rather than the daemon.
    out.e2e.insert(
        "peak_rss_mb",
        wire::peak_rss_mb(daemon.pid()).unwrap_or(0.0),
    );
    let before = cache_counters(&daemon.addr)?;
    let segments = if ctx.trace { 2 * SEGMENTS } else { SEGMENTS };
    let segment_secs = ctx.seconds * 0.55 / segments as f64;
    let run_steal = StealMeter::start();
    // Reference segments, untraced and traced.
    let mut measured: [Vec<Segment>; 2] = [vec![], vec![]];
    for segment in 0..segments {
        let is_traced = ctx.trace && segment % 2 == 1;
        let meter = StealMeter::start();
        let cpu = daemon_cpu(&daemon);
        let mut s = step(&mut client, REFERENCE_RPS, segment_secs, is_traced)?;
        let (steal, cpu) = (meter.share(), daemon_cpu(&daemon) - cpu);
        let answers = check_step(&mut s, &mut truths, &mut out, true);
        measured[usize::from(is_traced)].push((s, answers, steal, cpu));
    }
    let after = cache_counters(&daemon.addr)?;
    // The goodput ladder: rates doubling from LADDER_FROM_RPS until a rung
    // misses the limit; the goodput is the last rung that met it (0 when
    // the first one misses).
    let mut rungs: Vec<(f64, f64, bool, f64)> = Vec::new();
    if !ctx.trace {
        let rung_secs = ctx.seconds * 0.03;
        for k in 0..LADDER_RUNGS {
            let rate = LADDER_FROM_RPS * f64::from(1u32 << k);
            let meter = StealMeter::start();
            let mut s = step(&mut client, rate, rung_secs, false)?;
            let ok = s.meets_limit();
            check_step(&mut s, &mut truths, &mut out, ok);
            rungs.push((rate, s.windowed(99.0), ok, meter.share()));
            if !ok {
                break;
            }
        }
    }
    let goodput = rungs.iter().take_while(|r| r.2).last().map_or(0.0, |r| r.0);
    // The reference figures come from the segments with little steal.
    let [untraced, traced_segments] = measured;
    let quiet = |segments: Vec<Segment>| {
        let steals: Vec<(f64, f64)> = segments.iter().map(|s| (s.2, s.2)).collect();
        let cut = crate::host::quiet(&steals).into_iter().fold(0.0, f64::max);
        let mut step = Step::default();
        let mut answers = Vec::new();
        let total = segments.len();
        let (mut kept, mut cpu) = (0, 0.0);
        for (s, a, steal, seconds) in segments {
            if steal <= cut {
                step.absorb(s);
                answers.extend(a);
                kept += 1;
                cpu += seconds;
            }
        }
        (step, answers, kept, total, cpu)
    };
    let (reference, ref_answers, kept, total, ref_cpu) = quiet(untraced);
    let (traced, _, _, _, _) = quiet(traced_segments);
    // Requests answered per second of daemon CPU at the reference rate.
    let per_cpu_second = reference.plan.len() as f64 / ref_cpu;
    out.e2e.insert("rate_rps", per_cpu_second);
    drop(client);
    daemon.stop().map_err(|e| format!("daemon: {e}"))?;
    let (p50, p99) = (reference.windowed(50.0), reference.windowed(99.0));
    let lag99 = Pct::of(&reference.lags(), 99.0);
    out.named("serve.requests_per_cpu_s", per_cpu_second, "1/s");
    if !ctx.trace {
        out.named("serve.goodput_rps", goodput, "1/s");
    }

    out.e2e.insert("ok_share", 1.0 - out.fail_share());
    out.e2e.insert("p50_ms", p50);
    out.layer.insert("tail.p99_ms", p99);
    out.e2e.insert("literals", hot_literals as f64);
    out.named("serve.p50_ms", p50, "ms");
    out.named("serve.p99_ms", p99, "ms");
    let lat = reference.latencies();
    out.notes.push(format!(
        "serve-hot: at {REFERENCE_RPS} rps, windows of {WINDOW}: median p50 {p50:.4} ms, median \
         p99 {p99:.4} ms; pooled p50 {} ms, p99 {} ms; client lag p99 {lag99} ms; {kept} of \
         {total} segments with little steal (steal over the run {:.1}%)",
        Pct::of(&lat, 50.0),
        Pct::of(&lat, 99.0),
        run_steal.share() * 100.0
    ));
    out.notes.push(format!(
        "serve-hot: {unproven} of {} hot functions are not proven optimal, so the cache never \
         answers their repeats",
        hot_answers.len()
    ));
    let windows: Vec<String> = reference
        .per_window(99.0)
        .iter()
        .map(|p| format!("{p:.2}"))
        .collect();
    out.notes
        .push(format!("  p99 per window: {} ms", windows.join(" ")));
    // Each kind's share of daemon CPU: the sum of its responses' `wall`
    // over the daemon's CPU seconds (a request runs on one worker).
    let mut write_share = 0.0;
    for kind in Kind::ALL {
        let lat: Vec<f64> = reference
            .plan
            .iter()
            .zip(reference.latencies())
            .filter(|(p, _)| p.item.kind == kind)
            .map(|(_, l)| l)
            .collect();
        let exec: Vec<f64> = reference
            .plan
            .iter()
            .zip(&ref_answers)
            .filter(|(p, _)| p.item.kind == kind)
            .filter_map(|(_, a)| a.as_ref().map(|a| a.wall.as_secs_f64() * 1e3))
            .collect();
        let cpu_share = exec.iter().sum::<f64>() / 1e3 / ref_cpu;
        if kind != Kind::Hot {
            write_share += cpu_share;
        }
        out.notes.push(format!(
            "  {:<9} latency p50 {} ms, p99 {} ms; exec p50 {} ms, max {} ms; {:.1}% of daemon CPU",
            kind.as_str(),
            Pct::of(&lat, 50.0),
            Pct::of(&lat, 99.0),
            Pct::of(&exec, 50.0),
            Pct::of(&exec, 100.0),
            cpu_share * 100.0
        ));
    }
    out.notes.push(format!(
        "serve-hot: the write path (fresh, edit, portfolio) took {:.1}% of daemon CPU",
        write_share * 100.0
    ));
    for (rate, p99, ok, steal) in &rungs {
        out.notes.push(format!(
            "  rung {rate:>9.1} rps  windowed p99 {p99:>9.3} ms  {}  (steal {:.1}%)",
            if *ok {
                "meets the limit"
            } else {
                "misses the limit"
            },
            steal * 100.0
        ));
    }

    if ctx.trace {
        layers(&mut out, &reference, &ref_answers, &before, &after);
        out.layer
            .insert("trace.overhead", traced.windowed(50.0) / p50 - 1.0);
        let mut tracer = Tracer::new();
        for ((p, (_, start, end)), reply) in
            traced.plan.iter().zip(&traced.sends).zip(&traced.replies)
        {
            tracer.push("to_json", p.encode.0, p.encode.1, None, &p.id);
            let Some(r) = reply else { continue };
            let done = r.decode_span.map_or(r.recv, |d| d.1);
            let root = tracer.push("request", *start, done, None, &p.id);
            tracer.push("send", *start, *end, Some(root), &p.id);
            tracer.push("wait", *end, r.recv, Some(root), &p.id);
            if let Some((start, end)) = r.decode_span {
                tracer.push("from_json", start, end, Some(root), &p.id);
            }
        }
        crate::layers_from_spans(&mut out, &tracer, traced.plan.len() as f64);
    }
    Ok(out)
}

/// The daemon-side per-layer metrics of the reference step.
fn layers(
    out: &mut RunResult,
    step: &Step,
    answers: &[Option<MinimizeResponse>],
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) {
    let d = |k: &str| after[k] - before[k];
    let lookups = d("hits") + d("misses");
    out.layer.insert(
        "cache.hit_ratio",
        if lookups > 0.0 {
            d("hits") / lookups
        } else {
            0.0
        },
    );
    out.layer.insert("cache.insertions", d("insertions"));
    out.layer.insert("cache.evictions", d("evictions"));
    out.layer.insert("delta.reuses", d("delta_reuses"));
    out.layer.insert("delta.rejects", d("delta_rejects"));

    let lat = step.latencies();
    let mut exec = Vec::new();
    let mut wait = Vec::new();
    let mut degraded = 0usize;
    let mut race: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (a, l) in answers.iter().zip(&lat) {
        let Some(a) = a else { continue };
        let wall = a.wall.as_secs_f64() * 1e3;
        exec.push(wall);
        wait.push(l - wall);
        degraded += usize::from(a.rung != Rung::Exact);
        for r in a.forms.iter().flatten() {
            race.entry(r.form.as_str())
                .or_default()
                .push(r.wall.as_secs_f64() * 1e3);
        }
    }
    out.layer
        .insert("serve.exec_p50_ms", Pct::of(&exec, 50.0).value);
    out.layer
        .insert("serve.exec_p99_ms", Pct::of(&exec, 99.0).value);
    out.layer
        .insert("serve.wait_p50_ms", Pct::of(&wait, 50.0).value);
    out.layer
        .insert("serve.wait_p99_ms", Pct::of(&wait, 99.0).value);
    out.layer.insert(
        "serve.degraded_share",
        degraded as f64 / exec.len().max(1) as f64,
    );
    for (form, metric) in [
        ("spp", "race.spp_ms"),
        ("esop", "race.esop_ms"),
        ("dsop", "race.dsop_ms"),
        ("sop", "race.sop_ms"),
    ] {
        out.layer
            .insert(metric, race.get(form).map_or(0.0, |w| median(w)));
    }
    out.layer
        .insert("driver.lag_p99_ms", Pct::of(&step.lags(), 99.0).value);
    out.notes.push(format!(
        "serve-hot layers: exec p50 {} p99 {} ms; wait p50 {} p99 {} ms",
        Pct::of(&exec, 50.0),
        Pct::of(&exec, 99.0),
        Pct::of(&wait, 50.0),
        Pct::of(&wait, 99.0)
    ));
}
