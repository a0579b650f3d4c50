//! The repository benchmark. Run it through `python3 sppbench/run.py`
//! (which builds this binary and `spp`), as
//!
//! ```text
//! run.py --workload <cold-corpus|serve-hot|deadline-wide> --seed <n> \
//!        --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a human-readable report, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). A full record of the
//! run, stamped with a host and build fingerprint, goes to
//! `.sppbench/results/`; a traced run's spans go to `.sppbench/spans/`.

mod check;
mod cold;
mod deadline;
mod engine;
mod gen;
mod host;
mod metrics;
mod serve;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{span_layer, RunResult, END_TO_END};
use stats::median;
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["cold-corpus", "serve-hot", "deadline-wide"];

/// Timings taken for a library workload's `setup_s`, and the rounds of
/// parsing each one times: one round takes well under a millisecond, so a
/// timing of many rounds stands well above timer and scheduler noise.
const LIBRARY_SETUP_REPS: usize = 21;
const LIBRARY_SETUP_ROUNDS: usize = 40;

/// What every workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `spp` binary (for `spp serve`).
    pub spp: PathBuf,
}

/// Set-up time of a library workload: parsing its PLA texts into output
/// functions, the way the library front door does. The texts are
/// generated beforehand, outside the timer, so only the program's own
/// parsing is timed. The result is the median over several timings of the
/// mean time per round, taken before the workload's first call (timed
/// between passes, it swung with the heap the engine had left behind).
pub fn library_setup_s(plas: &[&str]) -> Result<f64, String> {
    let mut runs = Vec::with_capacity(LIBRARY_SETUP_REPS);
    for _ in 0..LIBRARY_SETUP_REPS {
        let start = std::time::Instant::now();
        for _ in 0..LIBRARY_SETUP_ROUNDS {
            parse_all(plas)?;
        }
        runs.push(start.elapsed().as_secs_f64() / LIBRARY_SETUP_ROUNDS as f64);
    }
    Ok(median(&runs))
}

/// Parses every PLA the way the library front door does.
fn parse_all(plas: &[&str]) -> Result<(), String> {
    for pla in plas {
        let parsed = spp_core::parse_pla(pla).map_err(|e| format!("input does not parse: {e}"))?;
        std::hint::black_box(parsed.output_fns());
    }
    Ok(())
}

/// Per-layer metrics of a library workload, from the traced passes'
/// event digests: times are medians over passes, counts come from the
/// last traced pass.
pub fn layers_from_digests(out: &mut RunResult, digests: &[engine::Digest]) {
    let Some(last) = digests.last() else { return };
    let med = |f: fn(&engine::Digest) -> f64| median(&digests.iter().map(f).collect::<Vec<_>>());
    out.layer.insert("parse.ms", med(|d| d.parse_ms));
    out.layer.insert("generate.ms", med(|d| d.gen_ms));
    out.layer.insert("generate.unions", last.unions as f64);
    out.layer.insert(
        "generate.retained_ratio",
        if last.unions > 0 {
            last.retained as f64 / last.unions as f64
        } else {
            0.0
        },
    );
    out.layer
        .insert("generate.peak_level", last.peak_level as f64);
    out.layer.insert("cover.ms", med(|d| d.cover_ms));
    out.layer.insert("cover.nodes", last.nodes as f64);
    out.layer.insert(
        "cover.proven_share",
        if last.covers > 0 {
            last.covers_proven as f64 / last.covers as f64
        } else {
            0.0
        },
    );
    out.layer.insert("cover.improved", last.improved as f64);
    out.layer.insert("ladder.rungs", last.rungs as f64);
    out.layer
        .insert("ladder.residual_ms", med(engine::Digest::residual_ms));
}

/// Self time per layer (divided by `per`: traced passes, or traced
/// requests for the daemon), the span count, and the spans themselves.
pub fn layers_from_spans(out: &mut RunResult, tracer: &Tracer, per: f64) {
    for (span, self_ms) in tracer.self_ms() {
        if let Some(layer) = span_layer(&span) {
            *out.layer.entry(layer).or_insert(0.0) += self_ms / per.max(1.0);
        }
    }
    out.layer.insert("trace.spans", tracer.len() as f64);
    out.spans_json = Some(tracer.to_json());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spp) = (None, 1, 30.0, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--spp" => spp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spp: spp.ok_or("--spp is required")?,
    })
}

/// The host and build fingerprint stamped on every result.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let s = |v: &str| spp_obs::json::Json::from(v).to_string();
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"kernel_backend\": {}, \"rustc\": {}, \"build\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        s(&cpu),
        s(spp_kernels::active().name()),
        s(&env("SPPBENCH_RUSTC")),
        s(&env("SPPBENCH_BUILD")),
    )
}

fn json_strings(lines: &[String]) -> String {
    lines
        .iter()
        .map(|l| spp_obs::json::Json::from(l.as_str()).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_out(dir: &str, file: &str, text: &str) {
    let dir = PathBuf::from(".sppbench").join(dir);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), text))
    {
        eprintln!("sppbench: cannot write {}: {e}", dir.join(file).display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sppbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spp: args.spp,
    };
    let fp = fingerprint();
    println!(
        "sppbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("sppbench: fingerprint {fp}");
    let result = match args.workload.as_str() {
        "cold-corpus" => cold::run(&ctx),
        "serve-hot" => serve::run(&ctx),
        _ => deadline::run(&ctx),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sppbench: {} could not be measured: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "{}: fail_share = {} ({} of {} answers failed)",
        args.workload,
        out.fail_share(),
        out.failed,
        out.attempted
    );
    for why in &out.failures {
        println!("  failed: {why}");
    }
    for (name, value, unit) in &out.named {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    if ctx.trace {
        for (name, unit) in metrics::PER_LAYER {
            println!(
                "layer {name} = {} {unit}",
                out.layer.get(name).copied().unwrap_or(0.0)
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            println!(
                "end-to-end {name} = {} {unit}",
                out.e2e.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    println!(
        "checker: {} answers checked independently, {} rejected or failed",
        out.attempted, out.failed
    );

    let tag = format!("{}-s{}-t{}", args.workload, ctx.seed, u8::from(ctx.trace));
    if let Some(spans) = &out.spans_json {
        write_out("spans", &format!("{tag}.json"), spans);
    }
    let named: Vec<String> = out
        .named
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .chain(std::iter::once(format!(
            "\"fail_share\": {{\"value\": {}, \"unit\": \"share\"}}",
            out.fail_share()
        )))
        .collect();
    let metrics = out.metrics_json(ctx.trace);
    write_out(
        "results",
        &format!("{tag}.json"),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {fp}, \
             \"attempted\": {}, \"failed\": {}, \"named\": {{{}}}, \"metrics\": {metrics}, \
             \"notes\": [{}], \"failures\": [{}]}}\n",
            args.workload,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            out.attempted,
            out.failed,
            named.join(", "),
            json_strings(&out.notes),
            json_strings(&out.failures)
        ),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}
