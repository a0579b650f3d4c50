//! Timed calls into the library front door (`parse_pla`, then
//! `execute_fns`), shared by the `cold-corpus` and `deadline-wide`
//! workloads, and the digest of the engine events a traced call records.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use spp_core::{
    execute_fns, parse_pla, Event, EventSink, ExecEnv, MinimizeRequest, MinimizeResponse, Phase,
};

use crate::trace::{ms, Recorder, Tracer};

/// Worker threads every library request pins (the host has two cores).
pub const THREADS: usize = 2;

/// One timed library call.
pub struct Call {
    pub start: Instant,
    /// When `parse_pla` (and the split into output functions) returned.
    pub parsed: Instant,
    pub end: Instant,
    /// The response, or why there is none (parse error, error frame or
    /// panic).
    pub result: Result<MinimizeResponse, String>,
    /// Engine events, when traced.
    pub events: Vec<(Instant, Event)>,
}

impl Call {
    pub fn wall_ms(&self) -> f64 {
        ms(self.start, self.end)
    }
}

/// Parses and executes `req` the way a library caller does. With
/// `traced`, a [`Recorder`] is installed as the engine's event sink.
pub fn call(req: &MinimizeRequest, traced: bool) -> Call {
    let recorder = traced.then(Recorder::new);
    let env = ExecEnv {
        sink: recorder.clone().map(|r| r as Arc<dyn EventSink>),
        ..ExecEnv::default()
    };
    let start = Instant::now();
    let parsed = catch_unwind(|| parse_pla(&req.pla).map(|pla| (pla.output_fns(), pla)));
    let parsed_at = Instant::now();
    let result = match parsed {
        Err(_) => Err("panic in parse_pla".to_owned()),
        Ok(Err(e)) => Err(format!("parse error: {e}")),
        Ok(Ok((fns, pla))) => {
            match catch_unwind(AssertUnwindSafe(|| {
                execute_fns(req, &fns, pla.output_labels(), &env)
            })) {
                Err(_) => Err("panic in execute_fns".to_owned()),
                Ok(Err(frame)) => Err(format!("error frame: {}", frame.to_json())),
                Ok(Ok(executed)) => Ok(executed.response),
            }
        }
    };
    let end = Instant::now();
    let events = recorder.map(|r| r.take()).unwrap_or_default();
    Call {
        start,
        parsed: parsed_at,
        end,
        result,
        events,
    }
}

/// Records a traced call's spans: the call, its two layer calls and the
/// engine spans under `execute_fns`.
pub fn trace_call(tracer: &mut Tracer, c: &Call, request: &str) {
    let root = tracer.push("call", c.start, c.end, None, request);
    tracer.push("parse_pla", c.start, c.parsed, Some(root), request);
    let exec = tracer.push("execute_fns", c.parsed, c.end, Some(root), request);
    tracer.push_events(&c.events, exec, request);
}

/// Counters folded from engine events.
#[derive(Clone, Debug, Default)]
pub struct Digest {
    pub parse_ms: f64,
    pub exec_ms: f64,
    pub gen_ms: f64,
    pub unions: u64,
    pub retained: u64,
    pub peak_level: u64,
    pub cover_ms: f64,
    pub nodes: u64,
    pub covers: u64,
    pub covers_proven: u64,
    pub improved: u64,
    pub rungs: u64,
}

impl Digest {
    pub fn add(&mut self, c: &Call) {
        self.parse_ms += ms(c.start, c.parsed);
        self.exec_ms += ms(c.parsed, c.end);
        for (_, e) in &c.events {
            match e {
                Event::PhaseFinished {
                    phase: Phase::Generate,
                    wall,
                    ..
                } => {
                    self.gen_ms += wall.as_secs_f64() * 1e3;
                }
                Event::PhaseFinished {
                    phase: Phase::Cover,
                    wall,
                    ..
                } => {
                    self.cover_ms += wall.as_secs_f64() * 1e3;
                }
                Event::GenLevelStarted { degree, .. } => {
                    self.peak_level = self.peak_level.max(*degree as u64);
                }
                Event::GenLevelFinished {
                    unions, retained, ..
                } => {
                    self.unions += *unions as u64;
                    self.retained += *retained as u64;
                }
                Event::CoverFinished { nodes, optimal, .. } => {
                    self.nodes += nodes;
                    self.covers += 1;
                    self.covers_proven += u64::from(*optimal);
                }
                Event::CoverImproved { .. } => self.improved += 1,
                Event::RungStarted { .. } => self.rungs += 1,
                _ => {}
            }
        }
    }

    /// `execute` wall minus generation minus covering.
    pub fn residual_ms(&self) -> f64 {
        self.exec_ms - self.gen_ms - self.cover_ms
    }
}
