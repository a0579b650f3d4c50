//! Tracing for the traced run: a recording [`EventSink`] handed to the
//! engine through `ExecEnv.sink`, and in-memory spans around every layer
//! call the benchmark makes. Spans are written out once, when the run
//! ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spp_core::{Event, EventSink, Phase};

/// Records every engine event with its arrival instant.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<(Instant, Event)>>,
}

impl EventSink for Recorder {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("no thread panics while holding the event log")
            .push((Instant::now(), event.clone()));
    }
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    pub fn take(&self) -> Vec<(Instant, Event)> {
        std::mem::take(
            &mut *self
                .events
                .lock()
                .expect("no thread panics while holding the event log"),
        )
    }
}

/// One layer call: name, start, end, the span that caused it, and the
/// request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: String,
}

/// The spans of one run, kept in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: &str,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            request: request.to_owned(),
        });
        self.spans.len() - 1
    }

    /// Turns one request's engine events into spans under `parent`:
    /// rungs, portfolio forms, generate and cover phases, and generation
    /// levels, nested by the order their start/finish events arrived.
    /// Events from parallel cover workers carry no span.
    pub fn push_events(&mut self, events: &[(Instant, Event)], parent: usize, request: &str) {
        // Collect (name, start, end, enclosing interval) first, so parents
        // are pushed before their children.
        let mut intervals: Vec<(String, Instant, Instant, Option<usize>)> = Vec::new();
        let mut stack: Vec<(String, usize)> = Vec::new();
        for (at, event) in events {
            let (start_name, finish_name): (Option<String>, Option<String>) = match event {
                Event::RungStarted { rung } => (Some(format!("rung.{}", rung.as_str())), None),
                Event::RungFinished { rung, .. } => (None, Some(format!("rung.{}", rung.as_str()))),
                Event::FormStarted { form } => (Some(format!("form.{}", form.as_str())), None),
                Event::FormFinished { form, .. } => (None, Some(format!("form.{}", form.as_str()))),
                Event::PhaseStarted { phase } => (Some(phase_name(*phase).to_owned()), None),
                Event::PhaseFinished { phase, .. } => (None, Some(phase_name(*phase).to_owned())),
                Event::GenLevelStarted { .. } => (Some("gen.level".to_owned()), None),
                Event::GenLevelFinished { .. } => (None, Some("gen.level".to_owned())),
                _ => (None, None),
            };
            if let Some(name) = start_name {
                let slot = intervals.len();
                intervals.push((name.clone(), *at, *at, stack.last().map(|s| s.1)));
                stack.push((name, slot));
            }
            if let Some(name) = finish_name {
                if let Some(pos) = stack.iter().rposition(|s| s.0 == name) {
                    while stack.len() > pos {
                        let (_, slot) = stack.pop().unwrap();
                        intervals[slot].2 = *at;
                    }
                }
            }
        }
        // Unclosed spans end at the last event.
        if let Some((last, _)) = events.last() {
            for (_, slot) in stack {
                intervals[slot].2 = *last;
            }
        }
        let base = self.spans.len();
        for (name, start, end, p) in intervals {
            let p = p.map_or(parent, |i| base + i);
            self.push(&name, start, end, Some(p), request);
        }
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the time its children cover.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.start, s.end);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name.clone()).or_insert(0.0) +=
                (ms(s.start, s.end) - child_ms[i]).max(0.0);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array, times in microseconds since the run
    /// began.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}}}{}\n",
                spp_obs::json::Json::from(s.name.as_str()),
                us(s.start),
                us(s.end),
                spp_obs::json::Json::from(s.request.as_str()),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

fn phase_name(phase: Phase) -> &'static str {
    phase.as_str()
}

pub fn ms(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}
