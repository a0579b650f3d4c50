//! The metric catalogue (names and units must match `BENCHMARK.json`) and
//! the result of one run.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics: every workload reports every one of them (see
/// `README.md` for what each means on each workload).
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("p50_ms", "ms"),
    ("rate_rps", "1/s"),
    ("literals", "count"),
];

/// Per-layer metrics of the traced run; a layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    ("tail.p99_ms", "ms"),
    ("parse.ms", "ms"),
    ("generate.ms", "ms"),
    ("generate.unions", "count"),
    ("generate.retained_ratio", "share"),
    ("generate.peak_level", "count"),
    ("cover.ms", "ms"),
    ("cover.nodes", "count"),
    ("cover.proven_share", "share"),
    ("cover.improved", "count"),
    ("ladder.rungs", "count"),
    ("ladder.residual_ms", "ms"),
    ("race.spp_ms", "ms"),
    ("race.esop_ms", "ms"),
    ("race.dsop_ms", "ms"),
    ("race.sop_ms", "ms"),
    ("cache.hit_ratio", "share"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("delta.reuses", "count"),
    ("delta.rejects", "count"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p99_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.degraded_share", "share"),
    ("driver.lag_p99_ms", "ms"),
    ("deadline.levels_past", "count"),
    ("deadline.phase_overrun_ms", "ms"),
    ("deadline.backstop_ms", "ms"),
    ("deadline.late_share", "share"),
    ("self.parse_ms", "ms"),
    ("self.session_ms", "ms"),
    ("self.ladder_ms", "ms"),
    ("self.race_ms", "ms"),
    ("self.generate_ms", "ms"),
    ("self.cover_ms", "ms"),
    ("self.encode_ms", "ms"),
    ("self.send_ms", "ms"),
    ("self.wait_ms", "ms"),
    ("self.decode_ms", "ms"),
    ("trace.overhead", "share"),
    ("trace.spans", "count"),
];

/// Maps span names to the layer whose self time they count toward.
pub fn span_layer(span: &str) -> Option<&'static str> {
    Some(match span {
        "parse_pla" => "self.parse_ms",
        "execute_fns" => "self.session_ms",
        "generate" | "gen.level" => "self.generate_ms",
        "cover" => "self.cover_ms",
        "to_json" => "self.encode_ms",
        "send" => "self.send_ms",
        "wait" => "self.wait_ms",
        "from_json" => "self.decode_ms",
        s if s.starts_with("rung.") => "self.ladder_ms",
        s if s.starts_with("form.") => "self.race_ms",
        _ => return None,
    })
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values, by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values, by [`PER_LAYER`] name (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// The workload's figures under their own names (`cold.batch_s`,
    /// `serve.goodput_rps`, …), with units, for the human report.
    pub named: Vec<(String, f64, &'static str)>,
    /// Free-form report lines (per-function times, checker verdicts).
    pub notes: Vec<String>,
    /// Why answers failed (first few), for the report.
    pub failures: Vec<String>,
    /// Traced runs: the spans as JSON.
    pub spans_json: Option<String>,
}

impl RunResult {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_owned(), value, unit));
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line's `metrics` object: exactly the end-to-end
    /// metrics, or exactly the per-layer ones when traced.
    pub fn metrics_json(&self, traced: bool) -> String {
        let (defs, values) = if traced {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let fields: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_obs::json::Json;

    fn names_in(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).unwrap();
        let own = |defs: &[Metric]| {
            defs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names_in(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), own(PER_LAYER));

        // And the printed line carries exactly those names, with units.
        let run = RunResult::default();
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let printed = Json::parse(&run.metrics_json(traced)).unwrap();
            let keys: Vec<&str> = printed
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, defs.iter().map(|d| d.0).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_span_layer_is_a_per_layer_metric() {
        for span in [
            "parse_pla",
            "execute_fns",
            "generate",
            "cover",
            "rung.exact",
            "form.esop",
            "to_json",
            "send",
            "wait",
            "from_json",
        ] {
            let layer = span_layer(span).unwrap();
            assert!(PER_LAYER.iter().any(|(n, _)| *n == layer), "{layer}");
        }
    }
}
