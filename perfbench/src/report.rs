//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run), so the catalogue lives here once. A
//! per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Display;

use crate::trace::Span;

/// End-to-end metrics: `(name, unit)`. Host time unless stated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("jobs_per_s", "1/s"),
    ("shift_cycles_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.stage_s", "s"),
    ("trace.span_coverage", "ratio"),
    ("trace.atpg_share", "ratio"),
    ("trace.replay_plan_share", "ratio"),
    ("trace.rows_match", "count"),
    ("trace.spans", "count"),
    ("netlist.generate_s", "s"),
    ("lint.busy_s", "s"),
    ("atpg.busy_s", "s"),
    ("atpg.faults", "count"),
    ("atpg.random_patterns", "count"),
    ("atpg.podem_patterns", "count"),
    ("atpg.aborted_faults", "count"),
    ("atpg.untestable_faults", "count"),
    ("atpg.random_sim_passes", "count"),
    ("atpg.replayed_ratio", "ratio"),
    ("replay.traditional_s", "s"),
    ("replay.input_control_s", "s"),
    ("replay.proposed_s", "s"),
    ("replay.shift_cycles", "count"),
    ("replay.toggles", "count"),
    ("replay.cycles_per_s", "1/s"),
    ("input_control.plan_s", "s"),
    ("proposed.apply_s", "s"),
    ("proposed.mux_coverage", "ratio"),
    ("experiment.self_s", "s"),
    ("transport.round_trips", "count"),
    ("transport.rtt_p50_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.empty_poll_ratio", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.planned_hit_share", "ratio"),
    ("serve.observed_hit_share", "ratio"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("sim.row_digest", "digest"),
    ("sim.avg_dynamic_improvement_pct", "%"),
    ("sim.avg_static_improvement_pct", "%"),
    ("sim.fault_coverage", "ratio"),
    ("env.nproc", "count"),
    ("env.workers", "count"),
    ("env.clients", "count"),
    ("env.scale", "ratio"),
    ("env.patterns", "count"),
    ("env.seed", "count"),
    ("env.samples", "count"),
    ("env.passes", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    env: BTreeMap<&'static str, String>,
    spans: Vec<Span>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a measured value under a catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records an environment fact for the info line.
    pub fn env(&mut self, key: &'static str, value: impl Display) {
        self.env.insert(key, value.to_string());
    }

    /// Keeps the spans of a traced run for writing out at exit.
    pub fn set_spans(&mut self, spans: Vec<Span>) {
        self.spans = spans;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Counts one checked operation; a failed check is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Counts `count` operations that all failed for the same reason.
    pub fn fail_all(&mut self, count: u64, why: &str) {
        self.attempted += count;
        self.failed += count;
        eprintln!("perfbench: {count} operation(s) failed: {why}");
    }

    /// Prints the info line (environment and every value set) and then
    /// the result line with the catalogue for this mode.
    pub fn print(mut self, traced: bool) {
        self.set(
            "ok_ratio",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.set("peak_rss_mb", peak_rss_mb());
        let env = self
            .env
            .iter()
            .map(|(key, value)| format!("\"{key}\": \"{value}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let values = self
            .values
            .iter()
            .map(|(name, value)| format!("\"{name}\": {}", number(*value)))
            .collect::<Vec<_>>()
            .join(", ");
        println!("{{\"env\": {{{env}}}, \"values\": {{{values}}}}}");

        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut finite = true;
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                // An end-to-end metric is missing only when its operations
                // failed; a per-layer one when the workload skips the layer.
                let value = self.values.get(name).copied();
                finite &= traced || value.is_some();
                let value = value.unwrap_or(0.0);
                finite &= value.is_finite();
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let correct = self.failed == 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never valid JSON) print as 0 and fail the run.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{}", value + 0.0)
    } else {
        "0".to_owned()
    }
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must name exactly this
    /// catalogue, with the same units.
    #[test]
    fn benchmark_json_names_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let rest = &rest[rest.find('"').expect("string value") + 1..];
                        rest[..rest.find('"').expect("string closes")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
            catalogue
                .iter()
                .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(END_TO_END));
        assert_eq!(listed("per_layer"), expect(PER_LAYER));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
