//! Pieces shared by the workloads: run settings, seeded inputs, row checks
//! and digests.

use std::time::{Duration, Instant};

use scanpower_suite::core::baseline::{traditional_shift_config, InputControlBaseline};
use scanpower_suite::core::experiment::{CircuitExperiment, CircuitRow, SchemePower, Table1Report};
use scanpower_suite::core::{ExperimentResult, ProposedMethod};
use scanpower_suite::netlist::Netlist;
use scanpower_suite::sim::scan::ScanPattern;
use scanpower_suite::wire::{ContentHasher, Wire};

use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, stage, Span, Tracer};

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

impl RunConfig {
    /// The measured window of each phase: a traced run splits its time
    /// between an untraced and a traced phase.
    pub fn phase_window(&self) -> Duration {
        if self.trace {
            self.window / 2
        } else {
            self.window
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An independent seed for stream `stream` of the run seeded by `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ SplitMix::new(stream).next_u64()).next_u64()
}

/// Hardware threads, the default worker count of every layer.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `pass(k)` for k = 0, 1, … until `window` has elapsed (at least
/// once) or `limit` passes ran.
pub fn repeat_for(window: Duration, limit: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut k = 0;
    while k < limit && (k == 0 || start.elapsed() < window) {
        pass(k);
        k += 1;
    }
    k
}

/// Median seconds of the set-up repetitions.
pub fn timed_median(reps: usize, mut setup: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            setup();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("at least one set-up repetition")
}

/// Evaluates the three structures of one circuit on `patterns` from the
/// public stages: the traditional replay, the input-control plan and its
/// replay, `ProposedMethod::apply` and the proposed replay. Each stage runs
/// in a span under `parent` when `tracer` is set.
pub fn evaluate_structures(
    experiment: &CircuitExperiment,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
    id: u64,
    netlist: &Netlist,
    patterns: &[ScanPattern],
    fault_coverage: f64,
) -> ExperimentResult<CircuitRow> {
    let (traditional, _) = stage(tracer, "replay.traditional", parent, id, || {
        experiment.try_evaluate_scheme_stats(netlist, patterns, &traditional_shift_config(netlist))
    })?;
    let baseline = InputControlBaseline::new();
    let plan = stage(tracer, "input_control.plan", parent, id, || {
        baseline.plan(netlist)
    });
    let (input_control, _) = stage(tracer, "replay.input_control", parent, id, || {
        experiment.try_evaluate_scheme_stats(
            netlist,
            patterns,
            &baseline.shift_config(netlist, &plan),
        )
    })?;
    let proposed = stage(tracer, "proposed.apply", parent, id, || {
        ProposedMethod::new(experiment.options().proposed.clone()).apply(netlist)
    })?;
    let adapted = proposed.structure.adapt_patterns(patterns);
    let config = proposed.structure.shift_config(&proposed.scan_mode_pi);
    let (proposed_power, _) = stage(tracer, "replay.proposed", parent, id, || {
        experiment.try_evaluate_scheme_stats(proposed.structure.netlist(), &adapted, &config)
    })?;
    Ok(CircuitRow {
        circuit: netlist.name().to_owned(),
        gates: netlist.gate_count(),
        flip_flops: netlist.dff_count(),
        patterns: patterns.len(),
        fault_coverage,
        mux_coverage: proposed.mux_coverage(),
        traditional,
        input_control,
        proposed: proposed_power,
    })
}

/// A 48-bit digest of the rows' canonical wire bytes (exact in an f64).
pub fn digest(rows: &[CircuitRow]) -> f64 {
    let mut hasher = ContentHasher::new();
    for row in rows {
        hasher.write_part(&row.to_wire_bytes());
    }
    (hasher.finish() & ((1 << 48) - 1)) as f64
}

/// Simulated shift cycles of a row, summed over the three structures.
pub fn shift_cycles(row: &CircuitRow) -> u64 {
    schemes(row).map(|s| s.shift_cycles as u64).sum()
}

/// Simulated toggles of a row, summed over the three structures.
pub fn toggles(row: &CircuitRow) -> u64 {
    schemes(row).map(|s| s.total_toggles).sum()
}

fn schemes(row: &CircuitRow) -> impl Iterator<Item = &SchemePower> {
    [&row.traditional, &row.input_control, &row.proposed].into_iter()
}

/// Whether a row holds numbers a replay can produce: finite non-negative
/// power, coverages in [0, 1] and at least one shift cycle per structure.
pub fn row_is_sane(row: &CircuitRow) -> bool {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    row.patterns > 0
        && unit(row.fault_coverage)
        && unit(row.mux_coverage)
        && schemes(row).all(|s| {
            s.shift_cycles > 0
                && s.dynamic_per_hz_uw.is_finite()
                && s.dynamic_per_hz_uw >= 0.0
                && s.static_uw.is_finite()
                && s.static_uw >= 0.0
        })
}

/// Records the simulated statistics of `rows` beside the host times.
pub fn record_simulated(report: &mut Report, rows: &[CircuitRow]) {
    let table = Table1Report {
        rows: rows.to_vec(),
    };
    report.set("sim.row_digest", digest(rows));
    report.set(
        "sim.avg_dynamic_improvement_pct",
        table.average_dynamic_improvement(),
    );
    report.set(
        "sim.avg_static_improvement_pct",
        table.average_static_improvement(),
    );
    report.set(
        "sim.fault_coverage",
        rows.iter().map(|row| row.fault_coverage).sum::<f64>() / rows.len().max(1) as f64,
    );
}

/// The settings a run's numbers depend on.
#[derive(Debug, Clone)]
pub struct Env {
    pub workers: usize,
    pub clients: usize,
    pub scale: f64,
    pub patterns: usize,
    /// Samples behind the reported medians and percentiles.
    pub samples: usize,
    /// Passes (or jobs) of the traced phase.
    pub passes: usize,
}

/// Records the environment beside the metrics.
pub fn record_env(report: &mut Report, cfg: &RunConfig, env: &Env) {
    report.set("env.nproc", nproc() as f64);
    report.set("env.workers", env.workers as f64);
    report.set("env.clients", env.clients as f64);
    report.set("env.scale", env.scale);
    report.set("env.patterns", env.patterns as f64);
    report.set("env.seed", cfg.seed as f64);
    report.set("env.samples", env.samples as f64);
    report.set("env.passes", env.passes as f64);
}

/// Wire bytes of each row, for byte-exact comparisons.
pub fn row_bytes(rows: &[CircuitRow]) -> Vec<Vec<u8>> {
    rows.iter().map(Wire::to_wire_bytes).collect()
}

/// Per-pass stage times and replay work from the spans and rows of
/// `passes` traced passes.
pub fn record_stage_metrics(
    report: &mut Report,
    spans: &[Span],
    rows: &[CircuitRow],
    passes: usize,
) {
    let per_pass = 1.0 / passes.max(1) as f64;
    let stage = |name: &str| trace::busy(spans, name) * per_pass;
    let stage_s = trace::children_busy(spans, "circuit") * per_pass;
    let circuits_s = stage("circuit");
    let replay_s =
        stage("replay.traditional") + stage("replay.input_control") + stage("replay.proposed");
    report.set("trace.stage_s", stage_s);
    report.set("trace.span_coverage", stage_s / circuits_s);
    report.set("trace.atpg_share", stage("atpg") / stage_s);
    report.set(
        "trace.replay_plan_share",
        (replay_s + stage("input_control.plan")) / stage_s,
    );
    report.set("trace.spans", spans.len() as f64);
    report.set("netlist.generate_s", stage("netlist.generate"));
    report.set("lint.busy_s", stage("lint"));
    report.set("atpg.busy_s", stage("atpg"));
    report.set("replay.traditional_s", stage("replay.traditional"));
    report.set("replay.input_control_s", stage("replay.input_control"));
    report.set("replay.proposed_s", stage("replay.proposed"));
    report.set("input_control.plan_s", stage("input_control.plan"));
    report.set("proposed.apply_s", stage("proposed.apply"));
    report.set(
        "experiment.self_s",
        trace::self_time(spans, "circuit") * per_pass,
    );
    let cycles = rows.iter().map(shift_cycles).sum::<u64>() as f64 * per_pass;
    report.set("replay.shift_cycles", cycles);
    report.set(
        "replay.toggles",
        rows.iter().map(toggles).sum::<u64>() as f64 * per_pass,
    );
    report.set("replay.cycles_per_s", cycles / replay_s);
    report.set(
        "proposed.mux_coverage",
        rows.iter().map(|row| row.mux_coverage).sum::<f64>() / rows.len().max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(1, 0), derive(1, 0));
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
    }

    #[test]
    fn repeat_for_runs_at_least_once_and_honours_the_limit() {
        let mut runs = 0;
        assert_eq!(repeat_for(Duration::ZERO, 10, |_| runs += 1), 1);
        assert_eq!(runs, 1);
        assert_eq!(repeat_for(Duration::from_secs(60), 3, |_| {}), 3);
    }
}
