//! `structures`: the three scan structures evaluated on given test sets,
//! the paper's own setting. The largest Table I circuits run at full size
//! (generated with netlist seed 1, the `table1_report` default), and the
//! run seed draws a fully specified random test set for each of them.
//!
//! No ATPG runs, so the pass is carried by the replays
//! (`CircuitExperiment::try_evaluate_scheme_stats`), the input-control plan
//! and `ProposedMethod::apply`: the reverse of `table1`. Traced and untraced
//! passes run the same code; the traced one opens spans around each call.

use std::time::Instant;

use scanpower_suite::core::baseline::traditional_shift_config;
use scanpower_suite::core::experiment::{CircuitExperiment, CircuitRow, ExperimentOptions};
use scanpower_suite::core::ExperimentResult;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::Netlist;
use scanpower_suite::sim::scan::ScanPattern;
use scanpower_suite::wire::Wire;

use crate::common::{
    derive, evaluate_structures, record_env, record_simulated, record_stage_metrics, repeat_for,
    row_bytes, row_is_sane, shift_cycles, timed_median, Env, RunConfig, SplitMix,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

const CIRCUITS: [&str; 3] = ["s1423", "s5378", "s9234"];
const NETLIST_SEED: u64 = 1;
/// Patterns per test set: replay and input-control planning take similar
/// shares of a pass.
const PATTERNS: usize = 128;
const SETUP_REPS: usize = 5;

/// One circuit and its given test set.
struct Input {
    netlist: Netlist,
    patterns: Vec<ScanPattern>,
}

fn inputs(seed: u64) -> Vec<Input> {
    CIRCUITS
        .iter()
        .zip(0..)
        .map(|(name, stream)| {
            let netlist = CircuitFamily::iscas89_like(name)
                .expect("a Table I circuit")
                .generate(NETLIST_SEED);
            let mut bits = SplitMix::new(derive(seed, stream));
            let mut random = |count: usize| -> Vec<bool> {
                (0..count).map(|_| bits.next_u64() & 1 == 1).collect()
            };
            let patterns = (0..PATTERNS)
                .map(|_| {
                    let pi = random(netlist.primary_inputs().len());
                    let scan = random(netlist.dff_count());
                    ScanPattern::from_bools(&pi, &scan)
                })
                .collect();
            Input { netlist, patterns }
        })
        .collect()
}

/// Evaluates the three structures on every input.
fn pass(
    experiment: &CircuitExperiment,
    inputs: &[Input],
    tracer: Option<&Tracer>,
    pass: u64,
) -> ExperimentResult<Vec<CircuitRow>> {
    let pass_span = tracer.map(|t| t.open("structures.pass", None, pass));
    let rows = inputs
        .iter()
        .zip(0..)
        .map(|(Input { netlist, patterns }, id)| {
            let span = tracer.map(|t| t.open("circuit", pass_span, id));
            // A given test set: no fault simulation runs.
            let row = evaluate_structures(experiment, tracer, span, id, netlist, patterns, 0.0);
            if let (Some(t), Some(span)) = (tracer, span) {
                t.close(span);
            }
            row
        })
        .collect();
    if let (Some(t), Some(span)) = (tracer, pass_span) {
        t.close(span);
    }
    rows
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let options = ExperimentOptions::fast();
    let experiment = CircuitExperiment::new(options.clone());

    // Set-up: generate and lint the circuits, draw the test sets.
    let mut built = Vec::new();
    let setup_s = timed_median(SETUP_REPS, || {
        let inputs = inputs(cfg.seed);
        let linted = inputs
            .iter()
            .all(|input| experiment.lint_preflight(&input.netlist).is_ok());
        built.push((inputs, linted));
    });
    let (inputs, linted) = built.pop().expect("at least one set-up repetition");
    report.check(linted, || "a circuit failed the lint preflight".into());

    // Every pass evaluates the same inputs, so every pass must produce the
    // rows of the first one.
    let run_passes = |tracer: Option<&Tracer>, report: &mut Report| {
        let mut seconds = Vec::new();
        let mut rows = Vec::new();
        repeat_for(cfg.phase_window(), usize::MAX, |k| {
            let start = Instant::now();
            let outcome = pass(&experiment, &inputs, tracer, k as u64);
            seconds.push(start.elapsed().as_secs_f64());
            match outcome {
                Ok(pass_rows) => {
                    for row in &pass_rows {
                        report.check(row_is_sane(row) && row.patterns == PATTERNS, || {
                            format!("pass {k}: implausible row {row:?}")
                        });
                    }
                    rows.push(row_bytes(&pass_rows));
                }
                Err(error) => report.fail_all(CIRCUITS.len() as u64, &error.to_string()),
            }
        });
        (seconds, rows)
    };
    let (seconds, passes) = run_passes(None, &mut report);
    let reference = passes.first().cloned().unwrap_or_default();
    for (k, rows) in passes.iter().enumerate() {
        report.check(*rows == reference, || {
            format!("pass {k}: rows differ from the first pass")
        });
    }
    let reference_rows: Vec<CircuitRow> = reference
        .iter()
        .filter_map(|bytes| CircuitRow::from_wire_bytes(bytes).ok())
        .collect();

    // The scalar replay is the packed replay's reference implementation.
    let scalar = CircuitExperiment::new(ExperimentOptions {
        packed_replay: false,
        ..options.clone()
    });
    let first = &inputs[0];
    let oracle = scalar.try_evaluate_scheme_stats(
        &first.netlist,
        &first.patterns,
        &traditional_shift_config(&first.netlist),
    );
    report.check(
        oracle.is_ok_and(|(power, _)| {
            reference_rows
                .first()
                .is_some_and(|row| row.traditional.to_wire_bytes() == power.to_wire_bytes())
        }),
        || {
            format!(
                "scalar replay of {} disagrees with the packed replay",
                CIRCUITS[0]
            )
        },
    );

    let pass_s = median(&seconds).expect("at least one pass");
    let cycles: u64 = reference_rows.iter().map(shift_cycles).sum();
    let cycles_per_s: Vec<f64> = seconds.iter().map(|s| cycles as f64 / s).collect();
    report.set("setup_s", setup_s);
    report.set("pass_s", pass_s);
    report.set(
        "jobs_per_s",
        (CIRCUITS.len() * seconds.len()) as f64 / seconds.iter().sum::<f64>(),
    );
    report.set(
        "shift_cycles_per_s",
        median(&cycles_per_s).expect("at least one pass"),
    );
    record_simulated(&mut report, &reference_rows);
    report.env("circuits", CIRCUITS.join(","));
    let mut env = Env {
        workers: 1,
        clients: 1,
        scale: 1.0,
        patterns: PATTERNS,
        samples: seconds.len(),
        passes: seconds.len(),
    };

    if cfg.trace {
        let tracer = Tracer::new();
        let (traced, traced_passes) = run_passes(Some(&tracer), &mut report);
        let rows_match = traced_passes.iter().all(|rows| *rows == reference);
        report.check(rows_match, || {
            "traced rows differ from untraced rows".into()
        });
        let traced_pass_s = median(&traced).expect("at least one traced pass");
        let spans = tracer.spans();
        let traced_rows: Vec<CircuitRow> = traced_passes
            .iter()
            .flat_map(|_| reference_rows.clone())
            .collect();
        report.set("trace.untraced_pass_s", pass_s);
        report.set("trace.traced_pass_s", traced_pass_s);
        report.set("trace.overhead_s", traced_pass_s - pass_s);
        report.set("trace.rows_match", f64::from(u8::from(rows_match)));
        record_stage_metrics(&mut report, &spans, &traced_rows, traced.len());
        report.set_spans(spans);
        env.passes = traced.len();
    }
    record_env(&mut report, cfg, &env);
    report
}
