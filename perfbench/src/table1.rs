//! `table1`: the paper's Table I through `run_table1`, in the
//! `table1_report` configuration (`ExperimentOptions::fast()`, 32 replayed
//! patterns, automatic threads, no cache) at a reduced scale.
//!
//! Every pass runs the twelve circuits on a fresh netlist seed derived from
//! the run seed, so the pass time is a median over distinct circuits.
//! ATPG carries almost all of a pass.
//!
//! The traced phase recomposes each circuit from the public stages with
//! the same worker count and inner thread budget as `run_table1`, and
//! compares the rows with `run_table1`'s byte for byte. A mismatch marks
//! the trace stale; it does not fail the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use scanpower_suite::atpg::AtpgFlow;
use scanpower_suite::core::experiment::{
    run_table1, CircuitExperiment, CircuitRow, ExperimentOptions,
};
use scanpower_suite::core::ExperimentResult;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::sim::BlockDriver;
use scanpower_suite::wire::Wire;

use crate::common::{
    derive, evaluate_structures, record_env, record_simulated, record_stage_metrics, repeat_for,
    row_bytes, row_is_sane, shift_cycles, timed_median, Env, RunConfig,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Circuit size factor: one pass takes about a second on two cores.
const SCALE: f64 = 0.1;
/// Replayed patterns per circuit, as in `table1_report`.
const PATTERNS: usize = 32;
const SETUP_REPS: usize = 3;
/// Circuits cheap enough to cross-check with a direct `try_run` (all but
/// the four largest).
const CHEAP_CIRCUITS: u64 = 8;
/// Seed stream of the warm-up pass; timed passes use streams 0, 1, ….
const WARM_UP: u64 = u64::MAX;

fn options() -> ExperimentOptions {
    ExperimentOptions {
        max_patterns: Some(PATTERNS),
        ..ExperimentOptions::fast()
    }
}

/// One untraced pass: its netlist seed, host time and rows.
struct Pass {
    seed: u64,
    seconds: f64,
    rows: Vec<CircuitRow>,
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let specs = CircuitFamily::table1();
    let options = options();
    let table = |seed: u64| {
        catch_unwind(AssertUnwindSafe(|| {
            run_table1(&specs, &options, Some(SCALE), seed).rows
        }))
    };

    // Set-up: a warm-up pass (first-call costs, thread start-up, page
    // faults), repeated; its rows must not change between repetitions.
    let warm_seed = derive(cfg.seed, WARM_UP);
    let mut warm: Vec<Vec<Vec<u8>>> = Vec::new();
    let setup_s = timed_median(SETUP_REPS, || {
        warm.push(table(warm_seed).map_or_else(|_| Vec::new(), |rows| row_bytes(&rows)));
    });
    report.check(
        warm.iter()
            .all(|rows| rows.len() == specs.len() && *rows == warm[0]),
        || "warm-up passes differ between repetitions".into(),
    );

    let mut passes: Vec<Pass> = Vec::new();
    repeat_for(cfg.phase_window(), usize::MAX, |k| {
        let seed = derive(cfg.seed, k as u64);
        let start = Instant::now();
        let outcome = table(seed);
        let seconds = start.elapsed().as_secs_f64();
        match outcome {
            Ok(rows) => {
                check_rows(&mut report, &specs, &rows, k);
                passes.push(Pass {
                    seed,
                    seconds,
                    rows,
                });
            }
            Err(_) => report.fail_all(specs.len() as u64, "run_table1 panicked"),
        }
    });
    let Some(first) = passes.first() else {
        return report;
    };

    // A direct `try_run` of one cheap circuit must reproduce its row.
    let index = (cfg.seed % CHEAP_CIRCUITS) as usize;
    let netlist = specs[index].scaled(SCALE).generate(first.seed);
    let direct = CircuitExperiment::new(options.clone()).try_run(&netlist);
    report.check(
        direct.is_ok_and(|row| {
            first
                .rows
                .get(index)
                .is_some_and(|served| served.to_wire_bytes() == row.to_wire_bytes())
        }),
        || {
            format!(
                "direct try_run of {} differs from run_table1",
                specs[index].name()
            )
        },
    );

    let seconds: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let rows: usize = passes.iter().map(|p| p.rows.len()).sum();
    let cycles_per_s: Vec<f64> = passes
        .iter()
        .map(|p| p.rows.iter().map(shift_cycles).sum::<u64>() as f64 / p.seconds)
        .collect();
    let pass_s = median(&seconds).expect("at least one pass");
    report.set("setup_s", setup_s);
    report.set("pass_s", pass_s);
    report.set("jobs_per_s", rows as f64 / seconds.iter().sum::<f64>());
    report.set(
        "shift_cycles_per_s",
        median(&cycles_per_s).expect("at least one pass"),
    );
    record_simulated(&mut report, &first.rows);
    let mut env = Env {
        workers: BlockDriver::new(options.threads).threads(),
        clients: 1,
        scale: SCALE,
        patterns: PATTERNS,
        samples: passes.len(),
        passes: passes.len(),
    };
    if cfg.trace {
        env.passes = traced_phase(cfg, &mut report, &specs, &options, &passes);
    }
    record_env(&mut report, cfg, &env);
    report
}

fn check_rows(report: &mut Report, specs: &[CircuitFamily], rows: &[CircuitRow], pass: usize) {
    report.check(rows.len() == specs.len(), || {
        format!(
            "pass {pass}: {} rows for {} circuits",
            rows.len(),
            specs.len()
        )
    });
    for (spec, row) in specs.iter().zip(rows) {
        report.check(
            row.circuit == spec.name() && row.patterns <= PATTERNS && row_is_sane(row),
            || format!("pass {pass}: implausible row {row:?}"),
        );
    }
}

/// Work counters of one traced pass.
#[derive(Debug, Default)]
struct Counts {
    faults: usize,
    random_patterns: usize,
    podem_patterns: usize,
    aborted: usize,
    untestable: usize,
    random_sim_passes: usize,
    generated: usize,
    replayed: usize,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.faults += other.faults;
        self.random_patterns += other.random_patterns;
        self.podem_patterns += other.podem_patterns;
        self.aborted += other.aborted;
        self.untestable += other.untestable;
        self.random_sim_passes += other.random_sim_passes;
        self.generated += other.generated;
        self.replayed += other.replayed;
    }
}

fn traced_phase(
    cfg: &RunConfig,
    report: &mut Report,
    specs: &[CircuitFamily],
    options: &ExperimentOptions,
    passes: &[Pass],
) -> usize {
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced = Vec::new();
    let mut rows_match = true;
    let mut traced_rows = Vec::new();
    let ran = repeat_for(cfg.phase_window(), passes.len(), |k| {
        let start = Instant::now();
        let (rows, pass_counts) = recomposed_pass(&tracer, specs, options, passes[k].seed, k);
        traced.push(start.elapsed().as_secs_f64());
        counts.add(&pass_counts);
        let rows: Vec<CircuitRow> = rows.into_iter().filter_map(Result::ok).collect();
        rows_match &= row_bytes(&rows) == row_bytes(&passes[k].rows);
        traced_rows.extend(rows);
    });
    if !rows_match {
        eprintln!("perfbench: trace stale: recomposed rows differ from run_table1");
    }
    let untraced: Vec<f64> = passes[..ran].iter().map(|p| p.seconds).collect();
    let untraced_pass_s = median(&untraced).expect("at least one pass");
    let traced_pass_s = median(&traced).expect("at least one traced pass");
    let per_pass = 1.0 / ran as f64;
    let spans = tracer.spans();
    report.set("trace.untraced_pass_s", untraced_pass_s);
    report.set("trace.traced_pass_s", traced_pass_s);
    report.set("trace.overhead_s", traced_pass_s - untraced_pass_s);
    report.set("trace.rows_match", f64::from(u8::from(rows_match)));
    report.set("atpg.faults", counts.faults as f64 * per_pass);
    report.set(
        "atpg.random_patterns",
        counts.random_patterns as f64 * per_pass,
    );
    report.set(
        "atpg.podem_patterns",
        counts.podem_patterns as f64 * per_pass,
    );
    report.set("atpg.aborted_faults", counts.aborted as f64 * per_pass);
    report.set(
        "atpg.untestable_faults",
        counts.untestable as f64 * per_pass,
    );
    report.set(
        "atpg.random_sim_passes",
        counts.random_sim_passes as f64 * per_pass,
    );
    report.set(
        "atpg.replayed_ratio",
        counts.replayed as f64 / counts.generated.max(1) as f64,
    );
    record_stage_metrics(report, &spans, &traced_rows, ran);
    report.set_spans(spans);
    ran
}

/// One Table I pass recomposed from the public stages, with spans around
/// each: generate → lint preflight → `AtpgFlow::run` → truncate → the
/// three replays, the input-control plan and `ProposedMethod::apply`.
fn recomposed_pass(
    tracer: &Tracer,
    specs: &[CircuitFamily],
    options: &ExperimentOptions,
    seed: u64,
    pass: usize,
) -> (Vec<ExperimentResult<CircuitRow>>, Counts) {
    // The worker count and inner thread budget of `run_table1`.
    let shards = BlockDriver::new(options.threads);
    let mut options = options.clone();
    let workers = shards.threads().min(specs.len());
    if workers > 1 {
        let inner_budget = (shards.threads() / workers).max(1);
        if options.atpg.threads == 0 {
            options.atpg.threads = inner_budget;
        }
        if options.proposed.threads == 0 {
            options.proposed.threads = inner_budget;
        }
    }
    let experiment = CircuitExperiment::new(options.clone());
    let pass_span = tracer.open("table1.pass", None, pass as u64);
    let results = shards.map(specs.len(), |job| {
        let id = job as u64;
        let circuit = tracer.open("circuit", Some(pass_span), id);
        let span = Some(circuit);
        let mut counts = Counts::default();
        let row = (|| -> ExperimentResult<CircuitRow> {
            let netlist = tracer.span("netlist.generate", span, id, || {
                specs[job].scaled(SCALE).generate(seed)
            });
            tracer.span("lint", span, id, || experiment.lint_preflight(&netlist))?;
            let test_set = tracer.span("atpg", span, id, || {
                AtpgFlow::new(options.atpg.clone()).run(&netlist)
            });
            let mut patterns = test_set.to_scan_patterns(&netlist);
            counts = Counts {
                faults: test_set.total_faults,
                random_patterns: test_set.random_patterns,
                podem_patterns: test_set.deterministic_patterns,
                aborted: test_set.aborted_faults,
                untestable: test_set.untestable_faults,
                random_sim_passes: test_set.random_sim_passes,
                generated: patterns.len(),
                replayed: 0,
            };
            if let Some(limit) = options.max_patterns {
                patterns.truncate(limit);
            }
            counts.replayed = patterns.len();
            evaluate_structures(
                &experiment,
                Some(tracer),
                span,
                id,
                &netlist,
                &patterns,
                test_set.fault_coverage,
            )
        })();
        tracer.close(circuit);
        (row, counts)
    });
    tracer.close(pass_span);
    let mut total = Counts::default();
    let rows = results
        .into_iter()
        .map(|(row, counts)| {
            total.add(&counts);
            row
        })
        .collect();
    (rows, total)
}
