//! Suite-level lint tests: adversarial circuits hit their stable `SPL0xx`
//! codes, the Table I circuit family is lint-clean, and the lint preflight
//! and LintFacts gate-skipping compose with the experiment flow.

use scanpower_suite::core::experiment::{CircuitExperiment, ExperimentOptions, ReplayReference};
use scanpower_suite::lint::{lint_bench, lint_netlist, LintCode, Severity, LEAKAGE_PIN_LIMIT};
use scanpower_suite::netlist::bench;
use scanpower_suite::netlist::generator::{CircuitFamily, TABLE1_CIRCUITS};

#[test]
fn cyclic_circuit_reports_spl005_with_the_full_path() {
    let text = "INPUT(a)\nOUTPUT(y)\nx = NAND(a, y)\ny = NOT(x)\n";
    let result = lint_bench(text, "cyclic");
    assert!(result.netlist.is_none(), "cyclic netlists are not released");
    let loops: Vec<_> = result
        .report
        .with_code(LintCode::CombinationalLoop)
        .collect();
    assert_eq!(loops.len(), 1);
    assert_eq!(loops[0].severity, Severity::Error);
    assert_eq!(loops[0].code.code(), "SPL005");
    assert_eq!(loops[0].gates.len(), 2, "both gates of the loop are named");
    assert!(loops[0].message.contains("->"), "{}", loops[0].message);
}

#[test]
fn undriven_net_reports_spl001() {
    let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
    let result = lint_bench(text, "undriven");
    assert!(result.report.has_code(LintCode::UndrivenNet));
    let diag = result
        .report
        .with_code(LintCode::UndrivenNet)
        .next()
        .unwrap();
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.code.code(), "SPL001");
    assert_eq!(diag.nets[0].name, "ghost");
}

#[test]
fn multiply_driven_net_reports_spl003_with_a_line() {
    let text = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\nb = BUF(a)\n";
    let result = lint_bench(text, "multi");
    assert!(result.netlist.is_none());
    let diag = result
        .report
        .with_code(LintCode::MultiplyDrivenNet)
        .next()
        .unwrap();
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.code.code(), "SPL003");
    assert_eq!(diag.line, Some(4), "the second driver's line is reported");
}

#[test]
fn over_fanin_gate_reports_spl006() {
    let mut text = String::new();
    let width = LEAKAGE_PIN_LIMIT + 1;
    for i in 0..width {
        text.push_str(&format!("INPUT(i{i})\n"));
    }
    text.push_str("OUTPUT(y)\ny = AND(");
    let args: Vec<String> = (0..width).map(|i| format!("i{i}")).collect();
    text.push_str(&args.join(", "));
    text.push_str(")\n");
    let result = lint_bench(&text, "wide");
    let diag = result
        .report
        .with_code(LintCode::OverPinLimit)
        .next()
        .unwrap();
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.code.code(), "SPL006");
    assert!(diag.message.contains("32"), "{}", diag.message);
}

#[test]
fn duplicate_gates_report_spl008_as_a_note() {
    let text = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = AND(a, b)\ny = AND(b, a)\n";
    let result = lint_bench(text, "dup");
    let diag = result
        .report
        .with_code(LintCode::DuplicateGate)
        .next()
        .unwrap();
    assert_eq!(diag.severity, Severity::Note);
    assert_eq!(diag.code.code(), "SPL008");
    assert!(
        result.report.is_clean(),
        "duplicates alone do not block simulation"
    );
    assert!(result.netlist.is_some());
}

#[test]
fn parse_garbage_reports_spl009_with_line_and_token() {
    let text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
    let result = lint_bench(text, "garbage");
    let diag = result
        .report
        .with_code(LintCode::ParseError)
        .next()
        .unwrap();
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.line, Some(3));
    assert!(diag.message.contains("FROB"), "{}", diag.message);
}

/// The embedded s27 and every synthetic Table I circuit are lint-clean:
/// zero Error and zero Warning diagnostics (notes about constant cones and
/// leftover synthetic fan-out are expected and allowed).
#[test]
fn table1_circuits_are_lint_clean() {
    let report = lint_bench(bench::S27_BENCH, "s27").report;
    assert_eq!(report.count(Severity::Error), 0, "{}", report.to_text());
    assert_eq!(report.count(Severity::Warning), 0, "{}", report.to_text());
    for name in TABLE1_CIRCUITS {
        let spec = CircuitFamily::iscas89_like(name).unwrap().scaled(0.3);
        let netlist = spec.generate(1);
        let report = lint_netlist(&netlist);
        assert_eq!(
            report.count(Severity::Error),
            0,
            "{name}:\n{}",
            report.to_text()
        );
        assert_eq!(
            report.count(Severity::Warning),
            0,
            "{name}:\n{}",
            report.to_text()
        );
    }
}

/// End-to-end: the whole experiment row (three scan schemes, dynamic and
/// static power) is bit-identical with the LintFacts gate-skipping on and
/// off.
#[test]
fn experiment_rows_agree_with_and_without_facts_skipping() {
    let circuit = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let skipping = CircuitExperiment::new(ExperimentOptions::fast()).run(&circuit);
    let reference = CircuitExperiment::new(ExperimentOptions::fast())
        .with_reference(ReplayReference::NoLintFacts)
        .run(&circuit);
    assert_eq!(skipping, reference);
}
