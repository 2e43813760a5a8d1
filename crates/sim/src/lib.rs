//! Logic simulation for the `scanpower` workspace.
//!
//! The power numbers of the paper are produced by simulating the circuit
//! while test vectors are shifted through the scan chain. This crate
//! provides the simulation machinery, all of it built on one shared
//! evaluation layer:
//!
//! * [`kernel`] — the [`SimKernel`]: cached topological order, input
//!   mapping and per-net buffers, generic over [`LogicWord`] — one circuit
//!   state per pass ([`Logic`]) or sixty-four ([`PackedWord`], a two-word
//!   three-valued bit-parallel encoding). This module contains the single
//!   gate-evaluation implementation of the workspace.
//! * [`Logic`] — three-valued (0/1/X) logic with Kleene semantics.
//! * [`Evaluator`] — zero-delay scalar evaluation of the combinational part
//!   from a complete assignment of the combinational inputs.
//! * [`IncrementalSim`] — event-driven re-evaluation that reports exactly
//!   which nets toggled, used to count transitions cheaply across the many
//!   shift cycles of a scan test.
//! * [`scan`] — test-per-scan shift simulation ([`scan::ScanShiftSim`]) with
//!   per-net transition counts and per-cycle state observation.
//! * [`scan_packed`] — the packed 64-pattern scan-shift replay
//!   ([`scan_packed::PackedScanShiftSim`]): one kernel pass per shift cycle
//!   evaluates a whole block of patterns' circuit states at once, with
//!   popcount-based transition counting and a lane-aware observer;
//!   event-driven by default ([`scan_packed::Propagation`]), re-evaluating
//!   only the fanout cones of the nets each cycle actually changed;
//!   bit-identical [`scan::ShiftStats`] to the scalar replay in either mode.
//! * [`fault`] — 64-pattern-per-pass stuck-at fault simulation used by the
//!   ATPG substitute.
//! * [`parallel`] — the [`BlockDriver`]: deterministic sharding of
//!   independent ≤64-lane blocks across scoped threads (sequential fallback
//!   at one thread), with results merged in block order so every reduction is
//!   bit-identical to the sequential loop. Panicking jobs are isolated
//!   per job; [`BlockDriver::map_supervised`] adds typed per-job failures,
//!   a bounded retry budget and cooperative cancellation ([`CancelFlag`]).
//! * [`patterns`] — deterministic random pattern generation.
//! * [`failpoint`] — deterministic fault injection: named failpoints in
//!   the replay, observer and driver hot paths, compiled to no-ops unless
//!   the `fault-inject` feature is enabled.
//!
//! # Examples
//!
//! ```
//! use scanpower_netlist::bench;
//! use scanpower_sim::{Evaluator, Logic};
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let evaluator = Evaluator::new(&circuit);
//! let inputs = vec![Logic::Zero; circuit.combinational_inputs().len()];
//! let values = evaluator.evaluate(&circuit, &inputs);
//! assert_eq!(values.len(), circuit.net_count());
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```
//!
//! Evaluating 64 circuit states in one pass:
//!
//! ```
//! use scanpower_netlist::bench;
//! use scanpower_sim::kernel::{pack_bool_patterns, PackedWord, SimKernel};
//! use scanpower_sim::patterns::random_bool_patterns;
//!
//! let circuit = bench::parse(bench::S27_BENCH, "s27")?;
//! let mut kernel = SimKernel::<PackedWord>::new(&circuit);
//! let block = random_bool_patterns(kernel.inputs().len(), 64, 1);
//! let inputs = pack_bool_patterns(&block);
//! let values = kernel.evaluate(&circuit, &inputs);
//! assert_eq!(values.len(), circuit.net_count());
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
pub mod failpoint;
pub mod fault;
mod incremental;
pub mod kernel;
mod logic;
pub mod parallel;
pub mod patterns;
pub mod scan;
pub mod scan_packed;
mod wire_impls;

pub use eval::Evaluator;
pub use incremental::IncrementalSim;
pub use kernel::{DirtyWorklist, LogicWord, PackedWord, SimKernel};
pub use logic::Logic;
pub use parallel::{
    BlockDriver, CancelFlag, Canceled, JobContext, JobError, JobFailure, JobPolicy,
};
pub use scan_packed::{PackedScanShiftSim, Propagation, ShiftCycle};
