use scanpower_lint::LintFacts;
use scanpower_netlist::{GateId, GateKind, NetId, Netlist};
use scanpower_sim::failpoint;
use scanpower_sim::kernel;
use scanpower_sim::scan::ShiftPhase;
use scanpower_sim::{Logic, LogicWord, PackedWord, ShiftCycle};

use crate::model::{self, LeakageParams, VDD};

/// Per-gate-type, per-input-state leakage tables (the paper's "several
/// tables containing the leakage of each gate for a given input pattern").
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageLibrary {
    params: LeakageParams,
    supply: f64,
}

impl Default for LeakageLibrary {
    fn default() -> Self {
        LeakageLibrary::cmos45()
    }
}

impl LeakageLibrary {
    /// The default 45 nm / 0.9 V library, calibrated so the NAND2 table
    /// matches Figure 2 of the paper.
    #[must_use]
    pub fn cmos45() -> LeakageLibrary {
        LeakageLibrary {
            params: LeakageParams::cmos45(),
            supply: VDD,
        }
    }

    /// Builds a library from explicit model parameters.
    #[must_use]
    pub fn with_params(params: LeakageParams, supply: f64) -> LeakageLibrary {
        LeakageLibrary { params, supply }
    }

    /// Supply voltage used to convert currents to power (volts).
    #[must_use]
    pub fn supply(&self) -> f64 {
        self.supply
    }

    /// Model parameters backing the library.
    #[must_use]
    pub fn params(&self) -> &LeakageParams {
        &self.params
    }

    /// Leakage current (nA) of a gate of the given kind and fanin in input
    /// state `state` (bit `i` = value of pin `i`).
    #[must_use]
    pub fn gate_leakage(&self, kind: GateKind, fanin: usize, state: u32) -> f64 {
        model::gate_leakage(&self.params, kind, fanin, state)
    }

    /// The full per-state table of a gate (length `2^fanin`).
    ///
    /// # Panics
    ///
    /// Panics if `fanin >= 32` — leakage tables support at most 31 input
    /// pins (the `2^fanin` state count would silently wrap in release
    /// builds); table lookups enforce the same cap.
    #[must_use]
    pub fn gate_table(&self, kind: GateKind, fanin: usize) -> Vec<f64> {
        assert!(fanin < 32, "leakage tables support at most 31 input pins");
        (0..(1u32 << fanin))
            .map(|state| self.gate_leakage(kind, fanin, state))
            .collect()
    }

    /// The input state with minimum leakage for a gate.
    ///
    /// # Panics
    ///
    /// Panics if `fanin >= 32` — leakage tables support at most 31 input
    /// pins (the `2^fanin` state count would silently wrap in release
    /// builds); table lookups enforce the same cap.
    #[must_use]
    pub fn best_state(&self, kind: GateKind, fanin: usize) -> u32 {
        assert!(fanin < 32, "leakage tables support at most 31 input pins");
        (0..(1u32 << fanin))
            .min_by(|&a, &b| {
                self.gate_leakage(kind, fanin, a)
                    .total_cmp(&self.gate_leakage(kind, fanin, b))
            })
            .unwrap_or(0)
    }

    /// Converts a leakage current in nanoamperes to static power in
    /// microwatts at the library supply (`P = I · V_DD`, Equation (5)).
    #[must_use]
    pub fn current_to_power_uw(&self, nanoamps: f64) -> f64 {
        nanoamps * 1e-9 * self.supply * 1e6
    }
}

/// Which per-gate lookup the packed 64-lane leakage paths use.
///
/// Both modes are **bit-identical** — the lane-parallel tables are filled
/// by the scalar lookup itself — so the scalar mode exists purely as a
/// cross-check against the precompute (and as the measuring stick in the
/// `scan_shift` leakage-lookup bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LeakageLookup {
    /// Precompute per-gate ternary tables at build time and look every
    /// lane's state up with one bit-plane gather per gate (the default).
    #[default]
    LaneParallel,
    /// Re-run the scalar `averaged_table_lookup` subset enumeration for
    /// every gate × lane (the pre-precompute behaviour).
    Scalar,
}

/// Circuit-level leakage estimator with per-gate cached tables.
///
/// The estimator is built once per netlist (the tables depend only on gate
/// kinds and fanins) and can then evaluate the total leakage of any circuit
/// state cheaply — including partially-specified states, where unknown
/// inputs are averaged over.
///
/// For the packed 64-lane paths ([`circuit_leakage_lanes`]) the estimator
/// additionally precomputes **ternary tables**: one entry per 2-bit-per-pin
/// encoded input state (`00` = 0, `01` = 1, high bit set = X), holding the
/// already-X-averaged leakage. Every entry is filled by the scalar
/// `averaged_table_lookup` itself, so the fast path is bit-identical to
/// the scalar one by construction. Gates wider than
/// [`LeakageEstimator::TERNARY_FANIN_LIMIT`] pins (whose `4^fanin` table
/// would be too large) fall back to the scalar lookup per lane, as does the
/// whole estimator when built with [`LeakageLookup::Scalar`]. The ternary
/// tables are deduplicated by `(kind, fanin)`, so a netlist full of NAND2s
/// builds exactly one 16-entry table.
///
/// [`circuit_leakage_lanes`]: LeakageEstimator::circuit_leakage_lanes
#[derive(Debug, Clone)]
pub struct LeakageEstimator {
    tables: Vec<Vec<f64>>,
    /// Per gate: index into `ternary_tables`, or `None` when the gate falls
    /// back to the scalar lookup (fanin above the cap, or scalar mode).
    ternary: Vec<Option<usize>>,
    /// Precomputed ternary tables, deduplicated by `(kind, fanin)`.
    ternary_tables: Vec<Vec<f64>>,
    lookup: LeakageLookup,
    library: LeakageLibrary,
}

impl LeakageEstimator {
    /// Widest gate (input pins) that gets a precomputed ternary table; a
    /// table holds `4^fanin` entries, so the cap bounds each table at 8 MiB.
    /// Wider gates use the scalar subset enumeration per lane.
    pub const TERNARY_FANIN_LIMIT: usize = 10;

    /// Builds the estimator for `netlist` using `library`, with the
    /// lane-parallel lookup tables precomputed.
    #[must_use]
    pub fn new(netlist: &Netlist, library: &LeakageLibrary) -> LeakageEstimator {
        LeakageEstimator::with_lookup(netlist, library, LeakageLookup::LaneParallel)
    }

    /// Builds the estimator with an explicit packed-path lookup mode
    /// ([`LeakageLookup::Scalar`] skips the ternary precompute entirely —
    /// the cross-check configuration).
    #[must_use]
    pub fn with_lookup(
        netlist: &Netlist,
        library: &LeakageLibrary,
        lookup: LeakageLookup,
    ) -> LeakageEstimator {
        let tables: Vec<Vec<f64>> = netlist
            .gates()
            .iter()
            .map(|gate| library.gate_table(gate.kind, gate.fanin()))
            .collect();
        let mut ternary = vec![None; tables.len()];
        let mut ternary_tables = Vec::new();
        if lookup == LeakageLookup::LaneParallel {
            let mut shared: std::collections::HashMap<(GateKind, usize), usize> =
                std::collections::HashMap::new();
            for (index, gate) in netlist.gates().iter().enumerate() {
                let fanin = gate.fanin();
                if fanin > LeakageEstimator::TERNARY_FANIN_LIMIT {
                    continue;
                }
                let slot = *shared.entry((gate.kind, fanin)).or_insert_with(|| {
                    ternary_tables.push(build_ternary_table(&tables[index], fanin));
                    ternary_tables.len() - 1
                });
                ternary[index] = Some(slot);
            }
        }
        LeakageEstimator {
            tables,
            ternary,
            ternary_tables,
            lookup,
            library: library.clone(),
        }
    }

    /// The packed-path lookup mode the estimator was built with.
    #[must_use]
    pub fn lookup(&self) -> LeakageLookup {
        self.lookup
    }

    /// The library the estimator was built from.
    #[must_use]
    pub fn library(&self) -> &LeakageLibrary {
        &self.library
    }

    /// Leakage current (nA) of a single gate given the current per-net
    /// values. Unknown inputs are averaged over both values.
    #[must_use]
    pub fn gate_leakage(&self, netlist: &Netlist, gate: GateId, values: &[Logic]) -> f64 {
        let table = &self.tables[gate.index()];
        let g = netlist.gate(gate);
        averaged_table_lookup(table, g.inputs.iter().map(|&input| values[input.index()]))
    }

    /// Total leakage current (nA) of the combinational part for each of the
    /// first `lanes` circuit states of a packed simulation result (one
    /// packed word per net, as produced by
    /// [`SimKernel`](scanpower_sim::SimKernel)`::<PackedWord>::evaluate`).
    ///
    /// One topological simulation pass feeds up to 64 leakage
    /// evaluations — this is the lane-parallel path behind the Monte-Carlo
    /// minimum-leakage vector search and the packed scan-shift static-power
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    #[must_use]
    pub fn circuit_leakage_lanes(
        &self,
        netlist: &Netlist,
        values: &[PackedWord],
        lanes: usize,
    ) -> Vec<f64> {
        let mut totals = Vec::with_capacity(lanes);
        self.circuit_leakage_lanes_into(netlist, values, lanes, &mut totals);
        totals
    }

    /// Allocation-free variant of
    /// [`circuit_leakage_lanes`](LeakageEstimator::circuit_leakage_lanes):
    /// `totals` is cleared and resized to `lanes` (reusing its capacity),
    /// then filled with the per-lane leakage.
    ///
    /// For every gate with a precomputed ternary table the per-lane state
    /// indices are assembled by one bit-plane gather
    /// ([`lane_state_indices`](scanpower_sim::kernel::lane_state_indices))
    /// and the averaged leakage is read with one table load per lane —
    /// no per-lane pin decoding, no X-completion enumeration. Gates without
    /// a table (fanin above [`LeakageEstimator::TERNARY_FANIN_LIMIT`], or a
    /// [`LeakageLookup::Scalar`] estimator) run the scalar subset
    /// enumeration per lane; both produce bit-identical sums because the
    /// tables were filled by that very enumeration and the per-lane
    /// accumulation order (gate by gate, in netlist order) is the same.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    pub fn circuit_leakage_lanes_into(
        &self,
        netlist: &Netlist,
        values: &[PackedWord],
        lanes: usize,
        totals: &mut Vec<f64>,
    ) {
        assert!(lanes <= 64, "more lanes than the word carries");
        totals.clear();
        totals.resize(lanes, 0.0);
        let mut contributions = vec![0.0f64; lanes];
        for gate_id in netlist.gate_ids() {
            self.gate_leakage_lanes_into(netlist, gate_id, values, lanes, &mut contributions);
            for (total, &contribution) in totals.iter_mut().zip(&contributions) {
                *total += contribution;
            }
        }
    }

    /// Per-lane leakage current (nA) of **one** gate over the first `lanes`
    /// circuit states of a packed simulation result, written into
    /// `out[..lanes]` (entries beyond `lanes` are left untouched) — the
    /// per-gate building block of
    /// [`circuit_leakage_lanes_into`](LeakageEstimator::circuit_leakage_lanes_into),
    /// exposed so incremental observers
    /// ([`PackedShiftLeakage::observe_cycle`]) can re-gather only the gates
    /// whose input state changed. Each written value is exactly the float
    /// the scalar [`LeakageEstimator::gate_leakage`] would produce for that
    /// lane's decoded state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64` or `out` is shorter than `lanes`.
    pub fn gate_leakage_lanes_into(
        &self,
        netlist: &Netlist,
        gate_id: GateId,
        values: &[PackedWord],
        lanes: usize,
        out: &mut [f64],
    ) {
        assert!(lanes <= 64, "more lanes than the word carries");
        // The gate, its table and its input words are loop-invariant over
        // the lanes: resolve them once per gate, not once per lane. 31 pins
        // is the workspace-wide table cap, so the gather buffer lives on
        // the stack.
        let mut pin_words = [PackedWord::splat(Logic::X); 31];
        let gate = netlist.gate(gate_id);
        let fanin = gate.inputs.len();
        for (word, &input) in pin_words.iter_mut().zip(&gate.inputs) {
            *word = values[input.index()];
        }
        let pins = &pin_words[..fanin];
        if let Some(slot) = self.ternary[gate_id.index()] {
            // One bit-plane transpose; the index scratch stays on the stack.
            let table = &self.ternary_tables[slot];
            let mut indices = [0u32; 64];
            kernel::lane_state_indices(pins, lanes, &mut indices[..lanes]);
            for (slot, &index) in out[..lanes].iter_mut().zip(&indices[..lanes]) {
                *slot = table[index as usize];
            }
        } else {
            let table = &self.tables[gate_id.index()];
            for (lane, slot) in out[..lanes].iter_mut().enumerate() {
                *slot = averaged_table_lookup(table, pins.iter().map(|word| word.lane(lane)));
            }
        }
    }

    /// Total leakage current (nA) of the combinational part of the circuit
    /// in the state described by `values` (one [`Logic`] per net, indexed by
    /// net id, as produced by the simulators).
    #[must_use]
    pub fn circuit_leakage(&self, netlist: &Netlist, values: &[Logic]) -> f64 {
        netlist
            .gate_ids()
            .map(|gate| self.gate_leakage(netlist, gate, values))
            .sum()
    }

    /// Total static power (µW) of the circuit in the given state
    /// (Equation (5): `P_sub = Σ I_sub,i · V_DD`).
    #[must_use]
    pub fn circuit_power_uw(&self, netlist: &Netlist, values: &[Logic]) -> f64 {
        self.library
            .current_to_power_uw(self.circuit_leakage(netlist, values))
    }
}

/// Expands a binary per-state table (`2^fanin` entries) into the ternary
/// table the lane-parallel lookup gathers from: `4^fanin` entries, indexed
/// by the 2-bit-per-pin state codes of
/// [`lane_state_indices`](scanpower_sim::kernel::lane_state_indices)
/// (`00` = 0, `01` = 1, high bit set = X — both `10` and `11` decode as X,
/// matching the `1x` convention). Every canonical entry is computed by
/// [`averaged_table_lookup`] over the decoded pins (redundant `10` codes
/// bit-copy their all-`11` sibling), which is what makes the gather path
/// bit-identical to the scalar path: the float the fast path loads *is*
/// the float the slow path would have produced.
fn build_ternary_table(table: &[f64], fanin: usize) -> Vec<f64> {
    debug_assert_eq!(table.len(), 1usize << fanin);
    let size = 1usize << (2 * fanin);
    // Mask of every pin's low code bit (bit 2p).
    let mut low_bits = 0usize;
    for pin in 0..fanin {
        low_bits |= 1 << (2 * pin);
    }
    let mut ternary = vec![0.0f64; size];
    // Descending, so that a code with `10` pins can bit-copy its canonical
    // all-`11` sibling (a strictly larger code, already filled) instead of
    // re-enumerating the same X completions.
    for code in (0..size).rev() {
        let ten_pins = (code >> 1) & !code & low_bits;
        if ten_pins != 0 {
            ternary[code] = ternary[code | ten_pins];
            continue;
        }
        ternary[code] = averaged_table_lookup(
            table,
            (0..fanin).map(|pin| match (code >> (2 * pin)) & 0b11 {
                0b00 => Logic::Zero,
                0b01 => Logic::One,
                _ => Logic::X,
            }),
        );
    }
    ternary
}

/// Looks up `table` at the state formed by the pin values, averaging over
/// every completion of the unknown pins.
///
/// Both the known-1 pins and the unknown pins are tracked in stack
/// bitmasks (no allocation on this per-gate-per-lane hot path), and the
/// completions are enumerated with the subset-increment trick
/// `s = (s - mask) & mask`, which walks the subsets of `mask` in the same
/// ascending order the old per-pin spread produced.
///
/// # Panics
///
/// Panics if more than 31 pins are passed — the same cap
/// [`LeakageLibrary::gate_table`] and [`LeakageLibrary::best_state`]
/// enforce (`fanin < 32`), because a 32nd pin's `1 << pin` state mask (and
/// the `2^unknowns` completion count) would silently wrap in release
/// builds, and no 32-pin table can be built to index anyway. Real tables
/// stop far earlier: a 31-pin gate would need a 2-billion-entry table.
fn averaged_table_lookup(table: &[f64], pins: impl Iterator<Item = Logic>) -> f64 {
    let mut base_state = 0u32;
    let mut unknown_mask = 0u32;
    for (pin, value) in pins.enumerate() {
        assert!(pin < 31, "leakage tables support at most 31 input pins");
        match value {
            Logic::One => base_state |= 1 << pin,
            Logic::Zero => {}
            Logic::X => unknown_mask |= 1 << pin,
        }
    }
    if unknown_mask == 0 {
        return table[base_state as usize];
    }
    let mut total = 0.0;
    let mut completion = 0u32;
    loop {
        total += table[(base_state | completion) as usize];
        completion = completion.wrapping_sub(unknown_mask) & unknown_mask;
        if completion == 0 {
            break;
        }
    }
    total / (1u64 << unknown_mask.count_ones()) as f64
}

/// Running average of leakage over a sequence of observed circuit states
/// (used while replaying scan-shift cycles).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeakageAverage {
    total_na: f64,
    samples: usize,
}

impl LeakageAverage {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> LeakageAverage {
        LeakageAverage::default()
    }

    /// Adds one observed state's leakage (nA).
    pub fn add(&mut self, leakage_na: f64) {
        self.total_na += leakage_na;
        self.samples += 1;
    }

    /// Number of accumulated samples.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Average leakage current (nA); 0 when no samples were added.
    #[must_use]
    pub fn average_na(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_na / self.samples as f64
        }
    }

    /// Average static power (µW) using the supply of `library`.
    #[must_use]
    pub fn average_uw(&self, library: &LeakageLibrary) -> f64 {
        library.current_to_power_uw(self.average_na())
    }
}

/// Lane-aware static-power observer for the packed scan-shift replay.
///
/// Plugs into the packed replay
/// ([`PackedScanShiftSim::run_cycles`](scanpower_sim::PackedScanShiftSim::run_cycles)
/// via [`PackedShiftLeakage::observe_cycle`], or the plain observer hook via
/// [`PackedShiftLeakage::observe`]): every [`ShiftPhase::Shift`] event is
/// evaluated once over all active lanes with the lane-parallel
/// ternary-table gather (writing into a recycled row buffer — no unpacking
/// to scalar [`Logic`] and no allocation per cycle in the steady state) and
/// the per-cycle lane rows are buffered until the block's
/// [`ShiftPhase::Capture`] event, where they are flushed into the running
/// [`LeakageAverage`] **lane-first** (pattern 0's cycles, then pattern 1's,
/// …). That is exactly the order the scalar replay visits its states in, so
/// the floating-point accumulation — and therefore the reported average
/// static power — is bit-identical to the scalar path.
///
/// # The event-driven delta gather
///
/// When the replay supplies a changed-net delta
/// ([`ShiftCycle::changed`]), the observer keeps a per-gate **contribution
/// cache** (each gate's 64 per-lane leakage values from the
/// previous cycle) and re-gathers only the gates that read a changed net;
/// every other gate's contribution is reused from the cache. Naïve floating-point
/// *delta accumulation* (`row − old + new`) would change the summation
/// order and break bit-identity, so the per-lane row is instead always
/// re-summed over the cached contributions **gate by gate, in netlist
/// order** — the identical floats added in the identical order the full
/// gather uses, which keeps the average bit-identical while skipping the
/// expensive bit-plane transposes and table loads for settled gates. A
/// cycle with an empty delta reuses the previous row outright.
///
/// # Skipping provably-static gates
///
/// [`PackedShiftLeakage::with_facts`] accepts the
/// [`LintFacts`] of the replay's shift configuration and
/// skips every gate whose inputs the ternary analysis settled to constants:
/// the gate's single lane-independent contribution is gathered once at
/// construction and fed into the row re-sum at the gate's usual netlist
/// position, so the average stays bit-identical while the per-cycle gather
/// shrinks to the genuinely toggling part of the circuit.
///
/// # Examples
///
/// Averaging static power over a packed event-driven scan replay:
///
/// ```
/// use scanpower_netlist::bench;
/// use scanpower_power::{LeakageEstimator, LeakageLibrary, PackedShiftLeakage};
/// use scanpower_sim::scan::{ScanPattern, ShiftConfig};
/// use scanpower_sim::{PackedScanShiftSim, Propagation};
///
/// let circuit = bench::parse(bench::S27_BENCH, "s27")?;
/// let library = LeakageLibrary::cmos45();
/// let estimator = LeakageEstimator::new(&circuit, &library);
/// let patterns = vec![
///     ScanPattern::from_bools(&[true, false, true, false], &[true, false, true]),
///     ScanPattern::from_bools(&[false, true, false, true], &[false, true, true]),
/// ];
/// let config = ShiftConfig::traditional(circuit.dff_count());
///
/// let mut observer = PackedShiftLeakage::new(&circuit, &estimator);
/// let stats = PackedScanShiftSim::new(&circuit).run_cycles(
///     &circuit,
///     &patterns,
///     &config,
///     Propagation::EventDriven,
///     |cycle| observer.observe_cycle(cycle),
/// );
/// let average = observer.into_average();
/// // One leakage sample per pattern per shift cycle, shift states only.
/// assert_eq!(average.samples(), stats.shift_cycles);
/// assert!(average.average_uw(&library) > 0.0);
/// # Ok::<(), scanpower_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedShiftLeakage<'a> {
    netlist: &'a Netlist,
    estimator: &'a LeakageEstimator,
    rows: Vec<Vec<f64>>,
    /// Flushed rows, recycled so the steady state allocates nothing: after
    /// the first block every shift cycle pops a spent row, refills it in
    /// place and pushes it back at the capture flush.
    pool: Vec<Vec<f64>>,
    average: LeakageAverage,
    /// Per-gate per-lane contributions of the previously observed shift
    /// state, `LANES` slots per gate (lane-major); only meaningful when
    /// `cache_lanes` is `Some`.
    contributions: Vec<f64>,
    /// `Some(lanes)` when `contributions` matches the previous shift event
    /// (and that event had `lanes` active lanes); `None` before the first
    /// gather and whenever a delta-less event forces a full re-gather.
    cache_lanes: Option<usize>,
    /// Per-gate epoch stamps deduplicating the dirty marks of one cycle.
    stamp: Vec<u64>,
    epoch: u64,
    /// Scratch: the gates to re-gather this cycle.
    dirty: Vec<u32>,
    /// `true` once any event carried a changed-net delta. Until then the
    /// observer is being fed without deltas (the plain
    /// [`PackedShiftLeakage::observe`] hook, or full-sweep propagation) and
    /// full gathers skip populating the contribution cache — the cheapest
    /// path when no delta will ever consult it.
    delta_seen: bool,
    /// Per-gate flag from [`LintFacts`]: `true` for gates whose every input
    /// is provably constant under the replay's shift configuration. Empty
    /// when the observer was built without facts.
    static_gate: Vec<bool>,
    /// Precomputed per-lane contribution of each static gate (the same
    /// float in every lane, gathered once at construction).
    static_value: Vec<f64>,
    /// Number of `true` entries in `static_gate`.
    static_count: usize,
    /// `true` once the static gates' contribution-cache slots were filled;
    /// after that every gather skips them entirely.
    static_primed: bool,
    /// Shift events seen so far — the `power::observer::cycle` failpoint
    /// key.
    observed: u64,
    /// Capture flushes seen so far — the `power::observer::flush` failpoint
    /// key.
    flushes: u64,
}

/// Lanes per packed word: the contribution-cache stride of
/// [`PackedShiftLeakage`].
const LANES: usize = PackedWord::LANES;

impl<'a> PackedShiftLeakage<'a> {
    /// Creates an empty accumulator over `estimator`'s tables.
    #[must_use]
    pub fn new(netlist: &'a Netlist, estimator: &'a LeakageEstimator) -> PackedShiftLeakage<'a> {
        PackedShiftLeakage {
            netlist,
            estimator,
            rows: Vec::new(),
            pool: Vec::new(),
            average: LeakageAverage::new(),
            contributions: Vec::new(),
            cache_lanes: None,
            stamp: vec![0; netlist.gate_count()],
            epoch: 0,
            dirty: Vec::new(),
            delta_seen: false,
            static_gate: Vec::new(),
            static_value: Vec::new(),
            static_count: 0,
            static_primed: false,
            observed: 0,
            flushes: 0,
        }
    }

    /// Creates an accumulator that skips provably-static gates.
    ///
    /// `facts` must come from [`LintFacts::analyze_shift`] over this
    /// `netlist` with the same [`ShiftConfig`](scanpower_sim::scan::ShiftConfig)
    /// the replay will run — then every input of a static gate holds its
    /// analysis constant in **every lane of every shift cycle** (ternary
    /// monotonicity: the replay's concrete lane values only refine the
    /// analysis' `X` assumptions). Each static gate's per-lane contribution
    /// is therefore one lane-independent float, gathered once here; the
    /// per-cycle gathers skip those gates and the row re-sum feeds the
    /// cached constant at the gate's usual position in netlist order, so the
    /// accumulated average stays bit-identical to the unskipped observer.
    ///
    /// # Panics
    ///
    /// Panics if `facts` was computed for a different netlist (mismatched
    /// net or gate counts).
    #[must_use]
    pub fn with_facts(
        netlist: &'a Netlist,
        estimator: &'a LeakageEstimator,
        facts: &LintFacts,
    ) -> PackedShiftLeakage<'a> {
        assert_eq!(
            facts.net_count(),
            netlist.net_count(),
            "facts were computed for a different netlist (net count mismatch)"
        );
        assert_eq!(
            facts.gate_count(),
            netlist.gate_count(),
            "facts were computed for a different netlist (gate count mismatch)"
        );
        let mut observer = PackedShiftLeakage::new(netlist, estimator);
        let splat: Vec<PackedWord> = facts
            .values()
            .iter()
            .map(|&value| PackedWord::splat(value))
            .collect();
        observer.static_gate = vec![false; netlist.gate_count()];
        observer.static_value = vec![0.0; netlist.gate_count()];
        let mut out = [0.0f64];
        for gate_id in netlist.gate_ids() {
            if facts.is_static_gate(gate_id) {
                // One lane with every net splatted to its analysis value
                // reproduces the exact float any lane of any gather would
                // compute for this gate (same pin codes, same table load).
                estimator.gate_leakage_lanes_into(netlist, gate_id, &splat, 1, &mut out);
                observer.static_gate[gate_id.index()] = true;
                observer.static_value[gate_id.index()] = out[0];
                observer.static_count += 1;
            }
        }
        observer
    }

    /// How many gates this observer skips per gather (0 when built without
    /// [`LintFacts`]).
    #[must_use]
    pub fn static_gates_skipped(&self) -> usize {
        self.static_count
    }

    /// Feeds one packed replay event (shift states accumulate, the capture
    /// event flushes the block; capture states themselves are not counted,
    /// matching the paper's shift-only static power). Without change
    /// information every shift state is fully re-gathered; observers fed by
    /// [`PackedScanShiftSim::run_cycles`](scanpower_sim::PackedScanShiftSim::run_cycles)
    /// should use [`PackedShiftLeakage::observe_cycle`], which exploits the
    /// per-cycle delta.
    pub fn observe(&mut self, phase: ShiftPhase, values: &[PackedWord], lanes: usize) {
        self.observe_cycle(&ShiftCycle {
            phase,
            values,
            lanes,
            changed: None,
        });
    }

    /// Feeds one packed replay event with its changed-net delta (see
    /// [`ShiftCycle`]): shift states accumulate — through the incremental
    /// contribution cache when [`ShiftCycle::changed`] is present, through
    /// a full lane-parallel gather otherwise — and the capture event
    /// flushes the block in the scalar pattern-major order. The resulting
    /// average is bit-identical either way.
    pub fn observe_cycle(&mut self, cycle: &ShiftCycle<'_>) {
        match cycle.phase {
            ShiftPhase::Shift => {
                failpoint::strike("power::observer::cycle", self.observed);
                self.observed += 1;
                self.delta_seen |= cycle.changed.is_some();
                let mut row = self.pool.pop().unwrap_or_default();
                match (cycle.changed, self.cache_lanes) {
                    (Some(changed), Some(lanes)) if lanes == cycle.lanes => {
                        self.regather_dirty(changed, cycle, &mut row);
                    }
                    // Static gates are skipped through the contribution
                    // cache, so facts-carrying observers always gather via
                    // the cache even when no delta will ever arrive.
                    _ if self.delta_seen || self.static_count > 0 => {
                        self.full_gather(cycle, &mut row);
                    }
                    _ => {
                        // No delta has ever been offered: gather straight
                        // into the row without maintaining the cache.
                        self.estimator.circuit_leakage_lanes_into(
                            self.netlist,
                            cycle.values,
                            cycle.lanes,
                            &mut row,
                        );
                    }
                }
                self.rows.push(row);
            }
            ShiftPhase::Capture => {
                failpoint::strike("power::observer::flush", self.flushes);
                self.flushes += 1;
                for lane in 0..cycle.lanes {
                    for row in &self.rows {
                        self.average.add(row[lane]);
                    }
                }
                self.pool.append(&mut self.rows);
            }
        }
    }

    /// Gathers every gate's per-lane contributions into the cache and sums
    /// the row gate by gate in netlist order — the exact accumulation of
    /// [`LeakageEstimator::circuit_leakage_lanes_into`].
    fn full_gather(&mut self, cycle: &ShiftCycle<'_>, row: &mut Vec<f64>) {
        let gate_count = self.netlist.gate_count();
        self.contributions.resize(gate_count * LANES, 0.0);
        for gate_id in self.netlist.gate_ids() {
            let slot = gate_id.index() * LANES;
            if self.static_count > 0 && self.static_gate[gate_id.index()] {
                // A static gate's contribution never moves: fill its cache
                // slots once, then skip its table gather forever.
                if !self.static_primed {
                    self.contributions[slot..slot + LANES].fill(self.static_value[gate_id.index()]);
                }
                continue;
            }
            self.estimator.gate_leakage_lanes_into(
                self.netlist,
                gate_id,
                cycle.values,
                cycle.lanes,
                &mut self.contributions[slot..slot + LANES],
            );
        }
        self.static_primed = true;
        self.cache_lanes = Some(cycle.lanes);
        self.sum_contributions(cycle.lanes, row);
    }

    /// Re-gathers only the gates reading a changed net, then re-sums the
    /// row in the same gate order as a full gather — identical floats,
    /// identical order, bit-identical sum.
    fn regather_dirty(&mut self, changed: &[NetId], cycle: &ShiftCycle<'_>, row: &mut Vec<f64>) {
        self.epoch += 1;
        self.dirty.clear();
        for &net in changed {
            for &(gate, _) in self.netlist.loads(net) {
                // Static gates only read constant nets, so they can never be
                // marked dirty by a real shift delta; the guard is belt and
                // braces against a caller feeding foreign change lists.
                if self.static_count > 0 && self.static_gate[gate.index()] {
                    continue;
                }
                let stamp = &mut self.stamp[gate.index()];
                if *stamp != self.epoch {
                    *stamp = self.epoch;
                    self.dirty.push(gate.index() as u32);
                }
            }
        }
        if self.dirty.is_empty() {
            // Nothing a gate reads moved: the previous row's floats are the
            // sum this cycle would recompute — reuse them outright.
            if let Some(previous) = self.rows.last() {
                row.clear();
                row.extend_from_slice(previous);
                return;
            }
        }
        for &gate_index in &self.dirty {
            let slot = gate_index as usize * LANES;
            self.estimator.gate_leakage_lanes_into(
                self.netlist,
                GateId::from_index(gate_index as usize),
                cycle.values,
                cycle.lanes,
                &mut self.contributions[slot..slot + LANES],
            );
        }
        self.sum_contributions(cycle.lanes, row);
    }

    /// `row[lane] = Σ_gates contributions[gate][lane]`, gate by gate in
    /// netlist order — the one accumulation order every leakage path in the
    /// workspace shares.
    fn sum_contributions(&self, lanes: usize, row: &mut Vec<f64>) {
        row.clear();
        row.resize(lanes, 0.0);
        for gate_index in 0..self.netlist.gate_count() {
            let slot = gate_index * LANES;
            for (total, &contribution) in
                row.iter_mut().zip(&self.contributions[slot..slot + lanes])
            {
                *total += contribution;
            }
        }
    }

    /// The accumulated average (call after the replay finished; any
    /// unflushed partial block is impossible because every block ends with
    /// a capture event).
    #[must_use]
    pub fn into_average(self) -> LeakageAverage {
        self.average
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, GateKind, Netlist};
    use scanpower_sim::Evaluator;

    #[test]
    fn library_reproduces_figure_2() {
        let library = LeakageLibrary::cmos45();
        let table = library.gate_table(GateKind::Nand, 2);
        let expected = [78.0, 264.0, 73.0, 408.0];
        for (got, want) in table.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "{got} != {want}");
        }
    }

    #[test]
    fn best_state_of_nand2_is_a0_b1() {
        let library = LeakageLibrary::cmos45();
        assert_eq!(library.best_state(GateKind::Nand, 2), 0b10);
    }

    #[test]
    fn current_to_power_uses_supply() {
        let library = LeakageLibrary::cmos45();
        // 1000 nA at 0.9 V = 0.9 µW.
        assert!((library.current_to_power_uw(1000.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn circuit_leakage_is_sum_of_gate_leakages() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let ev = Evaluator::new(&n);
        let values = ev.evaluate(&n, &vec![Logic::Zero; ev.inputs().len()]);
        let total = estimator.circuit_leakage(&n, &values);
        let manual: f64 = n
            .gate_ids()
            .map(|g| estimator.gate_leakage(&n, g, &values))
            .sum();
        assert!((total - manual).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn unknown_inputs_average_over_both_values() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let mut values = vec![Logic::X; n.net_count()];
        values[a.index()] = Logic::Zero;
        // b unknown: average of states 00 and 01(b=1 -> pin1 set) = (78 + 73)/2.
        let leak = estimator.gate_leakage(&n, g.gate, &values);
        assert!((leak - (78.0 + 73.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn leakage_state_dependence_is_visible_at_circuit_level() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let ev = Evaluator::new(&n);
        let zeros =
            estimator.circuit_leakage(&n, &ev.evaluate(&n, &vec![Logic::Zero; ev.inputs().len()]));
        let ones =
            estimator.circuit_leakage(&n, &ev.evaluate(&n, &vec![Logic::One; ev.inputs().len()]));
        assert_ne!(zeros, ones);
    }

    /// With several unknown pins the bitmask enumeration must equal the
    /// brute-force mean over every completion.
    #[test]
    fn multiple_unknown_pins_average_over_all_completions() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g = n.add_gate(GateKind::Nand, &[a, b, c, d], "g");
        n.mark_output(g.output);
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let table = library.gate_table(GateKind::Nand, 4);

        // b and d unknown, a = 1, c = 0: average over states with pin 0
        // set and pins 1/3 free.
        let mut values = vec![Logic::X; n.net_count()];
        values[a.index()] = Logic::One;
        values[c.index()] = Logic::Zero;
        let expected: f64 = [0b0001, 0b0011, 0b1001, 0b1011]
            .iter()
            .map(|&state: &usize| table[state])
            .sum::<f64>()
            / 4.0;
        let got = estimator.gate_leakage(&n, g.gate, &values);
        assert!((got - expected).abs() < 1e-9, "{got} != {expected}");

        // All four unknown: the plain table mean.
        let all_x = vec![Logic::X; n.net_count()];
        let mean = table.iter().sum::<f64>() / table.len() as f64;
        let got = estimator.gate_leakage(&n, g.gate, &all_x);
        assert!((got - mean).abs() < 1e-9, "{got} != {mean}");
    }

    #[test]
    fn packed_lane_leakage_matches_scalar() {
        use scanpower_sim::kernel::pack_logic_patterns;
        use scanpower_sim::{PackedWord, SimKernel};

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let ev = Evaluator::new(&n);
        let width = ev.inputs().len();

        // 16 patterns mixing known and unknown inputs.
        let patterns: Vec<Vec<Logic>> = (0..16u32)
            .map(|index| {
                (0..width)
                    .map(|bit| match (index >> (bit % 16)) & 3 {
                        0 => Logic::Zero,
                        1 => Logic::One,
                        _ => Logic::X,
                    })
                    .collect()
            })
            .collect();
        let mut kernel = SimKernel::<PackedWord>::new(&n);
        let packed = kernel
            .evaluate(&n, &pack_logic_patterns(&patterns))
            .to_vec();
        let lanes = estimator.circuit_leakage_lanes(&n, &packed, patterns.len());
        for (lane, pattern) in patterns.iter().enumerate() {
            let scalar = estimator.circuit_leakage(&n, &ev.evaluate(&n, pattern));
            assert!(
                (lanes[lane] - scalar).abs() < 1e-9,
                "lane {lane}: {} != {scalar}",
                lanes[lane]
            );
        }
    }

    /// The packed lane-aware observer must reproduce the scalar replay's
    /// static-power average **bit for bit**: identical lane leakages added
    /// in the identical (pattern-major) order.
    #[test]
    fn packed_shift_leakage_matches_scalar_observer_bitwise() {
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};
        use scanpower_sim::PackedScanShiftSim;

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        // 70 patterns: one full 64-lane block plus a 6-lane tail.
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 13)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let config = ShiftConfig::traditional(ff);

        let mut scalar_average = LeakageAverage::new();
        let scalar_stats =
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });

        let mut packed_average = PackedShiftLeakage::new(&n, &estimator);
        let packed_stats = PackedScanShiftSim::new(&n).run_with_observer(
            &n,
            &patterns,
            &config,
            |phase, values, lanes| packed_average.observe(phase, values, lanes),
        );
        let packed_average = packed_average.into_average();

        assert_eq!(packed_stats, scalar_stats);
        assert_eq!(packed_average.samples(), scalar_average.samples());
        assert_eq!(
            packed_average.average_na().to_bits(),
            scalar_average.average_na().to_bits(),
            "packed static average must be bit-identical to the scalar path"
        );
    }

    /// The event-driven delta observer (`observe_cycle` fed by the
    /// event-driven replay's changed-net lists) must reproduce the scalar
    /// observer's static-power average **bit for bit** — across full and
    /// partial blocks, X-carrying patterns, low-activity (forced/held)
    /// configurations, and both lookup modes — and so must the full-sweep
    /// cross-check.
    #[test]
    fn event_driven_delta_observer_matches_scalar_observer_bitwise() {
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};
        use scanpower_sim::{PackedScanShiftSim, Propagation};

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 17)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();

        // Traditional (high-activity) and a held-PI, partially forced
        // (low-activity) configuration: the delta path must agree on both.
        let mut low_activity = ShiftConfig::with_pi_control(ff, vec![Logic::Zero; pi]);
        low_activity.forced_pseudo[0] = Some(Logic::One);
        for config in [ShiftConfig::traditional(ff), low_activity] {
            for lookup in [LeakageLookup::LaneParallel, LeakageLookup::Scalar] {
                let estimator = LeakageEstimator::with_lookup(&n, &library, lookup);

                let mut scalar_average = LeakageAverage::new();
                ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                    if phase == ShiftPhase::Shift {
                        scalar_average.add(estimator.circuit_leakage(&n, values));
                    }
                });

                let sim = PackedScanShiftSim::new(&n);
                for propagation in [Propagation::EventDriven, Propagation::FullSweep] {
                    let mut observer = PackedShiftLeakage::new(&n, &estimator);
                    let _ = sim.run_cycles(&n, &patterns, &config, propagation, |cycle| {
                        observer.observe_cycle(cycle);
                    });
                    let average = observer.into_average();
                    assert_eq!(average.samples(), scalar_average.samples());
                    assert_eq!(
                        average.average_na().to_bits(),
                        scalar_average.average_na().to_bits(),
                        "{propagation:?} / {lookup:?} average must be bit-identical"
                    );
                }
            }
        }
    }

    /// The lint-facts pin limit must match the leakage model's actual pin
    /// cap (the 31-slot pin buffer of `gate_leakage_lanes_into` and the
    /// `gate_table` fanin assert); the constant is mirrored, not imported,
    /// because the dependency runs lint -> power.
    #[test]
    fn lint_pin_limit_matches_the_leakage_model() {
        assert_eq!(scanpower_lint::LEAKAGE_PIN_LIMIT, 31);
    }

    /// A facts-carrying observer must reproduce the plain observer (and the
    /// scalar replay) **bit for bit** while actually skipping gates — on a
    /// low-activity configuration, across both propagation modes and both
    /// lookup modes.
    #[test]
    fn facts_skipping_observer_matches_scalar_observer_bitwise() {
        use scanpower_lint::LintFacts;
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};
        use scanpower_sim::{PackedScanShiftSim, Propagation};

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        // 300 patterns: four full 64-lane blocks and a partial one.
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 300, 41)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();

        // Held PIs plus two forced scan cells: a realistic low-activity
        // shift where the analysis settles part of the circuit.
        let mut config = ShiftConfig::with_pi_control(ff, vec![Logic::Zero; pi]);
        config.forced_pseudo[0] = Some(Logic::One);
        config.forced_pseudo[1] = Some(Logic::Zero);
        let facts = LintFacts::analyze_shift(&n, &config);
        assert!(
            facts.static_gate_count() > 0,
            "the low-activity config must settle at least one gate"
        );

        for lookup in [LeakageLookup::LaneParallel, LeakageLookup::Scalar] {
            let estimator = LeakageEstimator::with_lookup(&n, &library, lookup);
            let mut scalar_average = LeakageAverage::new();
            ScanShiftSim::new(&n).run_with_observer(&n, &patterns, &config, |phase, values| {
                if phase == ShiftPhase::Shift {
                    scalar_average.add(estimator.circuit_leakage(&n, values));
                }
            });

            let sim = PackedScanShiftSim::new(&n);
            for propagation in [Propagation::EventDriven, Propagation::FullSweep] {
                let mut packed = PackedShiftLeakage::with_facts(&n, &estimator, &facts);
                assert_eq!(packed.static_gates_skipped(), facts.static_gate_count());
                let _ = sim.run_cycles(&n, &patterns, &config, propagation, |cycle| {
                    packed.observe_cycle(cycle);
                });
                let packed = packed.into_average();
                assert_eq!(packed.samples(), scalar_average.samples());
                assert_eq!(
                    packed.average_na().to_bits(),
                    scalar_average.average_na().to_bits(),
                    "{propagation:?} / {lookup:?}: facts-skipping 64-lane average"
                );
            }
        }
    }

    /// Skipping with an *unconstrained* analysis (no held PIs, nothing
    /// forced) must be a clean no-op: zero static gates, plain-observer
    /// behaviour, bit-identical average.
    #[test]
    fn facts_without_static_gates_are_a_noop() {
        use scanpower_lint::LintFacts;
        use scanpower_sim::patterns::random_bool_patterns;
        use scanpower_sim::scan::{ScanPattern, ShiftConfig};
        use scanpower_sim::{PackedScanShiftSim, Propagation};

        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let library = LeakageLibrary::cmos45();
        let estimator = LeakageEstimator::new(&n, &library);
        let pi = n.primary_inputs().len();
        let ff = n.dff_count();
        let patterns: Vec<ScanPattern> = random_bool_patterns(pi + ff, 70, 43)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let config = ShiftConfig::traditional(ff);
        let facts = LintFacts::analyze_shift(&n, &config);
        assert_eq!(facts.static_gate_count(), 0);

        let sim = PackedScanShiftSim::new(&n);
        let mut plain = PackedShiftLeakage::new(&n, &estimator);
        let _ = sim.run_cycles(&n, &patterns, &config, Propagation::EventDriven, |cycle| {
            plain.observe_cycle(cycle);
        });
        let mut with_facts = PackedShiftLeakage::with_facts(&n, &estimator, &facts);
        assert_eq!(with_facts.static_gates_skipped(), 0);
        let _ = sim.run_cycles(&n, &patterns, &config, Propagation::EventDriven, |cycle| {
            with_facts.observe_cycle(cycle);
        });
        assert_eq!(
            plain.into_average().average_na().to_bits(),
            with_facts.into_average().average_na().to_bits()
        );
    }

    /// Randomized agreement sweep for the lane-parallel lookup: every
    /// gate fanin from 0-input constants up past the ternary precompute
    /// threshold, X densities from none to all-X, and partial final blocks
    /// — the gather path must equal the scalar `averaged_table_lookup`
    /// **to the bit**, lane by lane.
    #[test]
    fn lane_parallel_lookup_matches_scalar_lookup_bitwise() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use scanpower_sim::kernel::pack_logic_patterns;
        use scanpower_sim::{PackedWord, SimKernel};

        let library = LeakageLibrary::cmos45();
        let mut rng = ChaCha8Rng::seed_from_u64(0x7e57_1ea4);
        // Fanins straddling the precompute threshold: 11 and 12 exercise
        // the subset-enumeration fallback inside a lane-parallel estimator.
        for fanin in [
            0usize,
            1,
            2,
            3,
            4,
            7,
            LeakageEstimator::TERNARY_FANIN_LIMIT,
            11,
            12,
        ] {
            let mut n = Netlist::new("sweep");
            let inputs: Vec<_> = (0..fanin.max(1))
                .map(|i| n.add_input(&format!("i{i}")))
                .collect();
            let mut gates = Vec::new();
            if fanin == 0 {
                gates.push(n.add_gate(GateKind::Const0, &[], "c0").gate);
                gates.push(n.add_gate(GateKind::Const1, &[], "c1").gate);
                // Keep the lone input driven into the netlist.
                n.add_gate(GateKind::Not, &[inputs[0]], "sink");
            } else if fanin == 1 {
                gates.push(n.add_gate(GateKind::Buf, &inputs, "buf").gate);
                gates.push(n.add_gate(GateKind::Not, &inputs, "not").gate);
            } else {
                for kind in [GateKind::And, GateKind::Nand, GateKind::Nor, GateKind::Xor] {
                    gates.push(n.add_gate(kind, &inputs, &format!("{kind:?}_{fanin}")).gate);
                }
                if fanin == 3 {
                    gates.push(n.add_gate(GateKind::Mux, &inputs, "mux").gate);
                }
            }

            let lane_parallel = LeakageEstimator::new(&n, &library);
            let scalar_lookup = LeakageEstimator::with_lookup(&n, &library, LeakageLookup::Scalar);
            assert_eq!(lane_parallel.lookup(), LeakageLookup::LaneParallel);
            assert!(scalar_lookup.ternary_tables.is_empty());
            for &gate in &gates {
                assert_eq!(
                    lane_parallel.ternary[gate.index()].is_some(),
                    fanin <= LeakageEstimator::TERNARY_FANIN_LIMIT,
                    "fanin {fanin}: precompute must respect the threshold"
                );
            }

            let ev = Evaluator::new(&n);
            let width = ev.inputs().len();
            // X densities: none, sparse, all-X; block sizes: partial and full.
            for (density, lanes) in [(0.0, 64), (0.0, 1), (0.2, 37), (0.2, 64), (1.0, 23)] {
                let patterns: Vec<Vec<Logic>> = (0..lanes)
                    .map(|_| {
                        (0..width)
                            .map(|_| {
                                if density >= 1.0 || rng.gen_bool(density) {
                                    Logic::X
                                } else {
                                    Logic::from_bool(rng.gen_bool(0.5))
                                }
                            })
                            .collect()
                    })
                    .collect();
                let mut kernel = SimKernel::<PackedWord>::new(&n);
                let packed = kernel
                    .evaluate(&n, &pack_logic_patterns(&patterns))
                    .to_vec();

                let fast = lane_parallel.circuit_leakage_lanes(&n, &packed, lanes);
                let slow = scalar_lookup.circuit_leakage_lanes(&n, &packed, lanes);
                for (lane, pattern) in patterns.iter().enumerate() {
                    let reference = lane_parallel.circuit_leakage(&n, &ev.evaluate(&n, pattern));
                    assert_eq!(
                        fast[lane].to_bits(),
                        reference.to_bits(),
                        "fanin {fanin}, density {density}, lane {lane}: \
                         lane-parallel lookup must be bit-identical"
                    );
                    assert_eq!(
                        slow[lane].to_bits(),
                        reference.to_bits(),
                        "fanin {fanin}, density {density}, lane {lane}: \
                         scalar-lookup fallback must be bit-identical"
                    );
                }

                // The write-into variant must fully overwrite a recycled
                // buffer (stale contents, larger previous size).
                let mut recycled = vec![f64::NAN; 64];
                lane_parallel.circuit_leakage_lanes_into(&n, &packed, lanes, &mut recycled);
                assert_eq!(recycled.len(), lanes);
                for (lane, &value) in recycled.iter().enumerate() {
                    assert_eq!(value.to_bits(), fast[lane].to_bits());
                }
            }
        }
    }

    /// Every `10` pin code must hold the exact bits of its canonical `11`
    /// sibling (both decode as X), and every canonical entry must equal
    /// the scalar lookup over the decoded pins.
    #[test]
    fn ternary_table_ten_codes_mirror_eleven_codes() {
        let library = LeakageLibrary::cmos45();
        for fanin in [1usize, 2, 3] {
            let binary = library.gate_table(GateKind::Nand, fanin);
            let ternary = build_ternary_table(&binary, fanin);
            assert_eq!(ternary.len(), 1 << (2 * fanin));
            for (code, &entry) in ternary.iter().enumerate() {
                let mut canonical = code;
                for pin in 0..fanin {
                    if (code >> (2 * pin)) & 0b11 == 0b10 {
                        canonical |= 1 << (2 * pin);
                    }
                }
                assert_eq!(
                    entry.to_bits(),
                    ternary[canonical].to_bits(),
                    "code {code:b}"
                );
                let scalar = averaged_table_lookup(
                    &binary,
                    (0..fanin).map(|pin| match (code >> (2 * pin)) & 0b11 {
                        0b00 => Logic::Zero,
                        0b01 => Logic::One,
                        _ => Logic::X,
                    }),
                );
                assert_eq!(entry.to_bits(), scalar.to_bits(), "code {code:b}");
            }
        }
    }

    #[test]
    fn leakage_average_accumulates() {
        let library = LeakageLibrary::cmos45();
        let mut avg = LeakageAverage::new();
        assert_eq!(avg.average_na(), 0.0);
        avg.add(100.0);
        avg.add(300.0);
        assert_eq!(avg.samples(), 2);
        assert!((avg.average_na() - 200.0).abs() < 1e-12);
        assert!((avg.average_uw(&library) - library.current_to_power_uw(200.0)).abs() < 1e-12);
    }
}
