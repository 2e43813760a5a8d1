//! Analytic leakage model.
//!
//! The paper avoids "complex calculations for estimation of total leakage"
//! by characterising every gate with HSPICE/BSIM4 and storing the results in
//! per-gate, per-input-state tables. This module plays the role of that
//! characterisation step: a transparent subthreshold + gate-tunnelling
//! approximation built from a handful of per-transistor components
//! ([`LeakageParams`]), calibrated so that the NAND2 table reproduces
//! Figure 2 of the paper exactly (78 / 73 / 264 / 408 nA for the input
//! states 00 / 01 / 10 / 11 at 45 nm, 0.9 V).
//!
//! The model captures the two effects the algorithms exploit:
//!
//! * **input-state dependence** — a gate's leakage varies by up to ~5× with
//!   its input pattern, so choosing the scan-mode vector matters;
//! * **stack effect and pin position** — which pin carries the controlling
//!   value matters (the "01 vs 10" asymmetry), which is what the gate
//!   input-reordering step exploits.

use scanpower_netlist::GateKind;

/// Supply voltage of the paper's 45 nm experiments (volts).
pub const VDD: f64 = 0.9;

/// Per-transistor leakage components (nanoamperes) and stack factors.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageParams {
    /// Subthreshold current of a single OFF NMOS with full `V_DS` (nA).
    pub sub_n: f64,
    /// Subthreshold current of a single OFF PMOS with full `|V_DS|` (nA).
    pub sub_p: f64,
    /// Gate-tunnelling current of an ON NMOS with full `V_ox` (nA).
    pub gate_n: f64,
    /// Gate-tunnelling current of an ON PMOS with full `|V_ox|` (nA).
    pub gate_p: f64,
    /// Gate-tunnelling current of an ON NMOS whose channel is only partially
    /// biased (series device not adjacent to the rail), nA.
    pub gate_n_partial: f64,
    /// Same for PMOS, nA.
    pub gate_p_partial: f64,
    /// Subthreshold reduction factor for `k` series OFF devices
    /// (`stack[1] = 1.0`, `stack[2] ≈ 0.3`, …). Index 0 is unused.
    pub stack: [f64; 5],
    /// Position dependence of a single OFF device in a series stack: factor
    /// applied when the OFF device is at pin 0 (closest to the output).
    pub position_near: f64,
    /// Factor applied when the OFF device is at the last pin (closest to the
    /// rail). Intermediate pins interpolate linearly.
    pub position_far: f64,
}

impl Default for LeakageParams {
    fn default() -> Self {
        LeakageParams::cmos45()
    }
}

impl LeakageParams {
    /// Parameters calibrated to the paper's 45 nm / 0.9 V NAND2 table
    /// (Figure 2).
    #[must_use]
    pub fn cmos45() -> LeakageParams {
        LeakageParams {
            sub_n: 180.0,
            sub_p: 160.0,
            gate_n: 44.0,
            gate_p: 12.0,
            gate_n_partial: 16.0,
            gate_p_partial: 6.0,
            stack: [1.0, 1.0, 0.3, 0.18, 0.12],
            position_near: 0.25,
            position_far: 1.311_111_111_111_111,
        }
    }

    fn stack_factor(&self, off_devices: usize) -> f64 {
        let index = off_devices.min(self.stack.len() - 1);
        self.stack[index]
    }

    fn position_factor(&self, pin: usize, fanin: usize) -> f64 {
        if fanin <= 1 {
            return 1.0;
        }
        let t = pin as f64 / (fanin - 1) as f64;
        self.position_near + (self.position_far - self.position_near) * t
    }
}

/// Computes the leakage current (nA) of a gate of the given kind and fanin
/// for the input state `state` (bit `i` of `state` is the logic value of pin
/// `i`).
///
/// Gates outside the {NAND, NOR, INV} library are evaluated through their
/// NAND/NOR/INV decomposition so that un-mapped netlists still get sensible
/// (if slightly pessimistic) numbers.
///
/// # Panics
///
/// Panics if `fanin` exceeds 16 (wider gates should be technology-mapped
/// first) or if a MUX is queried with a fanin other than 3.
#[must_use]
pub fn gate_leakage(params: &LeakageParams, kind: GateKind, fanin: usize, state: u32) -> f64 {
    assert!(fanin <= 16, "gate too wide; run technology mapping first");
    let bit = |pin: usize| (state >> pin) & 1 == 1;
    match kind {
        GateKind::Const0 | GateKind::Const1 => 0.0,
        GateKind::Buf => {
            // Two back-to-back inverters.
            let first = gate_leakage(params, GateKind::Not, 1, state & 1);
            let second = gate_leakage(params, GateKind::Not, 1, u32::from(!bit(0)));
            first + second
        }
        GateKind::Not => {
            if bit(0) {
                // Output low: PMOS off (subthreshold), NMOS on (gate leak).
                params.sub_p + params.gate_n
            } else {
                // Output high: NMOS off, PMOS on.
                params.sub_n + params.gate_p
            }
        }
        GateKind::Nand => nand_leakage(params, fanin, state),
        GateKind::Nor => nor_leakage(params, fanin, state),
        GateKind::And => {
            let nand = nand_leakage(params, fanin, state);
            let nand_out = !(0..fanin).all(bit);
            nand + gate_leakage(params, GateKind::Not, 1, u32::from(nand_out))
        }
        GateKind::Or => {
            let nor = nor_leakage(params, fanin, state);
            let nor_out = !(0..fanin).any(bit);
            nor + gate_leakage(params, GateKind::Not, 1, u32::from(nor_out))
        }
        GateKind::Xor | GateKind::Xnor => xor_leakage(params, kind, fanin, state),
        GateKind::Mux => {
            assert_eq!(fanin, 3, "mux leakage requires fanin 3");
            mux_leakage(params, state)
        }
    }
}

fn nand_leakage(params: &LeakageParams, fanin: usize, state: u32) -> f64 {
    let zeros: Vec<usize> = (0..fanin).filter(|&p| (state >> p) & 1 == 0).collect();
    let ones = fanin - zeros.len();
    if zeros.is_empty() {
        // Output low: every parallel PMOS is OFF with full |V_DS|, every
        // series NMOS is ON and tunnels through its gate oxide.
        return fanin as f64 * params.sub_p + fanin as f64 * params.gate_n;
    }
    // Pull-down network is off: subthreshold through the NMOS stack.
    let sub = if zeros.len() == 1 {
        params.sub_n * params.position_factor(zeros[0], fanin)
    } else {
        params.sub_n * params.stack_factor(zeros.len())
    };
    // Gate tunnelling: ON NMOS devices see a partial channel bias, ON PMOS
    // devices (the ones whose input is 0) see the full oxide voltage.
    let gate = ones as f64 * params.gate_n_partial + zeros.len() as f64 * params.gate_p;
    sub + gate
}

fn nor_leakage(params: &LeakageParams, fanin: usize, state: u32) -> f64 {
    let ones: Vec<usize> = (0..fanin).filter(|&p| (state >> p) & 1 == 1).collect();
    let zeros = fanin - ones.len();
    if ones.is_empty() {
        // Output high: every parallel NMOS is OFF with full V_DS, every
        // series PMOS is ON.
        return fanin as f64 * params.sub_n + fanin as f64 * params.gate_p;
    }
    let sub = if ones.len() == 1 {
        params.sub_p * params.position_factor(ones[0], fanin)
    } else {
        params.sub_p * params.stack_factor(ones.len())
    };
    let gate = ones.len() as f64 * params.gate_n + zeros as f64 * params.gate_p_partial;
    sub + gate
}

fn xor_leakage(params: &LeakageParams, kind: GateKind, fanin: usize, state: u32) -> f64 {
    // Evaluate the pairwise 4-NAND decomposition used by the technology
    // mapper and add up the leakage of the individual NAND2 cells.
    let bit = |pin: usize| (state >> pin) & 1 == 1;
    let mut total = 0.0;
    let mut acc = bit(0);
    for pin in 1..fanin {
        let b = bit(pin);
        let n1 = !(acc & b);
        let n2 = !(acc & n1);
        let n3 = !(b & n1);
        total += nand_leakage(params, 2, pack2(acc, b));
        total += nand_leakage(params, 2, pack2(acc, n1));
        total += nand_leakage(params, 2, pack2(b, n1));
        total += nand_leakage(params, 2, pack2(n2, n3));
        acc = !(n2 & n3);
    }
    if kind == GateKind::Xnor {
        total += gate_leakage(params, GateKind::Not, 1, u32::from(acc));
    }
    total
}

fn mux_leakage(params: &LeakageParams, state: u32) -> f64 {
    // The scan-structure MUX is a transmission-gate multiplexer (one select
    // inverter plus two complementary pass gates), which is how standard
    // cell libraries implement MUX2 cells. Its leakage is dominated by the
    // select inverter; the OFF transmission gate only leaks source-to-drain
    // when the two data inputs are at different levels (otherwise its
    // drain-source voltage is ~0), and the pass devices add a small gate
    // tunnelling component.
    let select = state & 1 == 1;
    let a = (state >> 1) & 1 == 1;
    let b = (state >> 2) & 1 == 1;
    let inverter = gate_leakage(params, GateKind::Not, 1, u32::from(select));
    let pass_subthreshold = if a != b {
        0.15 * (params.sub_n + params.sub_p)
    } else {
        0.03 * (params.sub_n + params.sub_p)
    };
    let pass_gate_tunnelling = params.gate_n_partial + params.gate_p_partial;
    inverter + pass_subthreshold + pass_gate_tunnelling
}

fn pack2(pin0: bool, pin1: bool) -> u32 {
    u32::from(pin0) | (u32::from(pin1) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand2_matches_figure_2_exactly() {
        let p = LeakageParams::cmos45();
        // Figure 2: A B -> leakage (nA): 00→78, 01→73, 10→264, 11→408,
        // where A is pin 0 and B is pin 1.
        let l = |a: bool, b: bool| gate_leakage(&p, GateKind::Nand, 2, pack2(a, b));
        assert!((l(false, false) - 78.0).abs() < 1e-9);
        assert!((l(false, true) - 73.0).abs() < 1e-9);
        assert!((l(true, false) - 264.0).abs() < 1e-9);
        assert!((l(true, true) - 408.0).abs() < 1e-9);
    }

    #[test]
    fn stacking_reduces_subthreshold_leakage() {
        let p = LeakageParams::cmos45();
        // Two series OFF devices leak less than the best single OFF device.
        let both_off = gate_leakage(&p, GateKind::Nand, 2, 0b00);
        let single_off_worst = gate_leakage(&p, GateKind::Nand, 2, 0b01);
        assert!(both_off < single_off_worst);
    }

    #[test]
    fn input_order_matters_for_single_controlling_value() {
        let p = LeakageParams::cmos45();
        // The "01 vs 10" asymmetry the reordering step exploits.
        assert!(
            gate_leakage(&p, GateKind::Nand, 2, 0b10) < gate_leakage(&p, GateKind::Nand, 2, 0b01)
        );
        assert!(
            gate_leakage(&p, GateKind::Nor, 2, 0b01) < gate_leakage(&p, GateKind::Nor, 2, 0b10)
        );
    }

    #[test]
    fn nor_is_dual_of_nand() {
        let p = LeakageParams::cmos45();
        // All-zero NOR (output high, parallel NMOS off) is its worst state,
        // just as all-one NAND is the NAND's worst state.
        let nor_states: Vec<f64> = (0..4)
            .map(|s| gate_leakage(&p, GateKind::Nor, 2, s))
            .collect();
        let max = nor_states.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(nor_states[0], max);
    }

    #[test]
    fn inverter_both_states_are_positive_and_distinct() {
        let p = LeakageParams::cmos45();
        let low = gate_leakage(&p, GateKind::Not, 1, 0);
        let high = gate_leakage(&p, GateKind::Not, 1, 1);
        assert!(low > 0.0 && high > 0.0);
        assert_ne!(low, high);
    }

    #[test]
    fn constants_do_not_leak() {
        let p = LeakageParams::cmos45();
        assert_eq!(gate_leakage(&p, GateKind::Const0, 0, 0), 0.0);
        assert_eq!(gate_leakage(&p, GateKind::Const1, 0, 0), 0.0);
    }

    #[test]
    fn composite_gates_are_sums_of_their_decomposition() {
        let p = LeakageParams::cmos45();
        // AND = NAND + INV driven by the NAND output.
        let and = gate_leakage(&p, GateKind::And, 2, 0b11);
        let nand = gate_leakage(&p, GateKind::Nand, 2, 0b11);
        let inv = gate_leakage(&p, GateKind::Not, 1, 0);
        assert!((and - (nand + inv)).abs() < 1e-9);
        // XOR and MUX are positive for every state.
        for state in 0..4 {
            assert!(gate_leakage(&p, GateKind::Xor, 2, state) > 0.0);
        }
        for state in 0..8 {
            assert!(gate_leakage(&p, GateKind::Mux, 3, state) > 0.0);
        }
    }

    #[test]
    fn wider_nands_leak_more_in_the_worst_state() {
        let p = LeakageParams::cmos45();
        let n2 = gate_leakage(&p, GateKind::Nand, 2, 0b11);
        let n3 = gate_leakage(&p, GateKind::Nand, 3, 0b111);
        let n4 = gate_leakage(&p, GateKind::Nand, 4, 0b1111);
        assert!(n2 < n3 && n3 < n4);
    }
}
