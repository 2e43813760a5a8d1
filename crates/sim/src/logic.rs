use std::fmt;

use scanpower_netlist::GateKind;

/// Three-valued logic with Kleene (pessimistic) semantics.
///
/// `X` represents an unknown or unassigned value; it is the value of every
/// don't-care controlled input while the paper's
/// `FindControlledInputPattern()` procedure is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / unassigned.
    #[default]
    X,
}

impl Logic {
    /// Converts a boolean into a fully-specified logic value.
    #[must_use]
    pub fn from_bool(value: bool) -> Logic {
        if value {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns the boolean value if fully specified.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// `true` when the value is not `X`.
    #[must_use]
    pub fn is_known(self) -> bool {
        self != Logic::X
    }

    /// Logical negation (`X` stays `X`).
    #[must_use]
    #[allow(clippy::should_implement_trait)] // established three-valued API
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }

    /// Kleene AND.
    #[must_use]
    pub fn and(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Kleene OR.
    #[must_use]
    pub fn or(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Kleene XOR.
    #[must_use]
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// Evaluates a gate of the given kind over three-valued inputs.
    ///
    /// Thin convenience wrapper over the shared kernel's
    /// [`eval_gate`](crate::kernel::eval_gate) — the one place gate kinds
    /// are interpreted as logic functions.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is not valid for the gate kind.
    #[must_use]
    pub fn eval_gate(kind: GateKind, inputs: &[Logic]) -> Logic {
        crate::kernel::eval_gate(kind, inputs)
    }
}

impl From<bool> for Logic {
    fn from(value: bool) -> Logic {
        Logic::from_bool(value)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'X',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_tables() {
        assert_eq!(Logic::Zero.and(Logic::X), Logic::Zero);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::One.or(Logic::X), Logic::One);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::One.xor(Logic::X), Logic::X);
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
    }

    #[test]
    fn gate_eval_with_controlling_values() {
        // A controlling value decides the output even with X on other pins.
        assert_eq!(
            Logic::eval_gate(GateKind::Nand, &[Logic::Zero, Logic::X]),
            Logic::One
        );
        assert_eq!(
            Logic::eval_gate(GateKind::Nor, &[Logic::One, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            Logic::eval_gate(GateKind::Nand, &[Logic::One, Logic::X]),
            Logic::X
        );
    }

    #[test]
    fn mux_eval() {
        let (s0, s1, x) = (Logic::Zero, Logic::One, Logic::X);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[s0, s1, s0]), s1);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[s1, s1, s0]), s0);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[x, s1, s1]), s1);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[x, s1, s0]), x);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(Logic::from(true), Logic::One);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::X.to_bool(), None);
        assert_eq!(format!("{}{}{}", Logic::Zero, Logic::One, Logic::X), "01X");
    }
}
