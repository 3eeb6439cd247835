//! PLONK-style arithmetic circuits (gate constraints only).
//!
//! Each row applies the universal gate equation
//!
//! ```text
//! q_L·a + q_R·b + q_O·c + q_M·a·b + q_C = 0
//! ```
//!
//! over witness wires `(a, b, c)`, and *copy constraints* declare equality
//! between wire cells across rows (enforced by the permutation argument in
//! `permutation.rs` — this is full PLONK arithmetization).

use rand::Rng;
use unintt_ff::{Bn254Fr, Field, PrimeField};

use crate::permutation::{Cell, Column, WirePermutation};

/// Selector values of one gate row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gate {
    /// Left-wire selector.
    pub q_l: Bn254Fr,
    /// Right-wire selector.
    pub q_r: Bn254Fr,
    /// Output-wire selector.
    pub q_o: Bn254Fr,
    /// Multiplication selector.
    pub q_m: Bn254Fr,
    /// Constant selector.
    pub q_c: Bn254Fr,
}

impl Gate {
    /// An addition gate: `a + b − c = 0`.
    pub fn add() -> Self {
        Self {
            q_l: Bn254Fr::ONE,
            q_r: Bn254Fr::ONE,
            q_o: -Bn254Fr::ONE,
            ..Default::default()
        }
    }

    /// A multiplication gate: `a·b − c = 0`.
    pub fn mul() -> Self {
        Self {
            q_m: Bn254Fr::ONE,
            q_o: -Bn254Fr::ONE,
            ..Default::default()
        }
    }

    /// A constant-assertion gate: `a − k = 0`.
    pub fn assert_const(k: Bn254Fr) -> Self {
        Self {
            q_l: Bn254Fr::ONE,
            q_c: -k,
            ..Default::default()
        }
    }

    /// The no-op padding gate (all selectors zero).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Evaluates the gate equation on a wire assignment.
    pub fn eval(&self, a: Bn254Fr, b: Bn254Fr, c: Bn254Fr) -> Bn254Fr {
        self.q_l * a + self.q_r * b + self.q_o * c + self.q_m * a * b + self.q_c
    }
}

/// Wire assignments for a circuit: one `(a, b, c)` triple per row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Left wires.
    pub a: Vec<Bn254Fr>,
    /// Right wires.
    pub b: Vec<Bn254Fr>,
    /// Output wires.
    pub c: Vec<Bn254Fr>,
}

impl Witness {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True if the witness has no rows.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }
}

/// A circuit: a list of gates (padded to a power of two) plus copy
/// constraints between wire cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    gates: Vec<Gate>,
    copies: Vec<(Cell, Cell)>,
    num_public_inputs: usize,
}

impl Circuit {
    /// Builds a circuit from gates, padding with no-ops to the next power
    /// of two (minimum 4 rows so the quotient machinery has room).
    pub fn new(mut gates: Vec<Gate>) -> Self {
        let n = gates.len().max(4).next_power_of_two();
        gates.resize(n, Gate::noop());
        Self {
            gates,
            copies: Vec::new(),
            num_public_inputs: 0,
        }
    }

    /// Declares the first `k` rows as public-input rows: row `i` must be a
    /// `q_L = 1` gate (all other selectors zero) whose `a`-wire carries the
    /// `i`-th public input. The prover's constraint gains the term
    /// `PI(x) = Σᵢ −pubᵢ·Lᵢ(x)`, which the verifier recomputes from the
    /// public values — binding the statement into the proof.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the circuit size or any of the first `k` rows
    /// is not the canonical public-input gate.
    pub fn set_public_inputs(&mut self, k: usize) {
        assert!(k <= self.n(), "more public inputs than rows");
        let expected = Gate {
            q_l: Bn254Fr::ONE,
            ..Default::default()
        };
        for (i, g) in self.gates.iter().enumerate().take(k) {
            assert_eq!(*g, expected, "public-input row {i} must be the q_L=1 gate");
        }
        self.num_public_inputs = k;
    }

    /// Number of declared public inputs.
    pub fn num_public_inputs(&self) -> usize {
        self.num_public_inputs
    }

    /// Adds a copy constraint: the two wire cells must carry equal values.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn connect(&mut self, a: Cell, b: Cell) {
        assert!(
            a.row < self.n() && b.row < self.n(),
            "copy constraint row out of range"
        );
        self.copies.push((a, b));
    }

    /// The copy constraints.
    pub fn copies(&self) -> &[(Cell, Cell)] {
        &self.copies
    }

    /// The wire permutation encoding the copy constraints.
    pub fn wire_permutation(&self) -> WirePermutation {
        WirePermutation::from_copies(self.n(), &self.copies)
    }

    /// Number of rows (always a power of two).
    pub fn n(&self) -> usize {
        self.gates.len()
    }

    /// Row count exponent.
    pub fn log_n(&self) -> u32 {
        self.gates.len().trailing_zeros()
    }

    /// The gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Pads a witness with zero rows to the circuit size.
    ///
    /// # Panics
    ///
    /// Panics if the witness has more rows than the circuit.
    pub fn pad_witness(&self, mut w: Witness) -> Witness {
        assert!(w.len() <= self.n(), "witness longer than circuit");
        w.a.resize(self.n(), Bn254Fr::ZERO);
        w.b.resize(self.n(), Bn254Fr::ZERO);
        w.c.resize(self.n(), Bn254Fr::ZERO);
        w
    }

    /// Checks satisfaction against declared public inputs: the gate
    /// equation with the public-input term on the first rows, plus all
    /// copy constraints.
    pub fn is_satisfied_with(&self, w: &Witness, public_inputs: &[Bn254Fr]) -> bool {
        if public_inputs.len() != self.num_public_inputs {
            return false;
        }
        // Public rows: q_L·a − pubᵢ = 0 ⇔ a_i == pubᵢ.
        if !public_inputs
            .iter()
            .enumerate()
            .all(|(i, &p)| w.a.get(i) == Some(&p))
        {
            return false;
        }
        self.is_satisfied(w)
    }

    /// Checks the gate equation on every row and every copy constraint.
    /// Public-input rows hold trivially here (their gate value is
    /// `q_L·a − q_L·a`); use [`Circuit::is_satisfied_with`] to also bind
    /// the public values.
    pub fn is_satisfied(&self, w: &Witness) -> bool {
        let gates_ok = w.a.len() == self.n()
            && w.b.len() == self.n()
            && w.c.len() == self.n()
            && self
                .gates
                .iter()
                .zip(w.a.iter().zip(w.b.iter().zip(&w.c)))
                .enumerate()
                .all(|(i, (g, (&a, (&b, &c))))| {
                    if i < self.num_public_inputs {
                        // PI rows: q_L·a + PI(ωⁱ) = a − a = 0 by design.
                        true
                    } else {
                        g.eval(a, b, c).is_zero()
                    }
                });
        gates_ok && {
            let cell = |c: Cell| match c.column {
                Column::A => w.a[c.row],
                Column::B => w.b[c.row],
                Column::C => w.c[c.row],
            };
            self.copies.iter().all(|&(x, y)| cell(x) == cell(y))
        }
    }

    /// The five selector columns, each of length `n`.
    pub fn selector_columns(&self) -> [Vec<Bn254Fr>; 5] {
        let col = |f: fn(&Gate) -> Bn254Fr| self.gates.iter().map(f).collect::<Vec<_>>();
        [
            col(|g| g.q_l),
            col(|g| g.q_r),
            col(|g| g.q_o),
            col(|g| g.q_m),
            col(|g| g.q_c),
        ]
    }
}

/// The classic demo statement: "I know `x` with `x³ + x + 5 = y`".
///
/// Returns the circuit, a satisfying witness, and the public output `y`
/// (declared as the circuit's single public input).
pub fn cubic_circuit(x: Bn254Fr) -> (Circuit, Witness, Bn254Fr) {
    let x2 = x * x;
    let x3 = x2 * x;
    let y = x3 + x + Bn254Fr::from_u64(5);

    // Row 0: public input y;  row 1: x·x = x²;  row 2: x²·x = x³;
    // row 3: x³ + x = t;  row 4: t + 5 = y.
    let gates = vec![
        Gate {
            q_l: Bn254Fr::ONE,
            ..Default::default()
        },
        Gate::mul(),
        Gate::mul(),
        Gate::add(),
        Gate {
            q_l: Bn254Fr::ONE,
            q_o: -Bn254Fr::ONE,
            q_c: Bn254Fr::from_u64(5),
            ..Default::default()
        },
    ];
    let t = x3 + x;
    let witness = Witness {
        a: vec![y, x, x2, x3, t],
        b: vec![Bn254Fr::ZERO, x, x, x, Bn254Fr::ZERO],
        c: vec![Bn254Fr::ZERO, x2, x3, t, y],
    };
    let mut circuit = Circuit::new(gates);
    circuit.set_public_inputs(1);
    // Copy constraints wire the dataflow: x is one value everywhere, each
    // gate's output feeds the next gate's input, and the final output is
    // wired to the public-input row.
    circuit.connect(Cell::new(Column::A, 1), Cell::new(Column::B, 1));
    circuit.connect(Cell::new(Column::B, 1), Cell::new(Column::B, 2));
    circuit.connect(Cell::new(Column::B, 2), Cell::new(Column::B, 3));
    circuit.connect(Cell::new(Column::C, 1), Cell::new(Column::A, 2)); // x²
    circuit.connect(Cell::new(Column::C, 2), Cell::new(Column::A, 3)); // x³
    circuit.connect(Cell::new(Column::C, 3), Cell::new(Column::A, 4)); // t
    circuit.connect(Cell::new(Column::C, 4), Cell::new(Column::A, 0)); // y public
    let witness = circuit.pad_witness(witness);
    (circuit, witness, y)
}

/// Generates a random satisfiable circuit of `rows` gates (for benches):
/// selectors and inputs are random, the output wire is solved for.
pub fn random_circuit<R: Rng + ?Sized>(rows: usize, rng: &mut R) -> (Circuit, Witness) {
    let mut gates = Vec::with_capacity(rows);
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    let mut c = Vec::with_capacity(rows);
    for i in 0..rows {
        let g = Gate {
            q_l: Bn254Fr::random(rng),
            q_r: Bn254Fr::random(rng),
            q_o: -Bn254Fr::ONE,
            q_m: Bn254Fr::random(rng),
            q_c: Bn254Fr::random(rng),
        };
        // Chain the dataflow: each gate's left input is the previous
        // gate's output (enforced below by a copy constraint).
        let ai = if i == 0 {
            Bn254Fr::random(rng)
        } else {
            c[i - 1]
        };
        let bi = Bn254Fr::random(rng);
        // Solve q_L·a + q_R·b + q_M·ab + q_C = c.
        let ci = g.q_l * ai + g.q_r * bi + g.q_m * ai * bi + g.q_c;
        gates.push(g);
        a.push(ai);
        b.push(bi);
        c.push(ci);
    }
    let mut circuit = Circuit::new(gates);
    for i in 1..rows {
        circuit.connect(Cell::new(Column::C, i - 1), Cell::new(Column::A, i));
    }
    let witness = circuit.pad_witness(Witness { a, b, c });
    (circuit, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::PrimeField;

    #[test]
    fn cubic_circuit_satisfied() {
        let x = Bn254Fr::from_u64(3);
        let (circuit, witness, y) = cubic_circuit(x);
        assert!(circuit.is_satisfied(&witness));
        assert!(circuit.is_satisfied_with(&witness, &[y]));
        assert!(!circuit.is_satisfied_with(&witness, &[y + Bn254Fr::ONE]));
        assert!(!circuit.is_satisfied_with(&witness, &[]));
        assert_eq!(y, Bn254Fr::from_u64(27 + 3 + 5));
        assert_eq!(circuit.n(), 8); // 5 gates padded to the next power of 2
        assert_eq!(circuit.num_public_inputs(), 1);
    }

    #[test]
    fn tampered_witness_rejected() {
        let (circuit, mut witness, _) = cubic_circuit(Bn254Fr::from_u64(7));
        witness.c[1] += Bn254Fr::ONE;
        assert!(!circuit.is_satisfied(&witness));
    }

    #[test]
    fn random_circuits_satisfied_and_padded() {
        let mut rng = StdRng::seed_from_u64(1);
        for rows in [1usize, 5, 16, 100] {
            let (circuit, witness) = random_circuit(rows, &mut rng);
            assert!(circuit.n().is_power_of_two());
            assert!(circuit.n() >= rows);
            assert!(circuit.is_satisfied(&witness), "rows={rows}");
        }
    }

    #[test]
    fn gate_constructors() {
        let two = Bn254Fr::from_u64(2);
        let three = Bn254Fr::from_u64(3);
        assert!(Gate::add().eval(two, three, Bn254Fr::from_u64(5)).is_zero());
        assert!(Gate::mul().eval(two, three, Bn254Fr::from_u64(6)).is_zero());
        assert!(Gate::assert_const(two)
            .eval(two, Bn254Fr::ZERO, Bn254Fr::ZERO)
            .is_zero());
        assert!(Gate::noop()
            .eval(two, three, Bn254Fr::from_u64(999))
            .is_zero());
    }

    #[test]
    fn selector_columns_align() {
        let (circuit, _, _) = cubic_circuit(Bn254Fr::from_u64(2));
        let cols = circuit.selector_columns();
        for col in &cols {
            assert_eq!(col.len(), circuit.n());
        }
        assert_eq!(cols[3][1], Bn254Fr::ONE); // q_m of the first mul gate (row 1)
    }
}
