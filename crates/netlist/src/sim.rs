//! Word-parallel simulation: evaluate a netlist on 64 input points per
//! machine word, the standard workhorse of simulation-based equivalence
//! checking.

use spp_boolfn::BoolFn;

use crate::{GateKind, Netlist};

impl Netlist {
    /// Simulates the netlist on 64 input assignments at once: bit `t` of
    /// `inputs[i]` is the value of input `i` in assignment `t`. Returns
    /// one word per output, bit `t` being that output in assignment `t`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_netlist::Netlist;
    ///
    /// let mut net = Netlist::new(2);
    /// let x = net.xor(vec![0, 1]);
    /// net.add_output("f", x);
    /// // Four assignments packed in the low bits: 00, 10, 01, 11 —
    /// // x0 takes values 0,1,0,1 (word 0b1010) and x1 0,0,1,1 (0b1100).
    /// let out = net.eval_word(&[0b1010, 0b1100]);
    /// assert_eq!(out[0] & 0xF, 0b0110); // XOR truth table column
    /// ```
    #[must_use]
    pub fn eval_word(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs(), "input width mismatch");
        let mut value = vec![0u64; self.num_signals()];
        for id in 0..self.num_signals() {
            let (kind, fanin) = self.gate(id as u32);
            value[id] = match kind {
                GateKind::Input => inputs[id],
                GateKind::Const0 => 0,
                GateKind::Const1 => u64::MAX,
                GateKind::Not => !value[fanin[0] as usize],
                GateKind::And => fanin
                    .iter()
                    .fold(u64::MAX, |acc, &f| acc & value[f as usize]),
                GateKind::Or => fanin.iter().fold(0, |acc, &f| acc | value[f as usize]),
                GateKind::Xor => fanin.iter().fold(0, |acc, &f| acc ^ value[f as usize]),
            };
        }
        self.outputs().iter().map(|&(_, s)| value[s as usize]).collect()
    }

    /// Exhaustive word-parallel equivalence check of output `output_index`
    /// against `f`: simulates 64 points per pass over `2^n` points.
    /// Semantically identical to [`Netlist::equivalent_to`] but ~64×
    /// faster, which matters for the wider benchmark outputs.
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch, the output is out of range, or
    /// `num_inputs > 24`.
    #[must_use]
    pub fn equivalent_to_fast(&self, f: &BoolFn, output_index: usize) -> bool {
        let n = self.num_inputs();
        assert_eq!(f.num_vars(), n, "input width mismatch");
        assert!(output_index < self.outputs().len(), "output index out of range");
        assert!(n <= 24, "exhaustive check enumerates 2^n points");
        let total: u64 = 1 << n;
        let mut base = 0u64;
        while base < total {
            // Pack points base..base+64: input i of point (base + t) is
            // bit i of the integer (base + t).
            let lanes = (total - base).min(64);
            let mut inputs = vec![0u64; n];
            let mut expect = 0u64;
            for t in 0..lanes {
                let x = base + t;
                for (i, word) in inputs.iter_mut().enumerate() {
                    *word |= ((x >> i) & 1) << t;
                }
                let p = spp_gf2::Gf2Vec::from_u64(n, x);
                match f.value(&p) {
                    spp_boolfn::Value::One => expect |= 1 << t,
                    spp_boolfn::Value::Zero => {}
                    spp_boolfn::Value::DontCare => {} // masked below
                }
            }
            let mut mask = if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 };
            // Unconstrain don't-care lanes.
            for t in 0..lanes {
                let p = spp_gf2::Gf2Vec::from_u64(n, base + t);
                if f.value(&p) == spp_boolfn::Value::DontCare {
                    mask &= !(1 << t);
                }
            }
            let got = self.eval_word(&inputs)[output_index];
            if (got ^ expect) & mask != 0 {
                return false;
            }
            base += 64;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::Minimizer;
    use spp_gf2::Gf2Vec;

    #[test]
    fn word_eval_matches_scalar_eval() {
        // f = (x0 ⊕ x1 ⊕ x2) · x̄3 + x2·x3
        let mut net = Netlist::new(4);
        let x = net.xor(vec![0, 1, 2]);
        let n3 = net.not(3);
        let a = net.and(vec![x, n3]);
        let b = net.and(vec![2, 3]);
        let f = net.or(vec![a, b]);
        net.add_output("f", f);

        let mut inputs = vec![0u64; 4];
        for t in 0..16u64 {
            for (i, w) in inputs.iter_mut().enumerate() {
                *w |= ((t >> i) & 1) << t;
            }
        }
        let word = net.eval_word(&inputs)[0];
        for t in 0..16u64 {
            let p = Gf2Vec::from_u64(4, t);
            assert_eq!(net.eval(&p)[0], word >> t & 1 == 1, "point {t}");
        }
    }

    #[test]
    fn fast_equivalence_agrees_with_slow() {
        let f = spp_boolfn::BoolFn::from_truth_fn(5, |x| x % 5 == 2 || x.count_ones() == 3);
        let form = Minimizer::new(&f).run_exact().form;
        let net = Netlist::from_spp_form(&form);
        assert!(net.equivalent_to(&f, 0));
        assert!(net.equivalent_to_fast(&f, 0));
        let g = spp_boolfn::BoolFn::from_truth_fn(5, |x| x % 5 == 2);
        assert!(!net.equivalent_to_fast(&g, 0));
    }

    #[test]
    fn fast_equivalence_spans_multiple_words() {
        // 7 inputs → 128 points → two 64-lane passes.
        let f = spp_boolfn::BoolFn::from_truth_fn(7, |x| (x * 37) % 8 < 3);
        let form = Minimizer::new(&f)
            .limits(
                spp_core::GenLimits::default()
                    .with_max_pseudocubes(5_000)
                    .with_max_level_size(4_000),
            )
            .run_exact()
            .form;
        let net = Netlist::from_spp_form(&form);
        assert!(net.equivalent_to_fast(&f, 0));
    }

    #[test]
    fn dont_cares_are_unconstrained_lanes() {
        use spp_boolfn::BoolFn;
        let p = |s: &str| Gf2Vec::from_bit_str(s).unwrap();
        let f = BoolFn::with_dont_cares(2, [p("11")], [p("01")]);
        // Netlist computes x0·x1 — differs from f only on the DC point.
        let mut net = Netlist::new(2);
        let a = net.and(vec![0, 1]);
        net.add_output("f", a);
        assert!(net.equivalent_to_fast(&f, 0));
        // And one that covers the DC point too.
        let mut net2 = Netlist::new(2);
        let o = net2.and(vec![1]);
        net2.add_output("f", o);
        assert!(net2.equivalent_to_fast(&f, 0));
    }

    #[test]
    fn constants_simulate() {
        let mut net = Netlist::new(1);
        let c1 = net.constant(true);
        net.add_output("one", c1);
        assert_eq!(net.eval_word(&[0b10])[0], u64::MAX);
    }
}
