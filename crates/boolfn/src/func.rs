//! Single-output Boolean functions as explicit minterm sets.

use std::fmt;

use spp_gf2::Gf2Vec;

use crate::Cube;

/// The value of an incompletely specified Boolean function at a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// The function is 0 at the point (OFF-set).
    Zero,
    /// The function is 1 at the point (ON-set).
    One,
    /// The function is unspecified at the point (DC-set).
    DontCare,
}

/// A single-output Boolean function over `B^n`, represented by its ON-set
/// (and an optional DC-set) of minterms.
///
/// This is the input type of both the SP and the SPP minimizers. Minterm
/// lists are kept sorted and deduplicated, so membership tests are binary
/// searches and equality is structural.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
///
/// // x0 XOR x1: the classic function where EXOR logic wins.
/// let f = BoolFn::from_indices(2, &[0b01, 0b10]);
/// assert!(f.is_on(&spp_gf2::Gf2Vec::from_u64(2, 0b01)));
/// assert!(!f.is_on(&spp_gf2::Gf2Vec::from_u64(2, 0b11)));
/// assert_eq!(f.on_set().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BoolFn {
    n: usize,
    on: Vec<Gf2Vec>,
    dc: Vec<Gf2Vec>,
}

impl BoolFn {
    /// Builds a fully specified function from its ON-set minterms.
    ///
    /// Duplicates are removed.
    ///
    /// # Panics
    ///
    /// Panics if any minterm has length other than `n`.
    #[must_use]
    pub fn from_minterms<I: IntoIterator<Item = Gf2Vec>>(n: usize, minterms: I) -> Self {
        Self::with_dont_cares(n, minterms, std::iter::empty())
    }

    /// Builds an incompletely specified function from ON-set and DC-set
    /// minterms.
    ///
    /// # Panics
    ///
    /// Panics if any minterm has the wrong length, or if the ON-set and
    /// DC-set overlap.
    #[must_use]
    pub fn with_dont_cares<I, J>(n: usize, on: I, dc: J) -> Self
    where
        I: IntoIterator<Item = Gf2Vec>,
        J: IntoIterator<Item = Gf2Vec>,
    {
        let mut on: Vec<Gf2Vec> = on.into_iter().collect();
        let mut dc: Vec<Gf2Vec> = dc.into_iter().collect();
        for p in on.iter().chain(dc.iter()) {
            assert_eq!(p.len(), n, "minterm length must equal n");
        }
        on.sort();
        on.dedup();
        dc.sort();
        dc.dedup();
        // DC points that are also ON are dropped from the DC set (the ON
        // requirement wins); a true overlap is a caller bug we tolerate
        // deterministically rather than panic on, matching Espresso.
        dc.retain(|p| on.binary_search(p).is_err());
        BoolFn { n, on, dc }
    }

    /// Builds a function from minterm indices (bit `i` of the index is the
    /// value of `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 63` or an index does not fit in `n` bits.
    #[must_use]
    pub fn from_indices(n: usize, indices: &[u64]) -> Self {
        Self::from_minterms(n, indices.iter().map(|&i| Gf2Vec::from_u64(n, i)))
    }

    /// Builds a function by evaluating `truth` on every point of `B^n`
    /// (`truth` receives the point as an integer, bit `i` = `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (the enumeration would be too large).
    #[must_use]
    pub fn from_truth_fn<F: FnMut(u64) -> bool>(n: usize, mut truth: F) -> Self {
        assert!(n <= 24, "from_truth_fn enumerates 2^n points; n={n} is too large");
        let on = (0..1u64 << n)
            .filter(|&x| truth(x))
            .map(|x| Gf2Vec::from_u64(n, x));
        Self::from_minterms(n, on)
    }

    /// Builds a function from the union of the points of `cubes` (the usual
    /// reading of a PLA output column).
    ///
    /// # Panics
    ///
    /// Panics if any cube is not over `n` variables.
    #[must_use]
    pub fn from_cubes(n: usize, cubes: &[Cube]) -> Self {
        let mut on = Vec::new();
        for c in cubes {
            assert_eq!(c.num_vars(), n, "cube width must equal n");
            on.extend(c.points());
        }
        Self::from_minterms(n, on)
    }

    /// The number of input variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The sorted ON-set minterms.
    #[must_use]
    pub fn on_set(&self) -> &[Gf2Vec] {
        &self.on
    }

    /// The sorted DC-set minterms.
    #[must_use]
    pub fn dc_set(&self) -> &[Gf2Vec] {
        &self.dc
    }

    /// Whether the ON-set is empty (the constant-0 function, up to DC).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.on.is_empty()
    }

    /// Whether the function is 1 at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn is_on(&self, point: &Gf2Vec) -> bool {
        assert_eq!(point.len(), self.n, "point length must equal n");
        self.on.binary_search(point).is_ok()
    }

    /// Whether the function may be 1 at `point` (ON or DC) — the set an
    /// implicant or pseudoproduct is allowed to cover.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn is_coverable(&self, point: &Gf2Vec) -> bool {
        self.is_on(point) || self.dc.binary_search(point).is_ok()
    }

    /// The value of the function at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn value(&self, point: &Gf2Vec) -> Value {
        if self.is_on(point) {
            Value::One
        } else if self.dc.binary_search(point).is_ok() {
            Value::DontCare
        } else {
            Value::Zero
        }
    }

    /// The complement of the fully specified part: ON-set becomes the
    /// current OFF-set, DC-set is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (requires enumerating the space).
    #[must_use]
    pub fn complement(&self) -> BoolFn {
        assert!(self.n <= 24, "complement enumerates 2^n points");
        // Note: all_points yields integer order, which differs from the
        // sorted-minterm invariant (x0 is the most significant digit in
        // Gf2Vec order); the constructor re-sorts.
        let on = all_points(self.n).filter(|p| self.value(p) == Value::Zero);
        BoolFn::with_dont_cares(self.n, on, self.dc.iter().copied())
    }

    /// Pointwise combination of two fully specified functions.
    ///
    /// Don't-care points of either operand become don't-cares of the
    /// result (the combination is unconstrained there).
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ or exceed 24.
    #[must_use]
    pub fn combine<F: Fn(bool, bool) -> bool>(&self, other: &BoolFn, op: F) -> BoolFn {
        assert_eq!(self.n, other.n, "variable counts must match");
        assert!(self.n <= 24, "combine enumerates 2^n points");
        let mut on = Vec::new();
        let mut dc = Vec::new();
        for p in all_points(self.n) {
            match (self.value(&p), other.value(&p)) {
                (Value::DontCare, _) | (_, Value::DontCare) => dc.push(p),
                (a, b) => {
                    if op(a == Value::One, b == Value::One) {
                        on.push(p);
                    }
                }
            }
        }
        BoolFn::with_dont_cares(self.n, on, dc)
    }

    /// The pointwise AND of two functions. See [`BoolFn::combine`].
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ or exceed 24.
    #[must_use]
    pub fn and(&self, other: &BoolFn) -> BoolFn {
        self.combine(other, |a, b| a && b)
    }

    /// The pointwise OR of two functions. See [`BoolFn::combine`].
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ or exceed 24.
    #[must_use]
    pub fn or(&self, other: &BoolFn) -> BoolFn {
        self.combine(other, |a, b| a || b)
    }

    /// The pointwise XOR of two functions. See [`BoolFn::combine`].
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ or exceed 24.
    #[must_use]
    pub fn xor(&self, other: &BoolFn) -> BoolFn {
        self.combine(other, |a, b| a ^ b)
    }

    /// The *support* of the function: the variables it actually depends
    /// on, in increasing order.
    ///
    /// Variable `i` is outside the support iff the ON-set is invariant
    /// under flipping bit `i` (and, for incompletely specified functions,
    /// so is the DC-set).
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    ///
    /// let f = BoolFn::from_truth_fn(4, |x| x & 0b0101 == 0b0101);
    /// assert_eq!(f.support(), vec![0, 2]);
    /// ```
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        // Flipping `x_i` maps the points with `x_i = 0` onto those with
        // `x_i = 1` and keeps their sorted order (the order compares bit
        // positions, and the two points of any such pair agree at `i`). So
        // a sorted set is invariant under the flip iff its two halves match
        // pair by pair: one linear pass per variable, no searching.
        let invariant = |set: &[Gf2Vec], i: usize| {
            let mut ones = set.iter().filter(|p| p.get(i));
            set.iter().filter(|p| !p.get(i)).all(|p| ones.next() == Some(&p.with_bit(i, true)))
                && ones.next().is_none()
        };
        (0..self.n).filter(|&i| !invariant(&self.on, i) || !invariant(&self.dc, i)).collect()
    }

    /// Projects the function onto its support: returns the equivalent
    /// function over only the variables it depends on, plus the mapping
    /// from new variable index to original variable.
    ///
    /// This is how single outputs of wide circuits (e.g. the low sum bits
    /// of a 16-input adder) become tractable minimization instances.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    ///
    /// let f = BoolFn::from_truth_fn(5, |x| (x >> 1) & 1 == 1 && (x >> 4) & 1 == 1);
    /// let (g, vars) = f.project_to_support();
    /// assert_eq!(vars, vec![1, 4]);
    /// assert_eq!(g.num_vars(), 2);
    /// assert_eq!(g.on_set().len(), 1);
    /// ```
    #[must_use]
    pub fn project_to_support(&self) -> (BoolFn, Vec<usize>) {
        let support = self.support();
        (self.project(&support), support)
    }

    /// The function over the variables `vars` alone: variable `j` of the
    /// result reads input `vars[j]`, and every ON and DC point keeps only
    /// those coordinates. When `vars` includes the
    /// [`support`](Self::support), the result is the same function on
    /// fewer inputs, so a caller that already holds the support projects
    /// without computing it again. (A projection that drops a support
    /// variable merges points the function tells apart.)
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    ///
    /// let f = BoolFn::from_truth_fn(5, |x| (x >> 1) & 1 == 1 && (x >> 4) & 1 == 1);
    /// let support = f.support();
    /// assert_eq!(f.project(&support), f.project_to_support().0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a variable of `vars` is out of range and the ON- or
    /// DC-set has a point.
    #[must_use]
    pub fn project(&self, vars: &[usize]) -> BoolFn {
        let project = |set: &[Gf2Vec]| -> Vec<Gf2Vec> {
            set.iter()
                .map(|p| {
                    let mut q = Gf2Vec::zeros(vars.len());
                    for (j, &v) in vars.iter().enumerate() {
                        q.set(j, p.get(v));
                    }
                    q
                })
                .collect()
        };
        BoolFn::with_dont_cares(vars.len(), project(&self.on), project(&self.dc))
    }

    /// Restricts the function to another variable count by an injective
    /// variable selection: output variable `j` reads input variable
    /// `vars[j]`. Points of the new space are evaluated by placing the
    /// selected bits and fixing all other original inputs to `fixed`.
    ///
    /// This is how single outputs of wide benchmark circuits are cut down
    /// to tractable cofactor slices for the harness.
    ///
    /// # Panics
    ///
    /// Panics if `vars` repeats a variable, indexes out of range, or the
    /// resulting space exceeds 24 variables.
    #[must_use]
    pub fn cofactor_slice(&self, vars: &[usize], fixed: &Gf2Vec) -> BoolFn {
        assert!(vars.len() <= 24, "cofactor slice is too wide");
        assert_eq!(fixed.len(), self.n, "fixed assignment must cover all variables");
        let mut seen = vec![false; self.n];
        for &v in vars {
            assert!(v < self.n, "variable {v} out of range");
            assert!(!seen[v], "variable {v} selected twice");
            seen[v] = true;
        }
        let m = vars.len();
        let mut on = Vec::new();
        let mut dc = Vec::new();
        for idx in 0..1u64 << m {
            let mut point = *fixed;
            for (j, &v) in vars.iter().enumerate() {
                point.set(v, (idx >> j) & 1 == 1);
            }
            match self.value(&point) {
                Value::One => on.push(Gf2Vec::from_u64(m, idx)),
                Value::DontCare => dc.push(Gf2Vec::from_u64(m, idx)),
                Value::Zero => {}
            }
        }
        BoolFn::with_dont_cares(m, on, dc)
    }
}

impl fmt::Debug for BoolFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BoolFn(n={}, |on|={}, |dc|={})",
            self.n,
            self.on.len(),
            self.dc.len()
        )
    }
}

/// Iterates over all `2^n` points of `B^n` in increasing integer order
/// (LSB = `x_0`).
///
/// # Panics
///
/// Panics if `n > 24`.
///
/// # Examples
///
/// ```
/// use spp_boolfn::all_points;
///
/// assert_eq!(all_points(2).count(), 4);
/// ```
pub fn all_points(n: usize) -> impl Iterator<Item = Gf2Vec> {
    assert!(n <= 24, "all_points enumerates 2^n points; n={n} is too large");
    (0..1u64 << n).map(move |i| Gf2Vec::from_u64(n, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    #[test]
    fn from_indices_and_membership() {
        let f = BoolFn::from_indices(3, &[0b000, 0b101]);
        assert!(f.is_on(&p("000")));
        assert!(f.is_on(&p("101"))); // index bit 0 = x0
        assert!(!f.is_on(&p("100")));
        assert_eq!(f.num_vars(), 3);
    }

    #[test]
    fn duplicates_are_removed() {
        let f = BoolFn::from_indices(2, &[1, 1, 2, 2]);
        assert_eq!(f.on_set().len(), 2);
    }

    #[test]
    fn truth_fn_majority() {
        let maj = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
        assert_eq!(maj.on_set().len(), 4);
        assert!(maj.is_on(&p("110")));
        assert!(!maj.is_on(&p("100")));
    }

    #[test]
    fn from_cubes_expands_points() {
        let f = BoolFn::from_cubes(3, &["1--".parse().unwrap(), "-11".parse().unwrap()]);
        // 4 points from the first cube + 2 from the second, 1 shared.
        assert_eq!(f.on_set().len(), 5);
    }

    #[test]
    fn dont_cares_are_coverable_not_on() {
        let f = BoolFn::with_dont_cares(
            2,
            [p("11")],
            [p("01")],
        );
        assert!(f.is_on(&p("11")));
        assert!(!f.is_on(&p("01")));
        assert!(f.is_coverable(&p("01")));
        assert_eq!(f.value(&p("01")), Value::DontCare);
        assert_eq!(f.value(&p("00")), Value::Zero);
    }

    #[test]
    fn overlapping_dc_yields_to_on() {
        let f = BoolFn::with_dont_cares(2, [p("11")], [p("11"), p("00")]);
        assert_eq!(f.value(&p("11")), Value::One);
        assert_eq!(f.dc_set(), &[p("00")]);
    }

    #[test]
    fn complement_flips_off_only() {
        let f = BoolFn::with_dont_cares(2, [p("11")], [p("01")]);
        let g = f.complement();
        assert!(g.is_on(&p("00")));
        assert!(g.is_on(&p("10")));
        assert!(!g.is_on(&p("11")));
        assert!(!g.is_on(&p("01"))); // still DC
        assert_eq!(g.value(&p("01")), Value::DontCare);
    }

    #[test]
    fn zero_function() {
        let f = BoolFn::from_indices(3, &[]);
        assert!(f.is_zero());
        assert!(!f.is_on(&p("000")));
    }

    #[test]
    fn all_points_covers_space() {
        let pts: Vec<_> = all_points(3).collect();
        assert_eq!(pts.len(), 8);
        let mut sorted = pts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn combinators_match_pointwise_semantics() {
        let f = BoolFn::from_truth_fn(3, |x| x & 1 == 1);
        let g = BoolFn::from_truth_fn(3, |x| x & 0b100 != 0);
        let and = f.and(&g);
        let or = f.or(&g);
        let xor = f.xor(&g);
        for x in 0..8u64 {
            let p = Gf2Vec::from_u64(3, x);
            let (a, b) = (f.is_on(&p), g.is_on(&p));
            assert_eq!(and.is_on(&p), a && b);
            assert_eq!(or.is_on(&p), a || b);
            assert_eq!(xor.is_on(&p), a ^ b);
        }
    }

    #[test]
    fn combinators_propagate_dont_cares() {
        let f = BoolFn::with_dont_cares(2, [p("11")], [p("01")]);
        let g = BoolFn::from_truth_fn(2, |_| true);
        let h = f.and(&g);
        assert_eq!(h.value(&p("01")), Value::DontCare);
        assert_eq!(h.value(&p("11")), Value::One);
        assert_eq!(h.value(&p("00")), Value::Zero);
    }

    #[test]
    fn xor_with_self_is_zero() {
        let f = BoolFn::from_truth_fn(3, |x| x % 3 == 1);
        assert!(f.xor(&f).is_zero());
        assert_eq!(f.or(&f), f);
        assert_eq!(f.and(&f), f);
    }

    #[test]
    fn support_of_constants_is_empty() {
        assert!(BoolFn::from_indices(4, &[]).support().is_empty());
        assert!(BoolFn::from_truth_fn(4, |_| true).support().is_empty());
    }

    #[test]
    fn support_detects_dependencies() {
        // x1 XOR x3 on 5 variables.
        let f = BoolFn::from_truth_fn(5, |x| ((x >> 1) ^ (x >> 3)) & 1 == 1);
        assert_eq!(f.support(), vec![1, 3]);
    }

    #[test]
    fn support_matches_the_flip_definition_on_every_small_function() {
        // Every 3-input function with every DC assignment: 3^8 cases.
        for code in 0..3u32.pow(8) {
            let (mut on, mut dc) = (Vec::new(), Vec::new());
            let mut c = code;
            for x in 0..8u64 {
                match c % 3 {
                    1 => on.push(Gf2Vec::from_u64(3, x)),
                    2 => dc.push(Gf2Vec::from_u64(3, x)),
                    _ => {}
                }
                c /= 3;
            }
            let f = BoolFn::with_dont_cares(3, on, dc);
            let expected: Vec<usize> = (0..3)
                .filter(|&i| {
                    (0..8u64).any(|x| {
                        let p = Gf2Vec::from_u64(3, x);
                        f.value(&p) != f.value(&p.with_bit(i, !p.get(i)))
                    })
                })
                .collect();
            assert_eq!(f.support(), expected, "code {code}");
        }
    }

    #[test]
    fn project_to_support_preserves_semantics() {
        let f = BoolFn::from_truth_fn(5, |x| ((x >> 1) & (x >> 3)) & 1 == 1);
        let (g, vars) = f.project_to_support();
        assert_eq!(vars, vec![1, 3]);
        for x in 0..32u64 {
            let p = Gf2Vec::from_u64(5, x);
            let mut q = Gf2Vec::zeros(2);
            q.set(0, p.get(1));
            q.set(1, p.get(3));
            assert_eq!(f.is_on(&p), g.is_on(&q), "x={x}");
        }
    }

    #[test]
    fn project_full_support_is_identity() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let (g, vars) = f.project_to_support();
        assert_eq!(vars, vec![0, 1, 2]);
        assert_eq!(g, f);
    }

    #[test]
    fn cofactor_slice_selects_and_fixes() {
        // f(x0,x1,x2) = x0 AND x2; slice to (x0, x2) with x1 fixed to 1.
        let f = BoolFn::from_truth_fn(3, |x| x & 0b101 == 0b101);
        let g = f.cofactor_slice(&[0, 2], &p("010"));
        assert_eq!(g.num_vars(), 2);
        assert!(g.is_on(&p("11")));
        assert!(!g.is_on(&p("10")));
        assert_eq!(g.on_set().len(), 1);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn cofactor_slice_rejects_duplicates() {
        let f = BoolFn::from_indices(3, &[]);
        let _ = f.cofactor_slice(&[1, 1], &p("000"));
    }

    #[test]
    fn debug_is_informative() {
        let f = BoolFn::from_indices(3, &[1]);
        assert_eq!(format!("{f:?}"), "BoolFn(n=3, |on|=1, |dc|=0)");
    }
}
