//! Product terms (cubes) in positional notation.

use std::fmt;
use std::str::FromStr;

use spp_gf2::Gf2Vec;

use crate::ParseCubeError;

/// A product term (cube) over `B^n`.
///
/// A cube binds some variables to fixed values and leaves the rest free:
/// positionally, `01-0-` is the product `x̄_0 · x_1 · x̄_3`. Internally a
/// cube is a pair of bit-vectors: `mask` (1 = bound variable) and `values`
/// (the bound values, zero at free positions).
///
/// In the SPP view a cube is the special pseudocube whose EXOR factors are
/// single literals; [`Cube::literal_count`] is the cost the paper assigns to
/// an implicant.
///
/// # Examples
///
/// ```
/// use spp_boolfn::Cube;
///
/// let c: Cube = "01-0-".parse()?;
/// assert_eq!(c.literal_count(), 3);
/// assert_eq!(c.degree(), 2);
/// assert_eq!(c.points().count(), 4);
/// # Ok::<(), spp_boolfn::ParseCubeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    mask: Gf2Vec,
    values: Gf2Vec,
}

impl Cube {
    /// The cube covering the whole space `B^n` (no bound variables).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`spp_gf2::MAX_BITS`].
    #[must_use]
    pub fn full_space(n: usize) -> Self {
        Cube { mask: Gf2Vec::zeros(n), values: Gf2Vec::zeros(n) }
    }

    /// The minterm cube containing exactly `point`.
    #[must_use]
    pub fn from_point(point: Gf2Vec) -> Self {
        Cube { mask: Gf2Vec::ones(point.len()), values: point }
    }

    /// Builds a cube from a mask of bound positions and their values.
    ///
    /// Value bits at free positions are ignored (cleared).
    ///
    /// # Panics
    ///
    /// Panics if `mask` and `values` have different lengths.
    #[must_use]
    pub fn new(mask: Gf2Vec, values: Gf2Vec) -> Self {
        Cube { mask, values: values & mask }
    }

    /// Lifts a cube over the variables `vars` (variable `j` of `self` is
    /// input `vars[j]`) into `B^n`, leaving every other input free: the
    /// inverse of [`BoolFn::project_to_support`](crate::BoolFn::project_to_support)
    /// for cubes. The literal count is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() != self.num_vars()` or a variable is out of
    /// range.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::Cube;
    ///
    /// let c: Cube = "10".parse()?;
    /// assert_eq!(c.lift(4, &[1, 3]).to_string(), "-1-0");
    /// # Ok::<(), spp_boolfn::ParseCubeError>(())
    /// ```
    #[must_use]
    pub fn lift(&self, n: usize, vars: &[usize]) -> Cube {
        Cube::new(self.mask.scatter(n, vars), self.values.scatter(n, vars))
    }

    /// The number of variables of the ambient space.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.mask.len()
    }

    /// The mask of bound (care) positions.
    #[must_use]
    pub fn mask(&self) -> Gf2Vec {
        self.mask
    }

    /// The bound values (zero at free positions).
    #[must_use]
    pub fn values(&self) -> Gf2Vec {
        self.values
    }

    /// The number of literals in the product term.
    #[must_use]
    pub fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// The degree (number of free variables); the cube covers `2^degree`
    /// points.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.num_vars() - self.literal_count() as usize
    }

    /// Whether `point` lies in the cube.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn contains_point(&self, point: &Gf2Vec) -> bool {
        (*point ^ self.values) & self.mask == Gf2Vec::zeros(self.num_vars())
    }

    /// Whether every point of `other` lies in `self`.
    ///
    /// # Panics
    ///
    /// Panics if the cubes live in different spaces.
    #[must_use]
    pub fn contains_cube(&self, other: &Cube) -> bool {
        self.mask.is_subset_of(&other.mask)
            && (self.values ^ other.values) & self.mask == Gf2Vec::zeros(self.num_vars())
    }

    /// Whether the two cubes share at least one point.
    ///
    /// # Panics
    ///
    /// Panics if the cubes live in different spaces.
    #[must_use]
    pub fn intersects(&self, other: &Cube) -> bool {
        let common = self.mask & other.mask;
        (self.values ^ other.values) & common == Gf2Vec::zeros(self.num_vars())
    }

    /// The Quine–McCluskey merge: if the cubes bind the same variables and
    /// differ in exactly one value, returns the cube with that variable
    /// freed; otherwise `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::Cube;
    ///
    /// let a: Cube = "110".parse()?;
    /// let b: Cube = "100".parse()?;
    /// assert_eq!(a.merge(&b), Some("1-0".parse()?));
    /// # Ok::<(), spp_boolfn::ParseCubeError>(())
    /// ```
    #[must_use]
    pub fn merge(&self, other: &Cube) -> Option<Cube> {
        if self.mask != other.mask {
            return None;
        }
        let diff = self.values ^ other.values;
        if diff.count_ones() != 1 {
            return None;
        }
        let i = diff.lowest_set_bit().expect("one bit set");
        let mask = self.mask.with_bit(i, false);
        Some(Cube { mask, values: self.values & mask })
    }

    /// Iterates over the points of the cube in Gray-code order.
    ///
    /// # Panics
    ///
    /// Panics if the cube has more than 63 free variables.
    #[must_use]
    pub fn points(&self) -> CubePoints {
        assert!(self.degree() <= 63, "cube of degree {} is too large to enumerate", self.degree());
        let free: Vec<usize> = (0..self.num_vars()).filter(|&i| !self.mask.get(i)).collect();
        CubePoints { free, current: self.values, index: 0 }
    }
}

impl FromStr for Cube {
    type Err = ParseCubeError;

    /// Parses positional notation: `'0'`, `'1'`, `'-'` (or `'x'`/`'X'` /
    /// `'2'` as synonyms for don't-care), one character per variable.
    fn from_str(s: &str) -> Result<Self, ParseCubeError> {
        if s.len() > spp_gf2::MAX_BITS {
            return Err(ParseCubeError::TooLong { len: s.len() });
        }
        let mut mask = Gf2Vec::zeros(s.len());
        let mut values = Gf2Vec::zeros(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => mask.set(i, true),
                '1' => {
                    mask.set(i, true);
                    values.set(i, true);
                }
                '-' | 'x' | 'X' | '2' => {}
                _ => return Err(ParseCubeError::BadChar { position: i, found: c }),
            }
        }
        Ok(Cube { mask, values })
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.num_vars() {
            let c = if !self.mask.get(i) {
                '-'
            } else if self.values.get(i) {
                '1'
            } else {
                '0'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

/// Iterator over the points of a [`Cube`], produced by [`Cube::points`].
#[derive(Clone, Debug)]
pub struct CubePoints {
    free: Vec<usize>,
    current: Gf2Vec,
    index: u64,
}

impl Iterator for CubePoints {
    type Item = Gf2Vec;

    fn next(&mut self) -> Option<Gf2Vec> {
        let total = 1u64 << self.free.len();
        if self.index >= total {
            return None;
        }
        let out = self.current;
        self.index += 1;
        if self.index < total {
            let gray_prev = (self.index - 1) ^ ((self.index - 1) >> 1);
            let gray_next = self.index ^ (self.index >> 1);
            let flip = (gray_prev ^ gray_next).trailing_zeros() as usize;
            self.current.flip(self.free[flip]);
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = ((1u64 << self.free.len()) - self.index) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CubePoints {}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cube {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["01-0-", "---", "000", "1", "-"] {
            assert_eq!(c(s).to_string(), s);
        }
        assert_eq!(c("x1X2").to_string(), "-1--");
    }

    #[test]
    fn parse_rejects_bad_chars() {
        assert!(matches!(
            "01a".parse::<Cube>(),
            Err(ParseCubeError::BadChar { position: 2, found: 'a' })
        ));
    }

    #[test]
    fn literal_count_and_degree() {
        let cube = c("01-0-");
        assert_eq!(cube.literal_count(), 3);
        assert_eq!(cube.degree(), 2);
        assert_eq!(Cube::full_space(5).degree(), 5);
        assert_eq!(Cube::from_point(p("101")).degree(), 0);
    }

    #[test]
    fn contains_point_checks_bound_positions() {
        let cube = c("1-0");
        assert!(cube.contains_point(&p("100")));
        assert!(cube.contains_point(&p("110")));
        assert!(!cube.contains_point(&p("101")));
        assert!(!cube.contains_point(&p("000")));
    }

    #[test]
    fn containment_between_cubes() {
        assert!(c("1--").contains_cube(&c("1-0")));
        assert!(!c("1-0").contains_cube(&c("1--")));
        assert!(c("---").contains_cube(&c("010")));
        assert!(c("1-0").contains_cube(&c("1-0")));
        assert!(!c("1-0").contains_cube(&c("0-0")));
    }

    #[test]
    fn intersection_test() {
        assert!(c("1--").intersects(&c("--1")));
        assert!(!c("1--").intersects(&c("0--")));
        assert!(c("1-0").intersects(&c("110")));
    }

    #[test]
    fn qm_merge() {
        assert_eq!(c("110").merge(&c("100")), Some(c("1-0")));
        assert_eq!(c("110").merge(&c("101")), None); // two bits differ
        assert_eq!(c("11-").merge(&c("10-")), Some(c("1--")));
        assert_eq!(c("11-").merge(&c("100")), None); // different masks
        assert_eq!(c("110").merge(&c("110")), None); // identical
    }

    #[test]
    fn merged_cube_covers_both() {
        let a = c("110");
        let b = c("100");
        let m = a.merge(&b).unwrap();
        assert!(m.contains_cube(&a));
        assert!(m.contains_cube(&b));
    }

    #[test]
    fn points_enumerates_exactly() {
        let cube = c("1--0");
        let pts: Vec<_> = cube.points().collect();
        assert_eq!(pts.len(), 4);
        let mut sorted = pts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        for point in &pts {
            assert!(cube.contains_point(point));
        }
    }

    #[test]
    fn points_of_minterm() {
        let pts: Vec<_> = c("010").points().collect();
        assert_eq!(pts, vec![p("010")]);
    }

    #[test]
    fn new_clears_free_value_bits() {
        let cube = Cube::new(p("10"), p("11"));
        assert_eq!(cube.to_string(), "1-");
        assert_eq!(cube, c("1-"));
    }

    #[test]
    fn debug_nonempty() {
        assert_eq!(format!("{:?}", c("0-1")), "Cube(0-1)");
    }
}
