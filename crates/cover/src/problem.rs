//! The covering problem and solution types.

use std::fmt;

use crate::BitSet;

/// A weighted set-covering instance.
///
/// Rows are the elements to cover (for logic minimization: ON-set
/// minterms); columns are candidate sets (implicants or pseudoproducts),
/// each with a positive cost (literal count).
///
/// # Examples
///
/// ```
/// use spp_cover::CoverProblem;
///
/// let mut p = CoverProblem::new(2);
/// let c = p.add_column(&[0, 1], 3);
/// assert_eq!(c, 0);
/// assert!(p.is_cover(&[c]));
/// ```
#[derive(Clone, Debug)]
pub struct CoverProblem {
    num_rows: usize,
    columns: Vec<Column>,
}

#[derive(Clone, Debug)]
pub(crate) struct Column {
    pub(crate) rows: BitSet,
    pub(crate) cost: u64,
}

impl CoverProblem {
    /// Creates a problem with `num_rows` elements and no columns.
    #[must_use]
    pub fn new(num_rows: usize) -> Self {
        CoverProblem { num_rows, columns: Vec::new() }
    }

    /// Adds a column covering `rows` with the given `cost`; returns its
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range or `cost` is zero (zero-cost
    /// columns would make "minimum cost" degenerate).
    pub fn add_column(&mut self, rows: &[usize], cost: u64) -> usize {
        assert!(cost > 0, "column cost must be positive");
        self.columns.push(Column { rows: BitSet::from_indices(self.num_rows, rows), cost });
        self.columns.len() - 1
    }

    /// Builds and appends `count` columns in parallel, preserving index
    /// order: column `i` of the batch is `build(i)` (its covered rows and
    /// cost), exactly as if the columns had been added one by one with
    /// [`add_column`](Self::add_column). Returns the index of the first
    /// appended column.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range or any cost is zero.
    pub fn add_columns_par<F>(
        &mut self,
        parallelism: spp_par::Parallelism,
        count: usize,
        build: F,
    ) -> usize
    where
        F: Fn(usize) -> (Vec<usize>, u64) + Sync,
    {
        let first = self.columns.len();
        let num_rows = self.num_rows;
        let built = spp_par::par_map_indices(parallelism.threads(), count, |i| {
            let (rows, cost) = build(i);
            assert!(cost > 0, "column cost must be positive");
            Column { rows: BitSet::from_indices(num_rows, &rows), cost }
        });
        self.columns.extend(built);
        first
    }

    /// Adds a column from an already-built row set.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != self.num_rows()` or `cost` is zero.
    pub fn add_column_set(&mut self, rows: BitSet, cost: u64) -> usize {
        assert!(cost > 0, "column cost must be positive");
        assert_eq!(rows.len(), self.num_rows, "row set length mismatch");
        self.columns.push(Column { rows, cost });
        self.columns.len() - 1
    }

    /// The number of rows (elements).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The number of columns (candidate sets).
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The cost of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn cost(&self, c: usize) -> u64 {
        self.columns[c].cost
    }

    /// The row set of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn rows_of(&self, c: usize) -> &BitSet {
        &self.columns[c].rows
    }

    /// Whether `columns` covers every row.
    #[must_use]
    pub fn is_cover(&self, columns: &[usize]) -> bool {
        let mut covered = BitSet::new(self.num_rows);
        for &c in columns {
            covered.union_with(&self.columns[c].rows);
        }
        covered.count_ones() == self.num_rows
    }

    /// The total cost of a column selection.
    #[must_use]
    pub fn total_cost(&self, columns: &[usize]) -> u64 {
        columns.iter().map(|&c| self.columns[c].cost).sum()
    }

    /// A cheap estimate of the matrix's heap footprint in bytes: each
    /// column holds `⌈rows/64⌉` bit-set words plus fixed bookkeeping. Used
    /// to charge a [`spp_obs::ResourceGovernor`] for the covering matrix —
    /// an accounting hook, not an allocator measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let bytes_per_column = self.num_rows.div_ceil(64) as u64 * 8 + 48;
        self.columns.len() as u64 * bytes_per_column
    }

    /// Whether some rows cannot be covered by any column (such instances
    /// are infeasible).
    #[must_use]
    pub fn has_uncoverable_row(&self) -> bool {
        let mut covered = BitSet::new(self.num_rows);
        for col in &self.columns {
            covered.union_with(&col.rows);
        }
        covered.count_ones() != self.num_rows
    }

    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }
}

/// A covering solution: the chosen columns and their total cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverSolution {
    /// Indices of selected columns, sorted.
    pub columns: Vec<usize>,
    /// Total cost of the selection.
    pub cost: u64,
    /// Whether the solver proved this selection optimal.
    pub optimal: bool,
}

impl fmt::Display for CoverSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cover of cost {} using {} columns{}",
            self.cost,
            self.columns.len(),
            if self.optimal { " (optimal)" } else { " (upper bound)" }
        )
    }
}

/// Resource budget for the covering solvers.
///
/// Non-exhaustive: build with [`Limits::default`] and the `with_*`
/// methods, so adding a knob is never a breaking change.
///
/// # Examples
///
/// ```
/// use spp_cover::Limits;
///
/// let limits = Limits::default()
///     .with_max_nodes(50_000)
///     .with_parallelism(spp_par::Parallelism::fixed(4));
/// assert_eq!(limits.max_nodes, 50_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Limits {
    /// Maximum branch & bound nodes explored before giving up on proving
    /// optimality (shared across all workers).
    pub max_nodes: u64,
    /// [`solve_auto`](crate::solve_auto) only attempts the exact solver when
    /// the instance has at most this many columns.
    pub max_exact_columns: usize,
    /// Worker-thread budget for the exact solver's root subtree fan-out.
    /// The returned cover is bit-identical at any setting; threads only
    /// change how fast the proof finishes.
    pub parallelism: spp_par::Parallelism,
}

impl Default for Limits {
    /// A budget suited to interactive use: 2 million nodes, exact
    /// solving up to 20 000 columns, sequential search (callers opt in to
    /// threads explicitly). The node cap is the only budget: wall time is
    /// bounded by the run's deadline (see
    /// [`solve_exact_ctx`](crate::solve_exact_ctx)), never here.
    fn default() -> Self {
        Limits {
            max_nodes: 2_000_000,
            max_exact_columns: 20_000,
            parallelism: spp_par::Parallelism::sequential(),
        }
    }
}

impl Limits {
    /// Sets the branch & bound node budget.
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets the column-count ceiling for attempting the exact solver.
    #[must_use]
    pub fn with_max_exact_columns(mut self, max_exact_columns: usize) -> Self {
        self.max_exact_columns = max_exact_columns;
        self
    }

    /// Sets the exact solver's worker-thread budget.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: spp_par::Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut p = CoverProblem::new(4);
        let a = p.add_column(&[0, 1], 2);
        let b = p.add_column(&[2, 3], 2);
        assert_eq!(p.num_rows(), 4);
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.cost(a), 2);
        assert!(p.rows_of(b).get(3));
        assert!(p.is_cover(&[a, b]));
        assert!(!p.is_cover(&[a]));
        assert_eq!(p.total_cost(&[a, b]), 4);
    }

    #[test]
    fn parallel_column_batch_matches_serial() {
        let rows_of = |i: usize| (vec![i % 5, (i * 3) % 5], i as u64 % 7 + 1);
        let mut serial = CoverProblem::new(5);
        for i in 0..33 {
            let (rows, cost) = rows_of(i);
            serial.add_column(&rows, cost);
        }
        for threads in [1usize, 2, 3, 8] {
            let mut par = CoverProblem::new(5);
            let first = par.add_columns_par(spp_par::Parallelism::fixed(threads), 33, rows_of);
            assert_eq!(first, 0);
            assert_eq!(par.num_columns(), serial.num_columns(), "threads={threads}");
            for c in 0..serial.num_columns() {
                assert_eq!(par.rows_of(c), serial.rows_of(c), "threads={threads} col={c}");
                assert_eq!(par.cost(c), serial.cost(c), "threads={threads} col={c}");
            }
        }
    }

    #[test]
    fn uncoverable_detection() {
        let mut p = CoverProblem::new(2);
        p.add_column(&[0], 1);
        assert!(p.has_uncoverable_row());
        p.add_column(&[1], 1);
        assert!(!p.has_uncoverable_row());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cost_rejected() {
        let mut p = CoverProblem::new(1);
        p.add_column(&[0], 0);
    }

    #[test]
    fn solution_display() {
        let s = CoverSolution { columns: vec![1, 2], cost: 5, optimal: true };
        assert!(s.to_string().contains("optimal"));
        let s = CoverSolution { columns: vec![], cost: 0, optimal: false };
        assert!(s.to_string().contains("upper bound"));
    }

    #[test]
    fn default_limits_are_sane() {
        let l = Limits::default();
        assert!(l.max_nodes > 0);
        assert!(l.max_exact_columns > 0);
        assert!(l.parallelism.is_sequential());
    }

    #[test]
    fn limit_builders_set_each_knob() {
        let l = Limits::default()
            .with_max_nodes(7)
            .with_max_exact_columns(9)
            .with_parallelism(spp_par::Parallelism::fixed(3));
        assert_eq!(l.max_nodes, 7);
        assert_eq!(l.max_exact_columns, 9);
        assert_eq!(l.parallelism.threads(), 3);
    }
}
