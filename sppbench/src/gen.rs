//! Seeded input generators for the three workloads. The program under
//! test only ever sees the PLA text these produce.

use spp_boolfn::BoolFn;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// A generator for item `index` of stream `seed`, independent of how
    /// many values earlier items drew.
    pub fn for_item(seed: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Renders a single-output function as `.type fd` PLA text: one row per
/// ON minterm (`1`) and per don't-care minterm (`-`).
pub fn render_pla(f: &BoolFn) -> String {
    let n = f.num_vars();
    let rows = f.on_set().len() + f.dc_set().len();
    let mut s = format!(".i {n}\n.o 1\n.type fd\n.p {rows}\n");
    for p in f.on_set() {
        s.push_str(&format!("{p} 1\n"));
    }
    for p in f.dc_set() {
        s.push_str(&format!("{p} -\n"));
    }
    s.push_str(".e\n");
    s
}

/// Which engine phase dominates a corpus function's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    Generation,
    Cover,
}

impl Bound {
    pub fn as_str(self) -> &'static str {
        match self {
            Bound::Generation => "generation",
            Bound::Cover => "cover",
        }
    }
}

/// The `cold-corpus` functions: registry circuit, output index, and the
/// phase that dominates its run. Half generation-bound, half
/// cover-bound; the cover half includes two node-capped searches
/// (`maj6`, `maj7`), which complete without proving optimality.
pub const CORPUS: &[(&str, usize, Bound)] = &[
    ("adr4", 1, Bound::Generation),
    ("adr4", 2, Bound::Generation),
    ("f51m", 1, Bound::Generation),
    ("par7", 0, Bound::Generation),
    ("newcond", 1, Bound::Generation),
    ("cmp4", 0, Bound::Cover),
    ("mlp4", 2, Bound::Cover),
    ("dist", 3, Bound::Cover),
    ("maj7", 0, Bound::Cover),
    ("maj6", 0, Bound::Cover),
];

/// One `cold-corpus` input.
#[derive(Clone, Debug)]
pub struct CorpusFn {
    pub name: String,
    pub bound: Bound,
    pub pla: String,
}

/// The corpus in the order the seed picks.
pub fn cold_corpus(seed: u64) -> Vec<CorpusFn> {
    let mut fns: Vec<CorpusFn> = CORPUS
        .iter()
        .map(|&(circuit, j, bound)| {
            let c = spp_benchgen::registry::circuit(circuit)
                .unwrap_or_else(|| panic!("registry circuit {circuit} is missing"));
            CorpusFn {
                name: format!("{circuit}({j})"),
                bound,
                pla: render_pla(c.output(j)),
            }
        })
        .collect();
    Rng::new(seed).shuffle(&mut fns);
    fns
}

/// Variables of every `serve-hot` function.
pub const SERVE_VARS: usize = 5;
/// Distinct functions in the `serve-hot` working set.
pub const HOT_KEYS: u64 = 32;

/// What a `serve-hot` request exercises on the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A repeat from the hot working set: a cache hit once warm.
    Hot,
    /// A function never sent before: a cold miss and a cache insert.
    Fresh,
    /// A hot function with one minterm flipped: the delta splice.
    Edit,
    /// A fresh function raced across all four forms.
    Portfolio,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Hot, Kind::Fresh, Kind::Edit, Kind::Portfolio];

    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Hot => "hot",
            Kind::Fresh => "fresh",
            Kind::Edit => "edit",
            Kind::Portfolio => "portfolio",
        }
    }
}

/// One `serve-hot` request: its kind and the truth table of its
/// 5-variable function (bit `m` = value at minterm `m`, where bit `i` of
/// `m` is variable `x<i>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeItem {
    pub kind: Kind,
    pub truth: u32,
}

fn nonzero(truth: u32) -> u32 {
    if truth == 0 {
        1
    } else {
        truth
    }
}

/// The hot working set: the first draws of a fixed stream, the same for
/// every seed, so a seed changes the request sequence but not the set
/// whose repeats make up most of the traffic.
pub fn hot_set() -> Vec<u32> {
    let mut rng = Rng::new(0x407);
    (0..HOT_KEYS).map(|_| nonzero(rng.next() as u32)).collect()
}

/// The `serve-hot` mix, in requests per [`MIX_OF`]: fresh functions,
/// one-minterm edits and portfolio races; the rest are hot repeats.
pub const MIX_OF: u64 = 1000;
pub const FRESH_PER: u64 = 10;
pub const EDIT_PER: u64 = 10;
pub const PORTFOLIO_PER: u64 = 5;

/// The `serve-hot` request stream of one seed: 97.5% hot repeats, 1%
/// fresh functions, 1% one-minterm edits of hot functions and 0.5%
/// portfolio races of fresh functions. The write path (misses, edits and
/// races) then takes about half of the daemon's CPU time, so doubling its
/// cost, or the hot path's, moves the requests served per CPU second by
/// about a third. The seed draws each request's kind, hot key and flipped
/// minterm; fresh functions are taken in order from one fixed stream, the
/// same for every seed (like the hot set), so a seed moves where the
/// misses fall but not which functions they are.
pub struct ServeStream {
    seed: u64,
    hot: Vec<u32>,
    index: u64,
    fresh: Rng,
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        ServeStream {
            seed,
            hot: hot_set(),
            index: 0,
            fresh: Rng::new(0xF2E5),
        }
    }
}

impl Iterator for ServeStream {
    type Item = ServeItem;

    fn next(&mut self) -> Option<ServeItem> {
        let mut rng = Rng::for_item(self.seed, self.index);
        self.index += 1;
        let roll = rng.below(MIX_OF);
        let key = self.hot[rng.below(self.hot.len() as u64) as usize];
        let (kind, truth) = if roll < FRESH_PER {
            (Kind::Fresh, nonzero(self.fresh.next() as u32))
        } else if roll < FRESH_PER + EDIT_PER {
            let flip = 1u32 << rng.below(1 << SERVE_VARS);
            (Kind::Edit, nonzero(key ^ flip))
        } else if roll < FRESH_PER + EDIT_PER + PORTFOLIO_PER {
            (Kind::Portfolio, nonzero(self.fresh.next() as u32))
        } else {
            (Kind::Hot, key)
        };
        Some(ServeItem { kind, truth })
    }
}

/// `.type fd` PLA text of a 5-variable truth table.
pub fn truth_pla(truth: u32) -> String {
    let n = SERVE_VARS;
    let mut s = format!(".i {n}\n.o 1\n.type fd\n");
    for m in 0..(1u32 << n) {
        if truth >> m & 1 == 1 {
            let row: String = (0..n)
                .map(|i| if m >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            s.push_str(&row);
            s.push_str(" 1\n");
        }
    }
    s.push_str(".e\n");
    s
}

/// The XOR-heavy 3-variable cores of `deadline-wide`, as truth tables
/// over `(a, b, c)` with `a` the low bit: a⊕b⊕c, a⊕b, (a⊕b)·c,
/// a⊕(b·c), ¬(a⊕b⊕c) and the majority for contrast.
pub const CORES: &[(&str, u8)] = &[
    ("a^b^c", 0x96),
    ("a^b", 0x66),
    ("(a^b)c", 0x60),
    ("a^bc", 0x6A),
    ("!(a^b^c)", 0x69),
    ("maj", 0xE8),
];

/// Input widths of `deadline-wide`.
pub const DEADLINE_WIDTHS: [usize; 4] = [9, 10, 11, 12];
/// Deadlines of `deadline-wide`, in milliseconds.
pub const DEADLINES_MS: [u64; 3] = [10, 100, 1000];

/// One `deadline-wide` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlineItem {
    pub name: String,
    pub vars: usize,
    pub deadline_ms: u64,
    pub pla: String,
}

/// The `deadline-wide` request list: every width × deadline pair once,
/// in the order the seed picks, with the core's three variables placed
/// among the padding where the seed picks. Each pair's core is fixed
/// (every core serves two pairs): which core meets which width moves the
/// overshoot median by a factor of two, so a seed-drawn core would
/// measure the draw rather than the program.
pub fn deadline_items(seed: u64) -> Vec<DeadlineItem> {
    let mut rng = Rng::new(seed ^ 0xDEAD);
    let mut items = Vec::new();
    for &n in &DEADLINE_WIDTHS {
        for &deadline_ms in &DEADLINES_MS {
            let (core, tt) = CORES[items.len() % CORES.len()];
            let mut vars: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut vars);
            let pos = [vars[0], vars[1], vars[2]];
            let mut pla = format!(".i {n}\n.o 1\n.type fd\n");
            for m in 0..8u8 {
                if tt >> m & 1 == 1 {
                    let mut row = vec!['-'; n];
                    for (bit, &p) in pos.iter().enumerate() {
                        row[p] = if m >> bit & 1 == 1 { '1' } else { '0' };
                    }
                    pla.extend(row);
                    pla.push_str(" 1\n");
                }
            }
            pla.push_str(".e\n");
            let name = format!(
                "{core}@{}/{n}v/{deadline_ms}ms",
                pos.map(|p| p.to_string()).join(",")
            );
            items.push(DeadlineItem {
                name,
                vars: n,
                deadline_ms,
                pla,
            });
        }
    }
    rng.shuffle(&mut items);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let names = |s| {
            cold_corpus(s)
                .into_iter()
                .map(|f| f.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(1), names(1));
        assert_ne!(names(1), names(2));
        // The corpus is a permutation of the fixed list.
        let mut sorted = names(1);
        sorted.sort();
        let mut fixed: Vec<String> = CORPUS.iter().map(|(c, j, _)| format!("{c}({j})")).collect();
        fixed.sort();
        assert_eq!(sorted, fixed);

        let stream = |s| ServeStream::new(s).take(20_000).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert!(Kind::ALL
            .iter()
            .all(|k| stream(7).iter().any(|it| it.kind == *k)));

        assert_eq!(deadline_items(3), deadline_items(3));
        assert_ne!(deadline_items(3), deadline_items(4));
        assert_eq!(
            deadline_items(3).len(),
            DEADLINE_WIDTHS.len() * DEADLINES_MS.len()
        );
    }

    #[test]
    fn rendered_plas_parse_back_to_the_same_function() {
        let c = spp_benchgen::registry::circuit("cmp4").unwrap();
        let back = spp_core::parse_pla(&render_pla(c.output(0)))
            .unwrap()
            .output_fn(0);
        assert_eq!(back.on_set().len(), c.output(0).on_set().len());
        let f = spp_core::parse_pla(&truth_pla(0b1011))
            .unwrap()
            .output_fn(0);
        assert_eq!(f.on_set().len(), 3);
        for item in deadline_items(1) {
            let f = spp_core::parse_pla(&item.pla).unwrap().output_fn(0);
            assert_eq!(f.num_vars(), item.vars);
        }
    }
}
