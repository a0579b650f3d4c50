//! CPU steal: time the hypervisor ran other guests while this host's
//! virtual CPUs were ready to run. On a shared machine it comes and goes
//! in stretches of seconds to minutes and inflates every wall-clock
//! figure taken meanwhile, so each timed unit (a call, a pass, a segment
//! of requests) records the steal share of its interval, and the figures
//! are taken from units with little steal.

/// A unit whose interval saw at most this share of steal is always kept.
pub const STEAL_LIMIT: f64 = 0.03;

/// Cumulative CPU time over all CPUs, in clock ticks: (total, steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let first = fields.get(..8)?;
    Some((first.iter().sum(), first[7]))
}

/// A running steal measurement.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter { start: cpu_ticks() }
    }

    /// The steal share of the CPU time since [`StealMeter::start`]; 0 where
    /// the kernel does not report steal, or when no tick has passed.
    pub fn share(&self) -> f64 {
        match (self.start, cpu_ticks()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// The values of the quieter units: every unit whose steal share is at
/// most [`STEAL_LIMIT`] or at most the median share, so at least half of
/// the units are always kept.
pub fn quiet(units: &[(f64, f64)]) -> Vec<f64> {
    let steals: Vec<f64> = units.iter().map(|u| u.1).collect();
    let cut = STEAL_LIMIT.max(crate::stats::median(&steals));
    units.iter().filter(|u| u.1 <= cut).map(|u| u.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_units_are_kept_and_at_least_half_remain() {
        assert_eq!(
            quiet(&[(1.0, 0.0), (9.0, 0.2), (2.0, 0.01)]),
            vec![1.0, 2.0]
        );
        assert_eq!(quiet(&[(9.0, 0.2), (5.0, 0.1)]), vec![5.0]);
        assert!(quiet(&[]).is_empty());
        let meter = StealMeter::start();
        assert!((0.0..=1.0).contains(&meter.share()));
    }
}
