//! What the host took from this machine while a phase ran.
//!
//! The reference box is a microVM on a shared host. `/proc/stat` counts, in
//! the `steal` column, the time a virtual CPU was ready to run and the host
//! ran something else instead. That is the host's own account of how much
//! it disturbed a phase, and it does not depend on the program measured.

use std::time::{Duration, Instant};

/// Steal share above which a timed phase counts as disturbed. Measured on
/// the reference box over 88 runs: a phase the host left alone shows under
/// 3 %; phases at 10 % and more read 15-40 % slow and made the ten-run
/// quartile spread of `closed_qps` and `lat_p50_ms` exceed their bounds.
pub const DISTURBED: f64 = 0.10;
/// Steal share of the spin probe below which the host counts as quiet again.
const QUIET: f64 = 0.03;
/// Longest wait for a quiet host before measuring again.
const MAX_WAIT: Duration = Duration::from_secs(10);

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq: time something ran here.
    busy: u64,
    steal: u64,
}

impl CpuTimes {
    /// `None` where there is no `/proc/stat` or no steal column.
    pub fn read() -> Option<CpuTimes> {
        parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Of the CPU time wanted since `earlier`, the share the host took.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal);
        let wanted = self.busy.saturating_sub(earlier.busy) + steal;
        if wanted == 0 {
            0.0
        } else {
            steal as f64 / wanted as f64
        }
    }
}

fn parse(stat: &str) -> Option<CpuTimes> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] = fields[..] else {
        return None;
    };
    Some(CpuTimes {
        busy: user + nice + system + irq + softirq,
        steal,
    })
}

/// Steal share from `earlier` to now; 0 where the host does not say.
pub fn steal_share_since(earlier: Option<CpuTimes>) -> f64 {
    match (earlier, CpuTimes::read()) {
        (Some(a), Some(b)) => b.steal_share_since(&a),
        _ => 0.0,
    }
}

/// Steal only shows while something wants the CPU: spin on every CPU for
/// half a second (the bursts come seconds apart, and a shorter probe often
/// fell between two) and see what share of it the host took.
fn probe() -> f64 {
    let before = CpuTimes::read();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let until = Instant::now() + Duration::from_millis(500);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
    steal_share_since(before)
}

/// Wait, at most [`MAX_WAIT`], until a probe finds the host quiet.
/// Returns how long that took.
pub fn wait_until_quiet() -> Duration {
    let start = Instant::now();
    while probe() > QUIET && start.elapsed() < MAX_WAIT {
        std::thread::sleep(Duration::from_secs(1));
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_wanted() {
        let a = parse("cpu  100 0 50 1000 5 0 10 40 0 0\ncpu0 1 2 3\n").unwrap();
        let b = parse("cpu  160 0 70 2000 9 0 20 70 0 0\n").unwrap();
        // 60 + 20 + 10 ticks ran, 30 were stolen: 30 of 120 wanted.
        assert_eq!(b.steal_share_since(&a), 0.25);
        // Idle and iowait count for neither side.
        assert_eq!(a.steal_share_since(&a), 0.0);
        // A kernel without the steal column gives no reading.
        assert_eq!(parse("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse("intr 1 2 3\n"), None);
    }
}
