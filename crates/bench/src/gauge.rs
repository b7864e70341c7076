//! Host-speed gauge for the in-repo benches.
//!
//! On a shared host a core's speed drifts by tens of percent over
//! seconds to minutes, and every timed replay feels that drift in full.
//! The gauge is a fixed kernel that calls no code of the simulator —
//! an event queue, rate arithmetic with divisions, and scattered
//! updates of a table larger than a core's private caches — timed right
//! before and after every unit of measured work. A unit's wall time
//! divided by the mean of the two gauge times around it is its cost in
//! gauge units, which host drift moves far less than the wall time
//! itself; times [`REFERENCE_S`] it reads as seconds again.
//!
//! The kernel is the one `ovlp-benchmark/src/gauge.rs` runs (that
//! package cannot be a dependency of the workspace), so gauged times
//! from both harnesses share a unit. It must never change with the
//! simulator: a change that makes a replay slower then raises its
//! gauged time by the same factor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// A round figure near the gauge kernel's median time on a 2-thread
/// x86-64 host. It only sets the unit: gauged times are seconds on a
/// host whose gauge reads this.
pub const REFERENCE_S: f64 = 0.025;

/// Table the kernel scatters into: 8 MiB, beyond a core's own caches.
/// It is filled when the gauge is made, so it counts towards the
/// process's resident memory from then on.
const TABLE_WORDS: usize = 1 << 20;
const ITERATIONS: u64 = 250_000;

/// One unit of measured work.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time, in seconds.
    pub wall: f64,
    /// Wall time in gauge units, times [`REFERENCE_S`].
    pub gauged: f64,
}

pub struct Gauge {
    table: Vec<u64>,
    /// The latest gauge time: the "before" of the next unit.
    last: f64,
}

impl Gauge {
    /// A gauge with one sample taken, after an untimed warm-up run.
    pub fn new() -> Gauge {
        let mut g = Gauge {
            // non-zero, so every page is written now rather than on
            // first touch
            table: vec![1; TABLE_WORDS],
            last: 0.0,
        };
        black_box(kernel(&mut g.table, ITERATIONS));
        g.sample();
        g
    }

    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel(&mut self.table, ITERATIONS));
        self.last = t.elapsed().as_secs_f64();
        self.last
    }

    /// Run `work` between two gauge samples.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last;
        let t = Instant::now();
        let value = work();
        let wall = t.elapsed().as_secs_f64();
        let after = self.sample();
        let gauged = wall / ((before + after) / 2.0) * REFERENCE_S;
        (value, Timing { wall, gauged })
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// splitmix64 step.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed work the gauge times: a bounded timestamp queue, shares
/// rescaled through a division chain, and a read-modify-write of a
/// random table word per step. Returns a value that depends on all of
/// it, so none of it can be optimized away.
fn kernel(table: &mut [u64], iterations: u64) -> u64 {
    let mask = table.len() - 1;
    let mut queue = BinaryHeap::with_capacity(4_097);
    let mut shares = [1.0f64; 64];
    let mut x = 1u64;
    let mut acc = 0u64;
    for i in 0..iterations {
        let z = mix(&mut x);
        queue.push(Reverse(z >> 16));
        if queue.len() > 4_096 {
            acc ^= queue.pop().map_or(0, |Reverse(t)| t);
        }
        let k = (z & 63) as usize;
        shares[k] = 1.0 + shares[k] / (1.0 + shares[(k + 1) & 63]);
        let w = &mut table[(z >> 20) as usize & mask];
        *w = w.wrapping_add(i);
        acc = acc.wrapping_add(*w);
    }
    acc ^ shares.iter().map(|s| s.to_bits()).fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut a = vec![0; 1 << 10];
        let mut b = vec![0; 1 << 10];
        assert_eq!(kernel(&mut a, 5_000), kernel(&mut b, 5_000));
        assert_eq!(a, b);
    }

    #[test]
    fn gauged_time_scales_the_wall_time_by_the_gauge() {
        let mut g = Gauge::new();
        let before = g.last;
        let ((), t) = g.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t.wall >= 0.005, "{t:?}");
        let expect = t.wall / ((before + g.last) / 2.0) * REFERENCE_S;
        assert!((t.gauged - expect).abs() <= 1e-12 * expect, "{t:?}");
    }
}
