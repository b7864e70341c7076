//! Network resource accounting: global buses and per-node ports.
//!
//! Dimemas bounds network concurrency two ways: a global bus count (how
//! many messages may be in flight anywhere in the network — the knob
//! Table I calibrates per application) and per-node input/output port
//! counts (each processor's injection/extraction concurrency). A
//! transfer must hold one unit of all three (sender output port,
//! receiver input port, one bus) for its whole duration.
//!
//! A transfer that cannot start is told which resource stopped it (its
//! [`Unit`]) and waits in that resource's `WaitLists` entry; a
//! release re-examines only the released resources' waiters.
//!
//! Releases are checked: releasing more than was acquired means the
//! engine's accounting is corrupt, and that is reported as a hard
//! error in every build profile (not just a `debug_assert!`), surfacing
//! through the replay error path as
//! [`SimError::Accounting`](crate::replay::SimError::Accounting).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The shared pool a network transfer draws its third unit from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The machine-local global buses.
    Bus,
    /// The inter-machine (WAN) links.
    Wan,
}

/// One resource a transfer needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A unit of a shared pool.
    Pool(Pool),
    /// An output port of the given endpoint.
    Out(usize),
    /// An input port of the given endpoint.
    In(usize),
}

/// Resource pool for one simulation.
#[derive(Debug, Clone)]
pub struct Resources {
    bus_cap: u32,
    bus_used: u32,
    out_cap: u32,
    in_cap: u32,
    out_used: Vec<u32>,
    in_used: Vec<u32>,
    wan_cap: u32,
    wan_used: u32,
    ports_busy: u32,
}

impl Resources {
    /// `buses == 0` means unlimited buses.
    pub fn new(nranks: usize, buses: u32, input_ports: u32, output_ports: u32) -> Resources {
        Resources::with_wan(nranks, buses, input_ports, output_ports, 0)
    }

    /// Pool with an inter-machine link limit (`wan_links == 0` means
    /// unlimited).
    pub fn with_wan(
        nranks: usize,
        buses: u32,
        input_ports: u32,
        output_ports: u32,
        wan_links: u32,
    ) -> Resources {
        assert!(input_ports > 0 && output_ports > 0, "ports must be >= 1");
        Resources {
            bus_cap: buses,
            bus_used: 0,
            out_cap: output_ports,
            in_cap: input_ports,
            out_used: vec![0; nranks],
            in_used: vec![0; nranks],
            wan_cap: wan_links,
            wan_used: 0,
            ports_busy: 0,
        }
    }

    /// `(used, cap)` of a shared pool (`cap == 0` means unlimited).
    fn pool(&mut self, pool: Pool) -> (&mut u32, u32) {
        match pool {
            Pool::Bus => (&mut self.bus_used, self.bus_cap),
            Pool::Wan => (&mut self.wan_used, self.wan_cap),
        }
    }

    /// Whether one more unit of `unit` could be acquired right now.
    pub fn has_spare(&self, unit: Unit) -> bool {
        match unit {
            Unit::Pool(Pool::Bus) => self.bus_cap == 0 || self.bus_used < self.bus_cap,
            Unit::Pool(Pool::Wan) => self.wan_cap == 0 || self.wan_used < self.wan_cap,
            Unit::Out(e) => self.out_used[e] < self.out_cap,
            Unit::In(e) => self.in_used[e] < self.in_cap,
        }
    }

    /// Atomically acquire (sender out port, receiver in port, one unit
    /// of `pool`). If any is exhausted, acquires nothing and names the
    /// first exhausted one, ports before the pool: a port is contended
    /// by one endpoint's traffic, the pool by everyone's, so a transfer
    /// blocked on both waits where fewer others wait.
    pub fn try_acquire(&mut self, pool: Pool, src: usize, dst: usize) -> Result<(), Unit> {
        let (out, inp) = (self.out_used[src], self.in_used[dst]);
        if out >= self.out_cap {
            return Err(Unit::Out(src));
        }
        if inp >= self.in_cap {
            return Err(Unit::In(dst));
        }
        let (used, cap) = self.pool(pool);
        if cap != 0 && *used >= cap {
            return Err(Unit::Pool(pool));
        }
        *used += 1;
        self.out_used[src] = out + 1;
        self.in_used[dst] = inp + 1;
        self.ports_busy += 2;
        Ok(())
    }

    /// Release the triple acquired by [`Resources::try_acquire`].
    /// Errors on underflow (a release without a matching acquire).
    pub fn release(&mut self, pool: Pool, src: usize, dst: usize) -> Result<(), String> {
        if *self.pool(pool).0 == 0 {
            let name = match pool {
                Pool::Bus => "bus",
                Pool::Wan => "wan",
            };
            return Err(format!("{name} release underflow ({src} -> {dst})"));
        }
        if self.out_used[src] == 0 {
            return Err(format!("out port release underflow at endpoint {src}"));
        }
        if self.in_used[dst] == 0 {
            return Err(format!("in port release underflow at endpoint {dst}"));
        }
        *self.pool(pool).0 -= 1;
        self.out_used[src] -= 1;
        self.in_used[dst] -= 1;
        self.ports_busy -= 2;
        Ok(())
    }

    /// Buses currently in use (for occupancy statistics).
    pub fn buses_in_use(&self) -> u32 {
        self.bus_used
    }

    /// Port units currently held across all endpoints (each in-flight
    /// transfer holds one output and one input port).
    pub fn ports_in_use(&self) -> u32 {
        self.ports_busy
    }
}

/// Min-heap of `(seq, id)` waiters.
type Waiters = BinaryHeap<Reverse<(u64, usize)>>;

/// Blocked transfers, each parked on the one [`Unit`] it failed to get,
/// ordered within a unit by a caller-chosen sequence number.
///
/// The replay engine keeps one invariant over these lists: between
/// engine steps, every unit with waiters has no spare capacity. A
/// parked transfer is therefore certainly blocked, and only a release
/// of its unit can unblock it — which is what lets a release look at
/// the released units' waiters instead of every blocked transfer.
#[derive(Debug, Default)]
pub(crate) struct WaitLists {
    bus: Waiters,
    wan: Waiters,
    out: Vec<Waiters>,
    inp: Vec<Waiters>,
    parked: usize,
    peak: usize,
}

impl WaitLists {
    /// Empty every list for a replay of `nranks` endpoints and zero the
    /// high-water mark, keeping the lists' storage.
    pub(crate) fn reset(&mut self, nranks: usize) {
        self.bus.clear();
        self.wan.clear();
        for lists in [&mut self.out, &mut self.inp] {
            lists.truncate(nranks);
            lists.iter_mut().for_each(Waiters::clear);
            lists.resize_with(nranks, Waiters::new);
        }
        self.parked = 0;
        self.peak = 0;
    }

    fn list(&mut self, unit: Unit) -> &mut Waiters {
        match unit {
            Unit::Pool(Pool::Bus) => &mut self.bus,
            Unit::Pool(Pool::Wan) => &mut self.wan,
            Unit::Out(e) => &mut self.out[e],
            Unit::In(e) => &mut self.inp[e],
        }
    }

    /// Park `id` on `unit` with sequence number `seq`.
    pub(crate) fn park(&mut self, unit: Unit, seq: u64, id: usize) {
        self.list(unit).push(Reverse((seq, id)));
        self.parked += 1;
        self.peak = self.peak.max(self.parked);
    }

    /// The smallest sequence number waiting on `unit`.
    pub(crate) fn first(&mut self, unit: Unit) -> Option<u64> {
        self.list(unit).peek().map(|Reverse((seq, _))| *seq)
    }

    /// Unpark the waiter with the smallest sequence number on `unit`.
    pub(crate) fn pop(&mut self, unit: Unit) -> Option<usize> {
        let Reverse((_, id)) = self.list(unit).pop()?;
        self.parked -= 1;
        Some(id)
    }

    /// High-water mark of transfers parked at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_limit_enforced() {
        let mut r = Resources::new(4, 2, 4, 4);
        assert!(r.try_acquire(Pool::Bus, 0, 1).is_ok());
        assert!(r.try_acquire(Pool::Bus, 2, 3).is_ok());
        // third concurrent transfer exceeds the 2-bus limit
        assert_eq!(r.try_acquire(Pool::Bus, 1, 0), Err(Unit::Pool(Pool::Bus)));
        assert!(!r.has_spare(Unit::Pool(Pool::Bus)));
        r.release(Pool::Bus, 0, 1).unwrap();
        assert!(r.try_acquire(Pool::Bus, 1, 0).is_ok());
    }

    #[test]
    fn zero_buses_means_unlimited() {
        let mut r = Resources::new(8, 0, 8, 8);
        for i in 0..4 {
            assert!(r.try_acquire(Pool::Bus, i, i + 4).is_ok());
        }
        assert_eq!(r.buses_in_use(), 4);
        assert!(r.has_spare(Unit::Pool(Pool::Bus)));
    }

    #[test]
    fn port_limits_enforced_and_named() {
        let mut r = Resources::new(4, 0, 1, 1);
        assert!(r.try_acquire(Pool::Bus, 0, 1).is_ok());
        // node 0's single output port is busy
        assert_eq!(r.try_acquire(Pool::Bus, 0, 2), Err(Unit::Out(0)));
        // node 1's single input port is busy
        assert_eq!(r.try_acquire(Pool::Bus, 2, 1), Err(Unit::In(1)));
        // unrelated pair is fine
        assert!(r.try_acquire(Pool::Bus, 2, 3).is_ok());
        r.release(Pool::Bus, 0, 1).unwrap();
        assert!(r.has_spare(Unit::Out(0)) && r.has_spare(Unit::In(1)));
        assert!(r.try_acquire(Pool::Bus, 0, 2).is_ok());
    }

    #[test]
    fn ports_are_named_before_the_pool() {
        let mut r = Resources::with_wan(4, 1, 1, 1, 1);
        assert!(r.try_acquire(Pool::Wan, 0, 1).is_ok());
        assert_eq!(r.try_acquire(Pool::Wan, 0, 2), Err(Unit::Out(0)));
        assert_eq!(r.try_acquire(Pool::Wan, 2, 3), Err(Unit::Pool(Pool::Wan)));
        // the bus pool is separate from the WAN pool
        assert!(r.try_acquire(Pool::Bus, 2, 3).is_ok());
    }

    #[test]
    fn failed_acquire_acquires_nothing() {
        let mut r = Resources::new(2, 1, 1, 1);
        assert!(r.try_acquire(Pool::Bus, 0, 1).is_ok());
        assert!(r.try_acquire(Pool::Bus, 1, 0).is_err()); // bus exhausted
        r.release(Pool::Bus, 0, 1).unwrap();
        // if the failed acquire had leaked anything this would fail
        assert!(r.try_acquire(Pool::Bus, 1, 0).is_ok());
        r.release(Pool::Bus, 1, 0).unwrap();
        assert_eq!(r.buses_in_use(), 0);
        assert_eq!(r.ports_in_use(), 0);
    }

    #[test]
    fn release_underflow_is_a_hard_error() {
        let mut r = Resources::new(2, 0, 1, 1);
        assert!(r.release(Pool::Bus, 0, 1).is_err(), "nothing acquired yet");
        assert!(r.release(Pool::Wan, 0, 1).is_err());
        assert!(r.try_acquire(Pool::Bus, 0, 1).is_ok());
        // releasing the wrong endpoint pair underflows that endpoint
        let err = r.release(Pool::Bus, 1, 0).unwrap_err();
        assert!(err.contains("underflow"), "{err}");
        // the correct release still succeeds afterwards
        r.release(Pool::Bus, 0, 1).unwrap();
        assert!(r.release(Pool::Bus, 0, 1).is_err(), "double release");
    }

    #[test]
    fn wait_lists_pop_in_sequence_order_per_unit() {
        let mut w = WaitLists::default();
        w.reset(2);
        w.park(Unit::Out(1), 7, 70);
        w.park(Unit::Out(1), 3, 30);
        w.park(Unit::Pool(Pool::Bus), 5, 50);
        w.park(Unit::Out(1), 9, 90);
        assert_eq!(w.peak(), 4);
        assert_eq!(w.first(Unit::Out(1)), Some(3));
        assert_eq!(w.first(Unit::In(1)), None);
        assert_eq!(w.pop(Unit::Out(1)), Some(30));
        assert_eq!(w.pop(Unit::Out(1)), Some(70));
        assert_eq!(w.pop(Unit::Pool(Pool::Bus)), Some(50));
        assert_eq!(w.pop(Unit::Pool(Pool::Bus)), None);
        assert_eq!(w.pop(Unit::Out(1)), Some(90));
        assert_eq!(w.peak(), 4, "draining must not lower the mark");
    }
}
