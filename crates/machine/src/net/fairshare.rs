//! Progressive-filling max-min fair bandwidth allocation.
//!
//! Given the set of active flows (each a list of links it crosses) and
//! the per-link capacities, water-fill: raise every unfrozen flow's rate
//! uniformly until some link saturates, freeze the flows crossing that
//! link at their current rate, subtract their share from the remaining
//! links, repeat. The result is the unique max-min fair allocation.
//!
//! Three implementations share the algorithm:
//!
//! * [`max_min_rates`] — the from-scratch reference: allocates its own
//!   working vectors and scans *every* link each round. O(links ×
//!   flows) per bottleneck round and trivially auditable; the replay
//!   engine keeps it as the debug oracle and as the
//!   `simulate_reference` validation path.
//! * [`max_min_rates_active`] — the general production solver: reuses
//!   a [`SolveScratch`], takes paths through an accessor (no
//!   intermediate `Vec<&[LinkId]>` collect), and scans only the
//!   caller-maintained set of links currently carrying flows instead of
//!   the whole graph. It still solves every active flow, whichever
//!   arrival or departure triggered the reshare. Zero allocations after
//!   warm-up.
//! * [`chain_rates`] — the link-disjoint case, where no link carries two
//!   flows: the whole water-fill collapses onto the sorted distinct
//!   bottleneck capacities (see its docs), so the caller solves in
//!   O(classes²) without touching a single flow or link.
//!
//! All three are bit-identical by construction, not merely
//! approximately equal. For the active-set solver: a link with no
//! unfrozen flows contributes nothing to any round's increment and is
//! never written, so restricting every scan to the active-link superset
//! performs exactly the same float operations in an order whose
//! variation cannot change the result (a `min` over floats and
//! independent per-link/per-flow updates). The debug build asserts this
//! equivalence on every reshare, and the `proptest` suite checks it on
//! randomized arrival/departure sequences.

use super::topology::LinkId;

/// Reusable working memory for [`max_min_rates_active`].
///
/// `residual` and `load` are full-size per-link tables whose entries
/// are only (re-)initialized for the links named in the solve's
/// `active_links`; entries for other links hold stale values from
/// earlier solves and are never read.
#[derive(Debug, Default)]
pub(crate) struct SolveScratch {
    residual: Vec<f64>,
    load: Vec<u32>,
    unfrozen: Vec<u32>,
    still: Vec<u32>,
}

impl SolveScratch {
    pub(crate) fn new(nlinks: usize) -> SolveScratch {
        SolveScratch {
            residual: vec![0.0; nlinks],
            load: vec![0; nlinks],
            unfrozen: Vec::new(),
            still: Vec::new(),
        }
    }
}

/// Max-min fair rates for `n` flows whose paths are produced by
/// `path_of`, written into `out` (cleared first; `out[i]` is flow `i`'s
/// rate in bytes/s).
///
/// `active_links` must contain every link crossed by at least one of
/// the `n` flows (a superset is fine). Bit-identical to
/// [`max_min_rates`] over the same flows — see the module docs for why.
pub(crate) fn max_min_rates_active<'a, F>(
    n: usize,
    path_of: F,
    caps: &[f64],
    active_links: &[u32],
    s: &mut SolveScratch,
    out: &mut Vec<f64>,
) where
    F: Fn(usize) -> &'a [LinkId],
{
    out.clear();
    out.resize(n, f64::INFINITY);
    if n == 0 {
        return;
    }
    for &l in active_links {
        let l = l as usize;
        s.residual[l] = caps[l];
        s.load[l] = 0;
    }
    s.unfrozen.clear();
    for i in 0..n {
        let path = path_of(i);
        if path.is_empty() {
            continue; // stays INFINITY
        }
        s.unfrozen.push(i as u32);
        for l in path {
            s.load[l.idx()] += 1;
        }
    }

    let mut level = 0.0f64; // current water level
    while !s.unfrozen.is_empty() {
        // the next link to saturate is the one with the smallest
        // fair-share increment residual/load
        let mut inc = f64::INFINITY;
        for &l in active_links {
            let l = l as usize;
            let r = s.residual[l];
            if s.load[l] > 0 && r.is_finite() {
                let step = (r / s.load[l] as f64).max(0.0);
                if step < inc {
                    inc = step;
                }
            }
        }
        if !inc.is_finite() {
            // every remaining flow crosses only infinite links
            break;
        }
        level += inc;
        // charge the increment to every link still carrying unfrozen flows
        for &l in active_links {
            let l = l as usize;
            if s.load[l] > 0 && s.residual[l].is_finite() {
                s.residual[l] = (s.residual[l] - inc * s.load[l] as f64).max(0.0);
            }
        }
        // freeze flows crossing a saturated link
        s.still.clear();
        for &i in &s.unfrozen {
            let path = path_of(i as usize);
            let bottlenecked = path
                .iter()
                .any(|l| s.residual[l.idx()] <= 0.0 && caps[l.idx()].is_finite());
            if bottlenecked {
                out[i as usize] = level;
                for l in path {
                    s.load[l.idx()] -= 1;
                }
            } else {
                s.still.push(i);
            }
        }
        if s.still.len() == s.unfrozen.len() {
            // no flow froze this round — float rounding left a positive
            // sliver on the min link; freeze everything at the current
            // level, exactly as the oracle does
            for &i in &s.still {
                out[i as usize] = level;
            }
            break;
        }
        std::mem::swap(&mut s.unfrozen, &mut s.still);
    }
}

/// The flows of a link-disjoint flow set whose narrowest link has
/// capacity `cap`: in such a set every flow of a class gets the same
/// rate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Class {
    /// Bottleneck capacity shared by the class, finite and positive.
    pub(crate) cap: f64,
    /// Active flows in the class (the caller's bookkeeping).
    pub(crate) flows: u32,
    /// Max-min rate of each flow in the class; `NAN` until the class
    /// is first chained.
    pub(crate) rate: f64,
}

/// Max-min fair rates of a flow set in which no link carries two
/// flows, written into each class's `rate`. `classes` must hold the
/// distinct finite bottleneck capacities in ascending order; a flow
/// whose path is empty or all-infinite has rate `INFINITY` and belongs
/// to no class. `rounds` is scratch. Returns whether a class that
/// already had a rate got a different one (bitwise).
///
/// Bit-identical to [`max_min_rates`] over the same flows. With at most
/// one flow per link every load is 1, so `r/1` and `inc·1` are exact,
/// and every link's residual after round `j` is `max(r - inc_1 - … -
/// inc_j, 0)` evaluated left to right: a function of its capacity that
/// is monotone in it, because rounded subtraction and `max` are. Hence
///
/// * a flow's narrowest link always holds its smallest residual, so the
///   flow freezes in the first round that drives its bottleneck's
///   residual to 0, and links that are not a bottleneck never matter;
/// * each round's increment (the smallest residual of an unfrozen
///   flow) is the residual of the smallest unfrozen class;
/// * that class's residual becomes exactly `inc - inc = 0`, so some
///   flow freezes every round and the oracle's rounding-sliver escape
///   never runs.
///
/// Replaying the rounds over the classes is therefore the whole
/// water-fill. It is *not* the same as "rate = bottleneck capacity":
/// the level after round `j` is `level_{j-1} + inc_j`, and that sum
/// can round away from the capacity it rose to (see the tests).
pub(crate) fn chain_rates(classes: &mut [Class], rounds: &mut Vec<(f64, f64)>) -> bool {
    // rounds[j] = (increment, water level after the round)
    rounds.clear();
    let mut level = 0.0f64;
    let mut changed = false;
    for c in classes.iter_mut() {
        let mut residual = c.cap;
        let mut rate = None;
        for &(inc, at) in rounds.iter() {
            residual = (residual - inc).max(0.0);
            if residual <= 0.0 {
                rate = Some(at);
                break;
            }
        }
        // not frozen by any earlier round: this class is the smallest
        // unfrozen one, so it sets the next round's increment
        let rate = rate.unwrap_or_else(|| {
            level += residual;
            rounds.push((residual, level));
            level
        });
        changed |= !c.rate.is_nan() && c.rate.to_bits() != rate.to_bits();
        c.rate = rate;
    }
    changed
}

/// Max-min fair rates (bytes/s) for `flows`, where `flows[i]` is the
/// link path of flow `i` and `caps[l]` the capacity of link `l`.
///
/// * A flow with an empty path (e.g. intra-node in a degenerate layout)
///   gets `f64::INFINITY`.
/// * Infinite-capacity links never bottleneck; if every link a flow
///   crosses is infinite, the flow gets `f64::INFINITY`.
/// * Every returned rate is `> 0` (capacities are validated positive at
///   graph build time), so completion times stay finite.
pub fn max_min_rates(flows: &[&[LinkId]], caps: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![f64::INFINITY; n];
    if n == 0 {
        return rates;
    }
    // residual capacity and number of unfrozen flows per link
    let mut residual = caps.to_vec();
    let mut load = vec![0u32; caps.len()];
    let mut unfrozen: Vec<usize> = Vec::with_capacity(n);
    for (i, path) in flows.iter().enumerate() {
        if path.is_empty() {
            continue; // stays INFINITY
        }
        unfrozen.push(i);
        for l in *path {
            load[l.idx()] += 1;
        }
    }

    let mut level = 0.0f64; // current water level
    while !unfrozen.is_empty() {
        // the next link to saturate is the one with the smallest
        // fair-share increment residual/load
        let mut inc = f64::INFINITY;
        for (l, &r) in residual.iter().enumerate() {
            if load[l] > 0 && r.is_finite() {
                let step = (r / load[l] as f64).max(0.0);
                if step < inc {
                    inc = step;
                }
            }
        }
        if !inc.is_finite() {
            // every remaining flow crosses only infinite links
            break;
        }
        level += inc;
        // charge the increment to every link still carrying unfrozen flows
        for (l, r) in residual.iter_mut().enumerate() {
            if load[l] > 0 && r.is_finite() {
                *r = (*r - inc * load[l] as f64).max(0.0);
            }
        }
        // freeze flows crossing a saturated link
        let mut still = Vec::with_capacity(unfrozen.len());
        for &i in &unfrozen {
            let bottlenecked = flows[i]
                .iter()
                .any(|l| residual[l.idx()] <= 0.0 && caps[l.idx()].is_finite());
            if bottlenecked {
                rates[i] = level;
                for l in flows[i] {
                    load[l.idx()] -= 1;
                }
            } else {
                still.push(i);
            }
        }
        if still.len() == unfrozen.len() {
            // no flow froze this round: the min-achieving link's
            // residual `r - (r/load)·load` can round to a positive
            // sliver instead of exactly 0, leaving nothing saturated.
            // Freeze everything at the current level (off by at most
            // that sliver's share) rather than looping on it.
            for &i in &still {
                rates[i] = level;
            }
            break;
        }
        unfrozen = still;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: fn(u32) -> LinkId = LinkId;

    fn rates(flows: &[Vec<LinkId>], caps: &[f64]) -> Vec<f64> {
        let refs: Vec<&[LinkId]> = flows.iter().map(|p| p.as_slice()).collect();
        max_min_rates(&refs, caps)
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let r = rates(&[vec![L(0), L(1)]], &[100.0, 40.0]);
        assert_eq!(r, vec![40.0]);
    }

    #[test]
    fn equal_flows_split_a_link() {
        let r = rates(&[vec![L(0)], vec![L(0)], vec![L(0)], vec![L(0)]], &[100.0]);
        assert_eq!(r, vec![25.0; 4]);
    }

    #[test]
    fn unconstrained_flow_takes_the_leftovers() {
        // flow 0 crosses the narrow link 1 (cap 10); flow 1 shares link 0
        // (cap 100) with it but is otherwise free: max-min gives it 90.
        let r = rates(&[vec![L(0), L(1)], vec![L(0)]], &[100.0, 10.0]);
        assert_eq!(r[0], 10.0);
        assert_eq!(r[1], 90.0);
    }

    #[test]
    fn classic_three_flow_parking_lot() {
        // A: 0-1, B: 0, C: 1, caps 10 each -> all get 5
        let r = rates(&[vec![L(0), L(1)], vec![L(0)], vec![L(1)]], &[10.0, 10.0]);
        assert_eq!(r, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn empty_path_and_infinite_links_yield_infinity() {
        let r = rates(&[vec![], vec![L(0)]], &[f64::INFINITY]);
        assert!(r[0].is_infinite());
        assert!(r[1].is_infinite());
    }

    /// Run the production solver the way `FlowNet` does and compare it
    /// bitwise against the oracle.
    fn active_vs_oracle(flows: &[Vec<LinkId>], caps: &[f64]) {
        let oracle = rates(flows, caps);
        let mut active: Vec<u32> = flows.iter().flatten().map(|l| l.0).collect();
        active.sort_unstable();
        active.dedup();
        let mut s = SolveScratch::new(caps.len());
        let mut out = Vec::new();
        // run twice on the same scratch: the second solve must not be
        // contaminated by the first one's leftovers
        for _ in 0..2 {
            max_min_rates_active(
                flows.len(),
                |i| flows[i].as_slice(),
                caps,
                &active,
                &mut s,
                &mut out,
            );
            assert_eq!(oracle.len(), out.len());
            for (i, (a, b)) in oracle.iter().zip(&out).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "flow {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn active_solver_matches_oracle_bitwise() {
        let caps = [30.0, 20.0, 25.0, 100.0, 10.0, f64::INFINITY];
        let cases: Vec<Vec<Vec<LinkId>>> = vec![
            vec![vec![L(0), L(1)]],                   // lone finite flow
            vec![vec![L(5)]],                         // lone infinite flow
            vec![vec![]],                             // empty path
            vec![vec![L(0)], vec![L(0)], vec![L(0)]], // one shared link
            vec![vec![L(0), L(2)], vec![L(1), L(2)], vec![L(2)]],
            // two independent components with different loads: the
            // global water level interleaves their increments, which is
            // exactly the float behaviour both solvers must share
            vec![vec![L(0)], vec![L(0)], vec![L(0)], vec![L(4)], vec![L(4)]],
            vec![vec![L(1), L(5)], vec![L(5)], vec![]],
            vec![
                vec![L(0), L(1), L(2)],
                vec![L(3)],
                vec![L(3), L(4)],
                vec![L(2), L(3)],
                vec![L(0)],
            ],
        ];
        for flows in &cases {
            active_vs_oracle(flows, &caps);
        }
    }

    #[test]
    fn active_solver_ignores_stale_scratch_outside_active_set() {
        let caps = [10.0, 40.0, 7.0];
        let mut s = SolveScratch::new(caps.len());
        // poison the scratch for link 1, then solve a flow set that
        // never touches it
        s.residual[1] = -1.0;
        s.load[1] = 99;
        let flows = [vec![L(0), L(2)], vec![L(2)]];
        let mut out = Vec::new();
        max_min_rates_active(2, |i| flows[i].as_slice(), &caps, &[0, 2], &mut s, &mut out);
        let oracle = rates(flows.as_ref(), &caps);
        assert_eq!(out, oracle);
    }

    /// Chain `flows` (link-disjoint) the way `FlowNet` does and compare
    /// every rate bitwise against the oracle.
    fn chain_vs_oracle(flows: &[Vec<LinkId>], caps: &[f64]) -> Vec<f64> {
        let oracle = rates(flows, caps);
        let bottleneck = |p: &Vec<LinkId>| {
            p.iter()
                .map(|l| caps[l.idx()])
                .fold(f64::INFINITY, f64::min)
        };
        let mut classes: Vec<Class> = Vec::new();
        for b in flows.iter().map(bottleneck).filter(|b| b.is_finite()) {
            let pos = classes.partition_point(|c| c.cap < b);
            if classes.get(pos).map(|c| c.cap) != Some(b) {
                let class = Class {
                    cap: b,
                    flows: 1,
                    rate: f64::NAN,
                };
                classes.insert(pos, class);
            }
        }
        let mut rounds = Vec::new();
        assert!(!chain_rates(&mut classes, &mut rounds), "first chain");
        for (i, p) in flows.iter().enumerate() {
            let b = bottleneck(p);
            let got = classes
                .iter()
                .find(|c| c.cap == b)
                .map_or(f64::INFINITY, |c| c.rate);
            assert_eq!(
                got.to_bits(),
                oracle[i].to_bits(),
                "flow {i}: {got} vs {}",
                oracle[i]
            );
        }
        // chaining the same table again changes nothing
        assert!(!chain_rates(&mut classes, &mut rounds));
        oracle
    }

    #[test]
    fn disjoint_chain_is_not_the_bottleneck_capacity() {
        // three single-link flows: the third one's level is
        // 922.27 + (926580.12 - 922.27) + ((8377403.98 - 922.27) - …),
        // which rounds one ulp above its own capacity
        let caps = [922.2663739074176, 926580.1171620801, 8377403.9768691035];
        let r = chain_vs_oracle(&[vec![L(0)], vec![L(1)], vec![L(2)]], &caps);
        assert_eq!(r[2], 8377403.976869104);
        assert_ne!(
            r[2].to_bits(),
            caps[2].to_bits(),
            "min-cap shortcut must fail"
        );
        // the same chain through longer paths, with non-bottleneck
        // links, an infinite link, and an empty path
        let caps = [
            8377403.9768691035,
            922.2663739074176,
            9e9,
            926580.1171620801,
            f64::INFINITY,
            8377403.9768691035,
        ];
        let flows = [
            vec![L(0), L(2)],
            vec![L(1)],
            vec![L(3), L(4)],
            vec![L(5)],
            vec![],
        ];
        let r = chain_vs_oracle(&flows, &caps);
        assert_eq!(r[0].to_bits(), r[3].to_bits(), "same class, same rate");
    }

    #[test]
    fn disjoint_chain_matches_oracle_on_random_capacities() {
        // splitmix64 stream: deterministic, no dependencies
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut exact = 0;
        for _ in 0..2000 {
            let flows = 1 + (next() % 6) as usize;
            // capacities spread over a few decades, sometimes repeated
            let mut caps = Vec::new();
            let mut paths = Vec::new();
            for _ in 0..flows {
                let mut path = Vec::new();
                for _ in 0..1 + next() % 3 {
                    let cap = if next() % 4 == 0 && !caps.is_empty() {
                        caps[(next() % caps.len() as u64) as usize]
                    } else {
                        (1 + next() % 1_000_000) as f64 * 10f64.powi((next() % 4) as i32) / 7.0
                    };
                    path.push(L(caps.len() as u32));
                    caps.push(cap);
                }
                paths.push(path);
            }
            let r = chain_vs_oracle(&paths, &caps);
            let min_cap = |p: &Vec<LinkId>| {
                p.iter()
                    .map(|l| caps[l.idx()])
                    .fold(f64::INFINITY, f64::min)
            };
            exact += paths
                .iter()
                .zip(&r)
                .all(|(p, r)| r.to_bits() == min_cap(p).to_bits()) as u32;
        }
        assert!(
            exact < 2000,
            "some chains must round away from the capacities"
        );
    }

    #[test]
    fn shares_never_exceed_capacity() {
        let flows = vec![
            vec![L(0), L(2)],
            vec![L(1), L(2)],
            vec![L(0), L(1)],
            vec![L(2)],
        ];
        let caps = [30.0, 20.0, 25.0];
        let r = rates(&flows, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&r)
                .filter(|(p, _)| p.iter().any(|x| x.idx() == l))
                .map(|(_, &rate)| rate)
                .sum();
            assert!(
                used <= cap * (1.0 + 1e-9),
                "link {l}: used {used} > cap {cap}"
            );
        }
        for &rate in &r {
            assert!(rate > 0.0);
        }
    }
}
