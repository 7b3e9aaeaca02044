//! Net ordering for serial Level B routing.
//!
//! Paper §3: "The level B routing algorithm processes the nets serially.
//! … Net ordering is accomplished using a longest distance criterion.
//! The option of a user specified ordering criterion, such as net
//! criticality, can be exercised."
//!
//! # The `ocr-order-v1` strategy API
//!
//! Net order dominates how much rip-up the serial Level B router pays,
//! so ordering is a first-class pluggable surface: implement
//! [`OrderingStrategy`] and hand it to the router through
//! [`NetOrdering::Strategy`]. Four strategies ship in-tree:
//!
//! * [`LongestDistance`] — the paper's longest-half-perimeter-first
//!   default. Produces the byte-identical order of
//!   [`NetOrdering::LongestFirst`].
//! * [`CongestionAware`] — most-contended nets first, where contention
//!   is the number of other nets whose bounding boxes overlap a net's
//!   horizontal span (the same interval-overlap quantity the channel
//!   router's density calculation maximises over columns).
//! * [`CriticalityAware`] — user criticality first, then terminal
//!   fan-out, then *tightest* search window first so high-stakes nets
//!   route while the grid is empty.
//! * [`SeededShuffle`] — a deterministic xoshiro256++ shuffle of the
//!   canonical net order; distinct seeds give independent restarts for
//!   the run-all portfolio (see [`crate::portfolio`]).
//!
//! Every strategy must be a *total* deterministic function of the
//! layout and net set: equal inputs give equal output on every thread
//! count, and ties on the primary key are always broken by `NetId` so
//! no ordering silently leans on sort stability.

use ocr_netlist::{Layout, NetId};
use std::sync::Arc;

/// Version tag of the ordering-strategy API surface.
pub const ORDER_API: &str = "ocr-order-v1";

/// A pluggable net-ordering policy for the serial Level B router.
///
/// Implementations must be pure: the returned permutation may depend
/// only on `layout` and `nets` (and the strategy's own immutable
/// configuration, e.g. a shuffle seed), never on global state, time, or
/// thread interleaving. The returned vector must be a permutation of
/// `nets`; the router routes it front to back.
pub trait OrderingStrategy: Send + Sync + std::fmt::Debug {
    /// Stable machine-readable name (used by the CLI `--order` flag,
    /// `ocr-jobs-v1` manifests, and `order.*` telemetry).
    fn name(&self) -> String;

    /// Returns `nets` permuted into processing order.
    fn order(&self, layout: &Layout, nets: &[NetId]) -> Vec<NetId>;
}

/// Longest half-perimeter first — the paper's default criterion.
///
/// Byte-identical to [`NetOrdering::LongestFirst`]; ties broken by
/// ascending `NetId`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LongestDistance;

impl OrderingStrategy for LongestDistance {
    fn name(&self) -> String {
        "longest".to_string()
    }

    fn order(&self, layout: &Layout, nets: &[NetId]) -> Vec<NetId> {
        let mut v = nets.to_vec();
        v.sort_unstable_by_key(|&n| (std::cmp::Reverse(layout.net_hpwl(n)), n.0));
        v
    }
}

/// Most-contended nets first.
///
/// A net's contention is the number of *other* nets in the set whose
/// bounding boxes overlap its horizontal span — the interval-overlap
/// count whose column-wise maximum is the channel router's density.
/// Routing the most contended nets first claims tracks in the fought-
/// over region before it silts up. Ties fall back longest-first, then
/// ascending `NetId`. Pinless nets have no span and go last.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CongestionAware;

impl OrderingStrategy for CongestionAware {
    fn name(&self) -> String {
        "congestion".to_string()
    }

    fn order(&self, layout: &Layout, nets: &[NetId]) -> Vec<NetId> {
        let spans: Vec<(NetId, Option<(i64, i64)>)> = nets
            .iter()
            .map(|&n| (n, layout.net_bbox(n).map(|b| (b.x0(), b.x1()))))
            .collect();
        let contention = |span: Option<(i64, i64)>| -> u64 {
            let Some((x0, x1)) = span else { return 0 };
            let overlapping = spans
                .iter()
                .filter(|(_, other)| matches!(other, Some((o0, o1)) if *o0 <= x1 && x0 <= *o1))
                .count() as u64;
            overlapping.saturating_sub(1)
        };
        let mut v: Vec<(u64, NetId)> = spans
            .iter()
            .map(|&(n, span)| (contention(span), n))
            .collect();
        v.sort_unstable_by_key(|&(c, n)| {
            (
                std::cmp::Reverse(c),
                std::cmp::Reverse(layout.net_hpwl(n)),
                n.0,
            )
        });
        v.into_iter().map(|(_, n)| n).collect()
    }
}

/// Criticality, fan-out, then tightest window first.
///
/// High-criticality nets route first (as the paper's "user specified
/// ordering criterion, such as net criticality"); among equals, nets
/// with more terminals go earlier (multi-terminal Steiner topologies
/// have the least slack), and among those the *shortest* half-perimeter
/// goes first — a tight search window has the fewest detour options, so
/// it gets the empty grid. Final tie-break: ascending `NetId`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalityAware;

impl OrderingStrategy for CriticalityAware {
    fn name(&self) -> String {
        "criticality".to_string()
    }

    fn order(&self, layout: &Layout, nets: &[NetId]) -> Vec<NetId> {
        let mut v = nets.to_vec();
        v.sort_unstable_by_key(|&n| {
            (
                std::cmp::Reverse(layout.net(n).criticality),
                std::cmp::Reverse(layout.net(n).pin_count()),
                layout.net_hpwl(n),
                n.0,
            )
        });
        v
    }
}

/// Deterministic seeded shuffle — independent restarts for portfolios.
///
/// The nets are first put in canonical ascending-`NetId` order (so the
/// result is independent of the caller's slice order), then permuted by
/// a Fisher–Yates shuffle driven by xoshiro256++ seeded from `seed`.
/// Equal seeds give equal orders on every platform and thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededShuffle {
    /// Shuffle seed; each distinct value is an independent restart.
    pub seed: u64,
}

impl SeededShuffle {
    /// Strategy shuffling with the given seed.
    pub fn new(seed: u64) -> SeededShuffle {
        SeededShuffle { seed }
    }
}

impl OrderingStrategy for SeededShuffle {
    fn name(&self) -> String {
        format!("shuffle:{}", self.seed)
    }

    fn order(&self, _layout: &Layout, nets: &[NetId]) -> Vec<NetId> {
        let mut v = nets.to_vec();
        v.sort_unstable_by_key(|n| n.0);
        let mut rng = Xoshiro::seed_from_u64(self.seed);
        // Fisher–Yates, high index down; `next_below` is unbiased.
        for i in (1..v.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// xoshiro256++ with SplitMix64 seeding — mirrors `ocr_gen::rng`, which
/// this crate cannot depend on (the generator sits above the router in
/// the workspace). Kept private; only [`SeededShuffle`] consumes it.
struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    fn seed_from_u64(seed: u64) -> Xoshiro {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)` by Lemire rejection; `bound` must be > 0.
    fn next_below(&mut self, bound: u64) -> u64 {
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Parses an `ocr-order-v1` strategy name.
///
/// Accepted names: `longest`, `shortest`, `congestion`, `criticality`,
/// `shuffle` (seed 1), and `shuffle:SEED`. Returns `None` for anything
/// else — including `portfolio`, which runs several strategies and
/// keeps the minimum rather than being a strategy itself.
pub fn ordering_from_name(name: &str) -> Option<NetOrdering> {
    match name {
        "longest" => Some(NetOrdering::LongestFirst),
        "shortest" => Some(NetOrdering::ShortestFirst),
        "congestion" => Some(NetOrdering::strategy(CongestionAware)),
        "criticality" => Some(NetOrdering::strategy(CriticalityAware)),
        "shuffle" => Some(NetOrdering::strategy(SeededShuffle::new(1))),
        _ => {
            let seed = name.strip_prefix("shuffle:")?;
            let seed: u64 = seed.parse().ok()?;
            Some(NetOrdering::strategy(SeededShuffle::new(seed)))
        }
    }
}

/// Net processing order policies.
#[derive(Clone, Debug)]
pub enum NetOrdering {
    /// Longest half-perimeter first (the paper's default).
    LongestFirst,
    /// Shortest half-perimeter first (ablation comparator).
    ShortestFirst,
    /// Highest [`criticality`](ocr_netlist::Net::criticality) first,
    /// ties broken longest-first.
    Criticality,
    /// Explicit user order; nets absent from the list go last in
    /// longest-first order.
    User(Vec<NetId>),
    /// A pluggable [`OrderingStrategy`] (the `ocr-order-v1` surface).
    Strategy(Arc<dyn OrderingStrategy>),
}

impl NetOrdering {
    /// Wraps a strategy value into the [`NetOrdering::Strategy`] variant.
    pub fn strategy<S: OrderingStrategy + 'static>(s: S) -> NetOrdering {
        NetOrdering::Strategy(Arc::new(s))
    }

    /// The policy's stable name (strategies report their own).
    pub fn name(&self) -> String {
        match self {
            NetOrdering::LongestFirst => "longest".to_string(),
            NetOrdering::ShortestFirst => "shortest".to_string(),
            NetOrdering::Criticality => "criticality-hpwl".to_string(),
            NetOrdering::User(_) => "user".to_string(),
            NetOrdering::Strategy(s) => s.name(),
        }
    }

    /// Sorts `nets` according to the policy.
    ///
    /// Every arm sorts with an explicitly total key — the final
    /// component is always the `NetId` — so the result never depends on
    /// the input order of equal-keyed nets (`sort_unstable` proves it).
    pub fn order(&self, layout: &Layout, nets: &[NetId]) -> Vec<NetId> {
        let mut v: Vec<NetId> = nets.to_vec();
        match self {
            NetOrdering::LongestFirst => {
                v.sort_unstable_by_key(|&n| (std::cmp::Reverse(layout.net_hpwl(n)), n.0));
            }
            NetOrdering::ShortestFirst => {
                v.sort_unstable_by_key(|&n| (layout.net_hpwl(n), n.0));
            }
            NetOrdering::Criticality => {
                v.sort_unstable_by_key(|&n| {
                    (
                        std::cmp::Reverse(layout.net(n).criticality),
                        std::cmp::Reverse(layout.net_hpwl(n)),
                        n.0,
                    )
                });
            }
            NetOrdering::User(order) => {
                let pos = |n: NetId| order.iter().position(|&x| x == n);
                v.sort_unstable_by_key(|&n| {
                    (
                        pos(n).unwrap_or(usize::MAX),
                        std::cmp::Reverse(layout.net_hpwl(n)),
                        n.0,
                    )
                });
            }
            NetOrdering::Strategy(s) => {
                v = s.order(layout, nets);
                debug_assert_eq!(v.len(), nets.len(), "strategy must permute its input");
            }
        }
        v
    }
}

/// Strategies compare by [`name`](NetOrdering::name); the built-in
/// variants compare structurally.
impl PartialEq for NetOrdering {
    fn eq(&self, other: &NetOrdering) -> bool {
        match (self, other) {
            (NetOrdering::LongestFirst, NetOrdering::LongestFirst)
            | (NetOrdering::ShortestFirst, NetOrdering::ShortestFirst)
            | (NetOrdering::Criticality, NetOrdering::Criticality) => true,
            (NetOrdering::User(a), NetOrdering::User(b)) => a == b,
            (NetOrdering::Strategy(a), NetOrdering::Strategy(b)) => a.name() == b.name(),
            _ => false,
        }
    }
}

impl Eq for NetOrdering {}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Layer, Point, Rect};
    use ocr_netlist::NetClass;

    fn layout3() -> (Layout, Vec<NetId>) {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        let mk = |l: &mut Layout, name: &str, a: Point, b: Point, crit: i32| {
            let n = l.add_net(name, NetClass::Signal);
            l.add_pin(n, None, a, Layer::Metal2);
            l.add_pin(n, None, b, Layer::Metal2);
            l.net_mut(n).criticality = crit;
            n
        };
        let short = mk(&mut l, "short", Point::new(0, 0), Point::new(10, 10), 5);
        let medium = mk(&mut l, "medium", Point::new(0, 0), Point::new(100, 100), 0);
        let long = mk(&mut l, "long", Point::new(0, 0), Point::new(900, 900), 1);
        (l, vec![short, medium, long])
    }

    #[test]
    fn longest_first_orders_by_hpwl_desc() {
        let (l, nets) = layout3();
        let o = NetOrdering::LongestFirst.order(&l, &nets);
        assert_eq!(o, vec![nets[2], nets[1], nets[0]]);
    }

    #[test]
    fn shortest_first_is_reverse() {
        let (l, nets) = layout3();
        let o = NetOrdering::ShortestFirst.order(&l, &nets);
        assert_eq!(o, vec![nets[0], nets[1], nets[2]]);
    }

    #[test]
    fn criticality_dominates() {
        let (l, nets) = layout3();
        let o = NetOrdering::Criticality.order(&l, &nets);
        assert_eq!(o, vec![nets[0], nets[2], nets[1]]);
    }

    #[test]
    fn user_order_wins_then_falls_back() {
        let (l, nets) = layout3();
        let o = NetOrdering::User(vec![nets[1]]).order(&l, &nets);
        assert_eq!(o[0], nets[1]);
        assert_eq!(o[1], nets[2]); // fallback: longest first
    }

    #[test]
    fn longest_distance_strategy_matches_longest_first() {
        let (l, nets) = layout3();
        assert_eq!(
            NetOrdering::strategy(LongestDistance).order(&l, &nets),
            NetOrdering::LongestFirst.order(&l, &nets),
        );
    }

    /// Regression: with equal half-perimeters every policy must break
    /// the tie on `NetId`, independent of the caller's slice order.
    #[test]
    fn equal_distance_ties_break_on_net_id() {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        let mut ids = Vec::new();
        for i in 0..6 {
            let n = l.add_net(format!("tie{i}"), NetClass::Signal);
            // Same HPWL (200) everywhere; distinct positions.
            let x = 50 * i as i64;
            l.add_pin(n, None, Point::new(x, 0), Layer::Metal2);
            l.add_pin(n, None, Point::new(x + 100, 100), Layer::Metal2);
            ids.push(n);
        }
        let mut reversed = ids.clone();
        reversed.reverse();
        let rotated: Vec<NetId> = ids[3..].iter().chain(&ids[..3]).copied().collect();
        for ordering in [
            NetOrdering::LongestFirst,
            NetOrdering::ShortestFirst,
            NetOrdering::Criticality,
            NetOrdering::User(vec![]),
            NetOrdering::strategy(LongestDistance),
            NetOrdering::strategy(CongestionAware),
            NetOrdering::strategy(CriticalityAware),
            NetOrdering::strategy(SeededShuffle::new(7)),
        ] {
            let a = ordering.order(&l, &ids);
            let b = ordering.order(&l, &reversed);
            let c = ordering.order(&l, &rotated);
            assert_eq!(a, b, "{} depends on input order", ordering.name());
            assert_eq!(a, c, "{} depends on input order", ordering.name());
        }
        // And the hpwl-keyed policies resolve all-equal keys to NetId order.
        assert_eq!(NetOrdering::LongestFirst.order(&l, &reversed), ids);
        assert_eq!(NetOrdering::ShortestFirst.order(&l, &reversed), ids);
    }

    #[test]
    fn congestion_puts_contended_nets_first() {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        let mk = |l: &mut Layout, name: &str, x0: i64, x1: i64| {
            let n = l.add_net(name, NetClass::Signal);
            l.add_pin(n, None, Point::new(x0, 0), Layer::Metal2);
            l.add_pin(n, None, Point::new(x1, 10), Layer::Metal2);
            n
        };
        // Three nets stacked over x∈[0,100]; one isolated far right with
        // a longer span than any of them.
        let a = mk(&mut l, "a", 0, 100);
        let b = mk(&mut l, "b", 10, 90);
        let c = mk(&mut l, "c", 20, 80);
        let lone = mk(&mut l, "lone", 700, 990);
        let o = NetOrdering::strategy(CongestionAware).order(&l, &[a, b, c, lone]);
        assert_eq!(o[3], lone, "uncontended net goes last despite longest span");
        assert_eq!(o[0], a, "among equals the longest span leads");
    }

    #[test]
    fn criticality_aware_prefers_fanout_then_tight_window() {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        let two = l.add_net("two", NetClass::Signal);
        l.add_pin(two, None, Point::new(0, 0), Layer::Metal2);
        l.add_pin(two, None, Point::new(100, 100), Layer::Metal2);
        let three = l.add_net("three", NetClass::Signal);
        l.add_pin(three, None, Point::new(0, 200), Layer::Metal2);
        l.add_pin(three, None, Point::new(100, 300), Layer::Metal2);
        l.add_pin(three, None, Point::new(50, 250), Layer::Metal2);
        let tight = l.add_net("tight", NetClass::Signal);
        l.add_pin(tight, None, Point::new(0, 400), Layer::Metal2);
        l.add_pin(tight, None, Point::new(10, 410), Layer::Metal2);
        let o = NetOrdering::strategy(CriticalityAware).order(&l, &[two, three, tight]);
        assert_eq!(o, vec![three, tight, two]);
    }

    #[test]
    fn shuffle_is_seed_deterministic_and_seed_sensitive() {
        let (l, _) = layout3();
        let ids: Vec<NetId> = (0..64u32).map(NetId).collect();
        let s1 = NetOrdering::strategy(SeededShuffle::new(1));
        let s2 = NetOrdering::strategy(SeededShuffle::new(2));
        let a = s1.order(&l, &ids);
        assert_eq!(a, s1.order(&l, &ids), "same seed, same permutation");
        assert_ne!(a, s2.order(&l, &ids), "different seeds diverge");
        let mut sorted = a.clone();
        sorted.sort_unstable_by_key(|n| n.0);
        assert_eq!(sorted, ids, "shuffle is a permutation");
    }

    #[test]
    fn names_parse_and_round_trip() {
        for name in [
            "longest",
            "shortest",
            "congestion",
            "criticality",
            "shuffle:9",
        ] {
            let ord = ordering_from_name(name).expect(name);
            assert_eq!(ord.name(), name);
        }
        assert_eq!(ordering_from_name("shuffle").unwrap().name(), "shuffle:1");
        for bad in [
            "",
            "portfolio",
            "portfolio:3",
            "shuffle:",
            "shuffle:x",
            "best",
        ] {
            assert!(ordering_from_name(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn strategy_equality_is_by_name() {
        assert_eq!(
            NetOrdering::strategy(SeededShuffle::new(3)),
            NetOrdering::strategy(SeededShuffle::new(3)),
        );
        assert_ne!(
            NetOrdering::strategy(SeededShuffle::new(3)),
            NetOrdering::strategy(SeededShuffle::new(4)),
        );
        assert_ne!(
            NetOrdering::strategy(LongestDistance),
            NetOrdering::LongestFirst,
            "the enum variant and the strategy are distinct values",
        );
    }
}
