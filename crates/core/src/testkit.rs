//! Seeded search instances shared by the crate's differential tests.

use ocr_geom::{Dir, Interval, Rect};
use ocr_grid::{CellState, GridModel, TrackSet};

/// SplitMix64, the tests' seeded generator.
pub(crate) struct Mix(pub(crate) u64);

impl Mix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded search instance for net 1: a grid with track counts on both
/// sides of multiples of 64, blocked rectangles on one or both planes,
/// foreign wiring (nets 2..=5) and net 1's own wiring, plus the two
/// terminals.
pub(crate) fn random_grid(rng: &mut Mix) -> (GridModel, (usize, usize), (usize, usize)) {
    const SIZES: [usize; 12] = [2, 3, 9, 40, 63, 64, 65, 90, 127, 128, 129, 131];
    let nv = SIZES[rng.below(SIZES.len())];
    let nh = SIZES[rng.below(SIZES.len())];
    let span = |n: usize| 10 * (n as i64 - 1);
    let mut g = GridModel::new(
        Rect::new(0, 0, span(nv), span(nh)),
        TrackSet::from_pitch(Interval::new(0, span(nh)), 10),
        TrackSet::from_pitch(Interval::new(0, span(nv)), 10),
    );
    assert_eq!((g.nv(), g.nh()), (nv, nh));
    let density = rng.below(4);
    for _ in 0..rng.below(3 + 3 * density) {
        let (i0, j0) = (rng.below(nv), rng.below(nh));
        let (i1, j1) = (
            (i0 + rng.below(nv / 3 + 1)).min(nv - 1),
            (j0 + rng.below(nh / 3 + 1)).min(nh - 1),
        );
        let planes = rng.below(3);
        for i in i0..=i1 {
            for j in j0..=j1 {
                for (p, dir) in [Dir::Horizontal, Dir::Vertical].into_iter().enumerate() {
                    if planes == 2 || planes == p {
                        g.set_state(dir, i, j, CellState::Blocked);
                    }
                }
            }
        }
    }
    for n in 0..rng.below(4 + 8 * density) {
        let owner = if n % 3 == 0 {
            1
        } else {
            2 + rng.below(4) as u32
        };
        let dir = if rng.below(2) == 0 {
            Dir::Horizontal
        } else {
            Dir::Vertical
        };
        let track = rng.below(g.track_count(dir));
        let cross = g.cross_len(dir);
        let (a, b) = (rng.below(cross), rng.below(cross));
        g.occupy_run(dir, track, a, b, owner);
    }
    let a = (rng.below(nv), rng.below(nh));
    let b = (rng.below(nv), rng.below(nh));
    // Terminals are usually reserved for the net, as the router does.
    if rng.below(4) != 0 {
        for t in [a, b] {
            for dir in [Dir::Horizontal, Dir::Vertical] {
                if g.state(dir, t.0, t.1) != CellState::Blocked {
                    g.set_state(dir, t.0, t.1, CellState::Used(1));
                }
            }
        }
    }
    (g, a, b)
}
