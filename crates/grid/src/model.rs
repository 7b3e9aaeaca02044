//! The two-plane routing surface with occupancy: a `CellState` per
//! intersection and plane, plus free-bit planes kept in lockstep with it
//! for the word-parallel scans of the Level B search.

use crate::TrackSet;
use ocr_geom::{Coord, Dir, Point, Rect};
use std::fmt;

/// Occupancy state of one track intersection on one routing plane.
///
/// The Level B surface has two planes: the *horizontal* plane (metal3,
/// wires running along horizontal tracks) and the *vertical* plane
/// (metal4). An intersection can be independently free, blocked by an
/// obstacle, or used by a routed net on each plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellState {
    /// Usable for routing.
    Free,
    /// Permanently unusable (obstacle / outside region).
    Blocked,
    /// Occupied by the net with this id.
    Used(u32),
}

impl CellState {
    /// `true` if a new wire may pass through.
    #[inline]
    pub fn is_free(self) -> bool {
        matches!(self, CellState::Free)
    }

    /// `true` if occupied by a routed net.
    #[inline]
    pub fn is_used(self) -> bool {
        matches!(self, CellState::Used(_))
    }

    /// `true` if a wire of `net` may pass: the cell is free or holds
    /// `net`'s own wiring (a net may reuse it, e.g. Steiner trunks).
    /// This is the one own-net rule every search applies.
    #[inline]
    pub fn passable_for(self, net: u32) -> bool {
        match self {
            CellState::Free => true,
            CellState::Used(n) => n == net,
            CellState::Blocked => false,
        }
    }
}

impl fmt::Display for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellState::Free => write!(f, "free"),
            CellState::Blocked => write!(f, "blocked"),
            CellState::Used(n) => write!(f, "used(net#{n})"),
        }
    }
}

/// One cell's occupancy on one plane, packed into a `u32`: 0 is
/// [`CellState::Free`], [`Cell::BLOCKED`] is [`CellState::Blocked`] and
/// `n + 1` is [`CellState::Used`]`(n)`. Every net id up to
/// [`Cell::MAX_NET`] has a code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell(u32);

impl Cell {
    const FREE: Cell = Cell(0);
    const BLOCKED: Cell = Cell(u32::MAX);
    /// The largest net id with a code: `n + 1` must stay below
    /// [`Cell::BLOCKED`].
    const MAX_NET: u32 = u32::MAX - 2;

    /// The code of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is `Used(n)` with `n > Cell::MAX_NET`.
    #[inline]
    fn encode(s: CellState) -> Cell {
        match s {
            CellState::Free => Cell::FREE,
            CellState::Blocked => Cell::BLOCKED,
            CellState::Used(n) => {
                assert!(n <= Cell::MAX_NET, "net id {n} has no occupancy code");
                Cell(n + 1)
            }
        }
    }

    /// The state `self` codes.
    #[inline]
    fn decode(self) -> CellState {
        match self {
            Cell::FREE => CellState::Free,
            Cell::BLOCKED => CellState::Blocked,
            Cell(c) => CellState::Used(c - 1),
        }
    }
}

/// One plane's occupancy as a packed bitset: bit = 1 ⇔ the cell is
/// [`CellState::Free`].
///
/// Rows are that plane's *own* tracks (horizontal plane: horizontal
/// track `j`; vertical plane: vertical track `i`) and the bits within a
/// row are the cross-indices a wire sweeps along the track, so a free
/// run is a contiguous stretch of set bits inside one row and expands
/// with word-level scans instead of per-cell enum matches. Tail bits
/// past `cross` in a row's last word are kept clear (= not free) so
/// scans can never run off the end of a row.
#[derive(Clone, Debug)]
struct BitPlane {
    words: Vec<u64>,
    words_per_row: usize,
}

/// Low 64 bits with positions `0..=b` set (`b < 64`).
#[inline]
fn mask_le(b: usize) -> u64 {
    debug_assert!(b < 64);
    if b == 63 {
        !0
    } else {
        (1u64 << (b + 1)) - 1
    }
}

/// Low 64 bits with positions `b..=63` set (`b < 64`).
#[inline]
fn mask_ge(b: usize) -> u64 {
    debug_assert!(b < 64);
    !0u64 << b
}

impl BitPlane {
    /// All-free plane of `rows` tracks × `cross` cells per track.
    fn new(rows: usize, cross: usize) -> Self {
        let words_per_row = cross.div_ceil(64);
        let mut words = vec![!0u64; rows * words_per_row];
        let tail = cross % 64;
        if tail != 0 {
            for r in 0..rows {
                words[r * words_per_row + words_per_row - 1] = mask_le(tail - 1);
            }
        }
        BitPlane {
            words,
            words_per_row,
        }
    }

    #[inline]
    fn set(&mut self, row: usize, k: usize, free: bool) {
        let w = &mut self.words[row * self.words_per_row + k / 64];
        let bit = 1u64 << (k % 64);
        if free {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    #[inline]
    fn is_free(&self, row: usize, k: usize) -> bool {
        self.words[row * self.words_per_row + k / 64] & (1u64 << (k % 64)) != 0
    }

    /// Word `w` of row `row`: the free bits of cross-indices
    /// `64·w .. 64·w + 63`.
    #[inline]
    fn word(&self, row: usize, w: usize) -> u64 {
        self.words[row * self.words_per_row + w]
    }

    /// Largest `k` in `[lo, from]` whose bit is clear (not free), found
    /// by scanning whole words towards `lo`.
    fn prev_not_free(&self, row: usize, from: usize, lo: usize) -> Option<usize> {
        debug_assert!(lo <= from);
        let base = row * self.words_per_row;
        let mut w_idx = from / 64;
        let mut word = !self.words[base + w_idx] & mask_le(from % 64);
        let lo_word = lo / 64;
        loop {
            if word != 0 {
                let k = w_idx * 64 + (63 - word.leading_zeros() as usize);
                return if k < lo { None } else { Some(k) };
            }
            if w_idx == lo_word {
                return None;
            }
            w_idx -= 1;
            word = !self.words[base + w_idx];
        }
    }

    /// Smallest `k` in `[from, hi]` whose bit is clear (not free), found
    /// by scanning whole words towards `hi`.
    fn next_not_free(&self, row: usize, from: usize, hi: usize) -> Option<usize> {
        debug_assert!(from <= hi);
        let base = row * self.words_per_row;
        let mut w_idx = from / 64;
        let mut word = !self.words[base + w_idx] & mask_ge(from % 64);
        let hi_word = hi / 64;
        loop {
            if word != 0 {
                let k = w_idx * 64 + word.trailing_zeros() as usize;
                return if k > hi { None } else { Some(k) };
            }
            if w_idx == hi_word {
                return None;
            }
            w_idx += 1;
            word = !self.words[base + w_idx];
        }
    }
}

/// The grid model of the paper's Level B routing surface.
///
/// An array of intersections defined by `nv` vertical × `nh` horizontal
/// tracks (non-uniform spacing allowed). Each intersection carries an
/// independent [`CellState`] per plane. Storage is `O(h·v)` exactly as
/// the paper's Section 3.4 requires, and updating after a connection is
/// `O(t), t = max(h, v)` since a two-terminal connection touches at most
/// a constant number of tracks.
///
/// Two word-packed free/not-free bitsets per plane ([`BitPlane`]) are
/// kept in lockstep with the `CellState` array by
/// [`GridModel::set_state`] (the single mutation point):
///
/// - one along the plane's own tracks, with which
///   [`GridModel::free_run`] expands maximal free runs by word-level
///   scans, falling back to the enum only at non-free boundary cells to
///   let a net pass through its own wiring;
/// - one transposed, along the *other* plane's tracks, so that the
///   corners a run crosses — free on both planes — come out 64 at a time
///   from [`GridModel::corner_free_word`] instead of one strided enum
///   load per cell.
///
/// The bit planes add `h·v/4` bytes to the `O(h·v)` state and one bit
/// write per plane to each `O(1)` cell update, so the §3.4 bounds
/// still hold.
///
/// Each cell's state is stored as one `u32` per plane ([`Cell`]): 0 is
/// [`CellState::Free`], `u32::MAX` is [`CellState::Blocked`] and
/// `n + 1` is [`CellState::Used`]`(n)`, half the bytes of the enum.
#[derive(Clone, Debug)]
pub struct GridModel {
    region: Rect,
    h: TrackSet,
    v: TrackSet,
    /// Occupancy codes, indexed `[dir][j * nv + i]` where `i` is the
    /// vertical track index (x) and `j` the horizontal track index (y).
    state: [Vec<Cell>; 2],
    /// Free-bit view of `state`, one plane each, row-major along each
    /// plane's own tracks.
    bits: [BitPlane; 2],
    /// The same free bits transposed: `tbits[d]` has a row per track of
    /// the plane perpendicular to `d` (`tbits[Horizontal]` one per
    /// vertical track, with a bit per horizontal track).
    tbits: [BitPlane; 2],
}

impl GridModel {
    /// Creates a grid over `region` with the given track sets.
    pub fn new(region: Rect, h: TrackSet, v: TrackSet) -> Self {
        let n = h.len() * v.len();
        // Dir::Horizontal.index() == 0: rows are horizontal tracks (nh),
        // cross-bits are vertical track indices (nv); vice versa for 1.
        let bits = [
            BitPlane::new(h.len(), v.len()),
            BitPlane::new(v.len(), h.len()),
        ];
        let tbits = [
            BitPlane::new(v.len(), h.len()),
            BitPlane::new(h.len(), v.len()),
        ];
        GridModel {
            region,
            h,
            v,
            state: [vec![Cell::FREE; n], vec![Cell::FREE; n]],
            bits,
            tbits,
        }
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of horizontal tracks (`h` in the paper's complexity bound).
    #[inline]
    pub fn nh(&self) -> usize {
        self.h.len()
    }

    /// Number of vertical tracks (`v`).
    #[inline]
    pub fn nv(&self) -> usize {
        self.v.len()
    }

    /// The horizontal track set (offsets are `y` coordinates).
    #[inline]
    pub fn h_tracks(&self) -> &TrackSet {
        &self.h
    }

    /// The vertical track set (offsets are `x` coordinates).
    #[inline]
    pub fn v_tracks(&self) -> &TrackSet {
        &self.v
    }

    /// Physical location of intersection `(i, j)` = (vertical track `i`,
    /// horizontal track `j`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn point(&self, i: usize, j: usize) -> Point {
        Point::new(self.v.offset(i), self.h.offset(j))
    }

    /// Exact grid indices of a point, if it lies on a track crossing.
    pub fn snap(&self, p: Point) -> Option<(usize, usize)> {
        Some((self.v.index_of(p.x)?, self.h.index_of(p.y)?))
    }

    /// Nearest grid indices to a point. `None` only for an empty grid.
    pub fn nearest(&self, p: Point) -> Option<(usize, usize)> {
        Some((self.v.nearest(p.x)?, self.h.nearest(p.y)?))
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nv() && j < self.nh());
        j * self.v.len() + i
    }

    /// Occupancy of intersection `(i, j)` on the plane whose wires run in
    /// `dir`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn state(&self, dir: Dir, i: usize, j: usize) -> CellState {
        self.state[dir.index()][self.idx(i, j)].decode()
    }

    /// Sets occupancy of intersection `(i, j)` on plane `dir`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or if `s` is `Used(n)` with
    /// `n ≥ u32::MAX − 1`: those ids have no occupancy code.
    #[inline]
    pub fn set_state(&mut self, dir: Dir, i: usize, j: usize, s: CellState) {
        let idx = self.idx(i, j);
        self.state[dir.index()][idx] = Cell::encode(s);
        let (row, k) = match dir {
            Dir::Horizontal => (j, i),
            Dir::Vertical => (i, j),
        };
        self.bits[dir.index()].set(row, k, s.is_free());
        self.tbits[dir.index()].set(k, row, s.is_free());
    }

    /// `true` if `(i, j)` is free on plane `dir`.
    #[inline]
    pub fn is_free(&self, dir: Dir, i: usize, j: usize) -> bool {
        self.state(dir, i, j).is_free()
    }

    /// Blocks, on plane `dir`, every intersection a wire could not pass
    /// through without its centerline crossing the rectangle's
    /// *interior*.
    ///
    /// A wire running exactly on the obstacle boundary is legal (see
    /// `ocr_netlist::validate`), so tracks on the boundary stay usable
    /// for runs that *stop* there — but an intersection is blocked when
    /// either of its adjacent along-plane segments would cross the
    /// interior, which also makes obstacles thinner than the track
    /// pitch (no interior track at all) correctly impassable.
    pub fn block_rect(&mut self, rect: &Rect, dir: Dir) {
        // Open-interval overlap of a wire segment (a, b) with (lo, hi).
        let crosses = |a: Coord, b: Coord, lo: Coord, hi: Coord| a.min(b) < hi && a.max(b) > lo;
        match dir {
            Dir::Horizontal => {
                for j in 0..self.nh() {
                    let y = self.h.offset(j);
                    if y <= rect.y0() || y >= rect.y1() {
                        continue;
                    }
                    for i in 0..self.nv() {
                        let x = self.v.offset(i);
                        let inside = x > rect.x0() && x < rect.x1();
                        let left = i > 0 && crosses(self.v.offset(i - 1), x, rect.x0(), rect.x1());
                        let right = i + 1 < self.nv()
                            && crosses(x, self.v.offset(i + 1), rect.x0(), rect.x1());
                        if inside || left || right {
                            self.set_state(Dir::Horizontal, i, j, CellState::Blocked);
                        }
                    }
                }
            }
            Dir::Vertical => {
                for i in 0..self.nv() {
                    let x = self.v.offset(i);
                    if x <= rect.x0() || x >= rect.x1() {
                        continue;
                    }
                    for j in 0..self.nh() {
                        let y = self.h.offset(j);
                        let inside = y > rect.y0() && y < rect.y1();
                        let below = j > 0 && crosses(self.h.offset(j - 1), y, rect.y0(), rect.y1());
                        let above = j + 1 < self.nh()
                            && crosses(y, self.h.offset(j + 1), rect.y0(), rect.y1());
                        if inside || below || above {
                            self.set_state(Dir::Vertical, i, j, CellState::Blocked);
                        }
                    }
                }
            }
        }
    }

    /// Marks a run of intersections along a track as used by `net`.
    ///
    /// For a horizontal run, `track` is the horizontal track index `j`
    /// and `from..=to` are vertical track indices; vice versa for a
    /// vertical run. Marks the plane whose wires run in `dir`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range, or if `net ≥ u32::MAX − 1`
    /// (see [`GridModel::set_state`]).
    pub fn occupy_run(&mut self, dir: Dir, track: usize, from: usize, to: usize, net: u32) {
        let (lo, hi) = (from.min(to), from.max(to));
        for k in lo..=hi {
            let (i, j) = match dir {
                Dir::Horizontal => (k, track),
                Dir::Vertical => (track, k),
            };
            self.set_state(dir, i, j, CellState::Used(net));
        }
    }

    /// `true` if cross-index `k` of track `track` on plane `dir` is
    /// passable for `net` ([`CellState::passable_for`]).
    #[inline]
    pub fn cell_passable(&self, net: u32, dir: Dir, track: usize, k: usize) -> bool {
        let (i, j) = match dir {
            Dir::Horizontal => (k, track),
            Dir::Vertical => (track, k),
        };
        self.state(dir, i, j).passable_for(net)
    }

    /// `true` if `net` may turn a corner at intersection `(i, j)`: a
    /// corner joins a metal3 run to a metal4 run with a via, so the cell
    /// must be passable for `net` on both planes. These are the edges of
    /// the paper's Track Intersection Graph.
    #[inline]
    pub fn corner_usable(&self, net: u32, i: usize, j: usize) -> bool {
        self.state(Dir::Horizontal, i, j).passable_for(net)
            && self.state(Dir::Vertical, i, j).passable_for(net)
    }

    /// `true` if every intersection of the run is free on plane `dir`,
    /// except that intersections already used by `net` itself are
    /// allowed (a net may reuse its own wiring, e.g. Steiner trunks).
    pub fn run_is_free(&self, dir: Dir, track: usize, from: usize, to: usize, net: u32) -> bool {
        let (lo, hi) = (from.min(to), from.max(to));
        debug_assert!(hi < self.cross_len(dir) && track < self.track_count(dir));
        // Word-scan the free bitset; only non-free cells need the enum
        // (they pass exactly when used by `net` itself).
        let plane = &self.bits[dir.index()];
        let mut k = lo;
        while let Some(z) = plane.next_not_free(track, k, hi) {
            if !self.cell_passable(net, dir, track, z) {
                return false;
            }
            if z == hi {
                return true;
            }
            k = z + 1;
        }
        true
    }

    /// Word `w` of the corner mask along track `track` of plane `dir`:
    /// bit `b` is set iff the intersection at cross-index `64·w + b` is
    /// free on *both* planes. Bits past the end of the track are clear.
    ///
    /// A clear bit only says "not free on some plane"; whether the cell
    /// is still a usable corner for a net (its own wiring) is the
    /// caller's question to [`GridModel::cell_passable`].
    #[inline]
    pub fn corner_free_word(&self, dir: Dir, track: usize, w: usize) -> u64 {
        self.bits[dir.index()].word(track, w) & self.tbits[dir.perp().index()].word(track, w)
    }

    /// Number of cross-indices along a track of plane `dir` (the run
    /// axis length: `nv` for horizontal tracks, `nh` for vertical).
    #[inline]
    pub fn cross_len(&self, dir: Dir) -> usize {
        match dir {
            Dir::Horizontal => self.nv(),
            Dir::Vertical => self.nh(),
        }
    }

    /// Number of tracks on plane `dir`.
    #[inline]
    pub fn track_count(&self, dir: Dir) -> usize {
        match dir {
            Dir::Horizontal => self.nh(),
            Dir::Vertical => self.nv(),
        }
    }

    /// The maximal passable run for `net` along track `track` of plane
    /// `dir` through cross-index `through`, clipped to the closed window
    /// `[win_lo, win_hi]`. Returns `None` if the through-cell itself is
    /// impassable or outside the window.
    ///
    /// Free stretches are expanded a 64-cell word at a time over the
    /// plane's bitset; the per-cell [`CellState`] is consulted only at
    /// each non-free boundary, to pass through cells used by `net`
    /// itself. Semantics are cell-for-cell identical to a per-cell scan.
    pub fn free_run(
        &self,
        net: u32,
        dir: Dir,
        track: usize,
        through: usize,
        win_lo: usize,
        win_hi: usize,
    ) -> Option<(usize, usize)> {
        if through < win_lo || through > win_hi {
            return None;
        }
        debug_assert!(win_hi < self.cross_len(dir) && track < self.track_count(dir));
        let plane = &self.bits[dir.index()];
        if !plane.is_free(track, through) && !self.cell_passable(net, dir, track, through) {
            return None;
        }
        let mut lo = through;
        while lo > win_lo {
            match plane.prev_not_free(track, lo - 1, win_lo) {
                None => {
                    lo = win_lo;
                    break;
                }
                Some(z) => {
                    if self.cell_passable(net, dir, track, z) {
                        lo = z; // own wiring: keep scanning below it
                    } else {
                        lo = z + 1;
                        break;
                    }
                }
            }
        }
        let mut hi = through;
        while hi < win_hi {
            match plane.next_not_free(track, hi + 1, win_hi) {
                None => {
                    hi = win_hi;
                    break;
                }
                Some(z) => {
                    if self.cell_passable(net, dir, track, z) {
                        hi = z; // own wiring: keep scanning past it
                    } else {
                        hi = z - 1;
                        break;
                    }
                }
            }
        }
        Some((lo, hi))
    }

    /// The numerators of the selection cost's `drg` and `acf` terms over
    /// the closed index window `[i0, i1] × [j0, j1]`, clipped to the
    /// grid: `(used, congested)`, where `used` counts the intersections
    /// a routed net uses on either plane and `congested` those not free
    /// on both planes (used or blocked).
    ///
    /// One pass over the window's horizontal tracks counts `congested`
    /// a [`GridModel::corner_free_word`] at a time and reads the cell
    /// enum only where a corner bit is clear.
    pub fn window_counts(&self, i0: usize, i1: usize, j0: usize, j1: usize) -> (usize, usize) {
        let i1 = i1.min(self.nv().saturating_sub(1));
        let j1 = j1.min(self.nh().saturating_sub(1));
        let (mut used, mut congested) = (0, 0);
        for j in j0..=j1 {
            for w in i0 / 64..=i1 / 64 {
                let lo = if w == i0 / 64 { i0 % 64 } else { 0 };
                let hi = if w == i1 / 64 { i1 % 64 } else { 63 };
                let mut busy =
                    !self.corner_free_word(Dir::Horizontal, j, w) & mask_ge(lo) & mask_le(hi);
                congested += busy.count_ones() as usize;
                while busy != 0 {
                    let idx = self.idx(w * 64 + busy.trailing_zeros() as usize, j);
                    busy &= busy - 1;
                    let [h, v] = &self.state;
                    if h[idx].decode().is_used() || v[idx].decode().is_used() {
                        used += 1;
                    }
                }
            }
        }
        (used, congested)
    }

    /// Bytes held by the occupancy codes of both planes (the bit planes
    /// not included).
    pub fn occupancy_bytes(&self) -> usize {
        self.state
            .iter()
            .map(|s| s.len() * std::mem::size_of::<Cell>())
            .sum()
    }

    /// Manhattan distance between two intersections in physical units.
    pub fn distance(&self, a: (usize, usize), b: (usize, usize)) -> Coord {
        ocr_geom::manhattan(self.point(a.0, a.1), self.point(b.0, b.1))
    }
}

impl fmt::Display for GridModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grid {}×{} over {}", self.nv(), self.nh(), self.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::Interval;

    fn grid5() -> GridModel {
        GridModel::new(
            Rect::new(0, 0, 40, 40),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
        )
    }

    #[test]
    fn fresh_grid_is_all_free() {
        let g = grid5();
        for d in Dir::BOTH {
            for j in 0..g.nh() {
                for i in 0..g.nv() {
                    assert!(g.is_free(d, i, j), "{d:?} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn block_rect_covers_interior_and_crossing_segments() {
        let mut g = grid5();
        g.block_rect(&Rect::new(10, 10, 30, 30), Dir::Horizontal);
        // (20,20) strictly inside: blocked.
        assert_eq!(g.state(Dir::Horizontal, 2, 2), CellState::Blocked);
        // Boundary-row cells stay free (no interior crossing there).
        assert!(g.is_free(Dir::Horizontal, 1, 1));
        // Boundary-column cells on an interior row are blocked: a run
        // through them would cross the obstacle interior.
        assert_eq!(g.state(Dir::Horizontal, 3, 2), CellState::Blocked);
        assert_eq!(g.state(Dir::Horizontal, 1, 2), CellState::Blocked);
        // Cells two tracks away stay free.
        assert!(g.is_free(Dir::Horizontal, 0, 2));
        assert!(g.is_free(Dir::Horizontal, 4, 2));
        // Other plane untouched.
        assert!(g.is_free(Dir::Vertical, 2, 2));
    }

    #[test]
    fn block_rect_thinner_than_pitch_still_blocks_crossings() {
        let mut g = grid5();
        // A sliver strictly between tracks x = 10 and x = 20: no track
        // is inside it, but runs jumping it must be cut.
        g.block_rect(&Rect::new(12, 5, 18, 35), Dir::Horizontal);
        for j in 1..=3 {
            assert_eq!(g.state(Dir::Horizontal, 1, j), CellState::Blocked);
            assert_eq!(g.state(Dir::Horizontal, 2, j), CellState::Blocked);
        }
        assert!(g.is_free(Dir::Horizontal, 0, 2));
        assert!(g.is_free(Dir::Horizontal, 3, 2));
    }

    #[test]
    fn occupy_and_run_free_interaction() {
        let mut g = grid5();
        g.occupy_run(Dir::Horizontal, 2, 1, 3, 7);
        assert!(!g.run_is_free(Dir::Horizontal, 2, 0, 4, 9));
        // The owning net may pass through its own wiring.
        assert!(g.run_is_free(Dir::Horizontal, 2, 0, 4, 7));
        // Vertical plane is independent.
        assert!(g.run_is_free(Dir::Vertical, 2, 0, 4, 9));
    }

    #[test]
    fn corners_need_both_planes_passable_for_the_net() {
        let mut g = grid5();
        // On an empty grid every intersection is a usable corner.
        assert!((0..5).all(|i| (0..5).all(|j| g.corner_usable(0, i, j))));
        // An obstacle on one plane splits that plane's track and makes
        // its corners unusable; the other plane's track stays whole.
        g.block_rect(&Rect::new(15, 15, 25, 25), Dir::Horizontal);
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 0, 0, 4), Some((0, 0)));
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 4, 0, 4), Some((4, 4)));
        assert_eq!(g.free_run(0, Dir::Vertical, 2, 2, 0, 4), Some((0, 4)));
        assert!(!g.corner_usable(0, 2, 2));
        assert!(g.corner_usable(0, 2, 0));
        // Own wiring passes, on a run and at a corner; foreign wiring
        // does not.
        g.occupy_run(Dir::Horizontal, 4, 0, 4, 7);
        g.occupy_run(Dir::Vertical, 1, 0, 4, 7);
        assert_eq!(g.free_run(7, Dir::Horizontal, 4, 2, 0, 4), Some((0, 4)));
        assert_eq!(g.free_run(8, Dir::Horizontal, 4, 2, 0, 4), None);
        assert!(g.corner_usable(7, 1, 4));
        assert!(!g.corner_usable(8, 1, 4));
        assert!(!g.corner_usable(8, 3, 4));
        assert!(g.corner_usable(8, 3, 3));
    }

    #[test]
    fn snap_and_nearest() {
        let g = grid5();
        assert_eq!(g.snap(Point::new(20, 30)), Some((2, 3)));
        assert_eq!(g.snap(Point::new(21, 30)), None);
        assert_eq!(g.nearest(Point::new(21, 29)), Some((2, 3)));
    }

    #[test]
    fn windows_count_used_and_congested() {
        let mut g = grid5();
        g.occupy_run(Dir::Vertical, 1, 0, 2, 3); // (1,0),(1,1),(1,2) used
                                                 // Interior row y=30; blocked cells x = 20 (crossing segment),
                                                 // 30 (inside), 40 (crossing segment).
        g.block_rect(&Rect::new(25, 25, 40, 40), Dir::Horizontal);
        assert_eq!(g.window_counts(0, 4, 0, 4), (3, 3 + 3));
    }

    /// Per-cell reference for [`GridModel::window_counts`]: the two
    /// window scans it replaced, in one loop.
    fn window_counts_ref(
        g: &GridModel,
        i0: usize,
        i1: usize,
        j0: usize,
        j1: usize,
    ) -> (usize, usize) {
        let (mut used, mut congested) = (0, 0);
        for j in j0..=j1.min(g.nh() - 1) {
            for i in i0..=i1.min(g.nv() - 1) {
                let (h, v) = (g.state(Dir::Horizontal, i, j), g.state(Dir::Vertical, i, j));
                used += usize::from(h.is_used() || v.is_used());
                congested += usize::from(!h.is_free() || !v.is_free());
            }
        }
        (used, congested)
    }

    #[test]
    fn window_counts_match_a_per_cell_scan() {
        // SplitMix64: a seeded stream without an external crate.
        let mut state = 0x0057_a7e5_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut windows = 0;
        for case in 0..64 {
            // Rows of 1 to 3 words: windows cross bits 63/64 and 127/128.
            let nv = [1, 5, 63, 64, 65, 128, 129, 150][case % 8];
            let nh = [1, 3, 64, 70, 130][case / 8 % 5];
            let span = |n: usize| TrackSet::from_pitch(Interval::new(0, 10 * (n as i64 - 1)), 10);
            let mut g = GridModel::new(Rect::new(0, 0, 1490, 1290), span(nh), span(nv));
            // Obstacles land on one plane at a time; wiring of net 1
            // (the searching net's own) and of foreign nets 2..=4 on
            // either plane; some cells are freed again.
            let cells = nv * nh * (1 + case % 4) / 4;
            for _ in 0..cells {
                let dir = [Dir::Horizontal, Dir::Vertical][below(2)];
                let s = match below(6) {
                    0 | 1 => CellState::Blocked,
                    2 => CellState::Free,
                    n => CellState::Used(n as u32 - 2),
                };
                g.set_state(dir, below(nv), below(nh), s);
            }
            let mut check = |i0: usize, i1: usize, j0: usize, j1: usize| {
                assert_eq!(
                    g.window_counts(i0, i1, j0, j1),
                    window_counts_ref(&g, i0, i1, j0, j1),
                    "case {case} ({nv}x{nh}) window [{i0},{i1}]x[{j0},{j1}]"
                );
                windows += 1;
            };
            // Cost windows of radius r around corners at every die edge
            // and corner, clipped below by saturation and above by the
            // count itself.
            for r in [0, 3, 7, 70] {
                for ci in [0, nv / 2, nv - 1] {
                    for cj in [0, nh / 2, nh - 1] {
                        check(ci.saturating_sub(r), ci + r, cj.saturating_sub(r), cj + r);
                    }
                }
            }
            for _ in 0..40 {
                let (i0, j0) = (below(nv), below(nh));
                check(i0, i0 + below(nv + 8), j0, j0 + below(nh + 8));
            }
        }
        assert_eq!(windows, 64 * (4 * 9 + 40));
    }

    #[test]
    fn distance_uses_physical_offsets() {
        let g = grid5();
        assert_eq!(g.distance((0, 0), (2, 3)), 20 + 30);
    }

    /// Per-cell reference implementation of [`GridModel::free_run`].
    fn free_run_ref(
        g: &GridModel,
        net: u32,
        dir: Dir,
        track: usize,
        through: usize,
        win_lo: usize,
        win_hi: usize,
    ) -> Option<(usize, usize)> {
        let pass = |k: usize| g.cell_passable(net, dir, track, k);
        if !pass(through) || through < win_lo || through > win_hi {
            return None;
        }
        let mut lo = through;
        while lo > win_lo && pass(lo - 1) {
            lo -= 1;
        }
        let mut hi = through;
        while hi < win_hi && pass(hi + 1) {
            hi += 1;
        }
        Some((lo, hi))
    }

    /// A ~150×3 grid (several words per row) with a deterministic mix of
    /// blocked cells and two nets' wiring.
    fn grid_multiword() -> GridModel {
        let mut g = GridModel::new(
            Rect::new(0, 0, 1490, 20),
            TrackSet::from_pitch(Interval::new(0, 20), 10),
            TrackSet::from_pitch(Interval::new(0, 1490), 10),
        );
        assert_eq!(g.nv(), 150);
        for i in 0..150usize {
            for j in 0..3usize {
                match (i * 7 + j * 13) % 11 {
                    0 => g.set_state(Dir::Horizontal, i, j, CellState::Blocked),
                    1 | 5 => g.set_state(Dir::Horizontal, i, j, CellState::Used(1)),
                    2 => g.set_state(Dir::Horizontal, i, j, CellState::Used(2)),
                    _ => {}
                }
            }
        }
        g
    }

    #[test]
    fn word_scan_free_run_matches_per_cell_reference() {
        let g = grid_multiword();
        for net in [1u32, 2, 9] {
            for track in 0..3 {
                for through in 0..150 {
                    for (lo, hi) in [(0, 149), (0, 63), (64, 149), (30, 100), (through, through)] {
                        assert_eq!(
                            g.free_run(net, Dir::Horizontal, track, through, lo, hi),
                            free_run_ref(&g, net, Dir::Horizontal, track, through, lo, hi),
                            "net={net} track={track} through={through} win=[{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_scan_run_is_free_matches_per_cell_reference() {
        let g = grid_multiword();
        let reference = |net: u32, track: usize, lo: usize, hi: usize| {
            (lo..=hi).all(|k| g.cell_passable(net, Dir::Horizontal, track, k))
        };
        for net in [1u32, 2, 9] {
            for track in 0..3 {
                for lo in (0..150).step_by(7) {
                    for hi in (lo..150).step_by(13) {
                        assert_eq!(
                            g.run_is_free(Dir::Horizontal, track, lo, hi, net),
                            reference(net, track, lo, hi),
                            "net={net} track={track} run=[{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    /// Asserts that both bit planes of every plane, and the corner
    /// words built from them, agree with the `CellState` array.
    fn assert_bit_planes_match_state(g: &GridModel) {
        for dir in [Dir::Horizontal, Dir::Vertical] {
            for i in 0..g.nv() {
                for j in 0..g.nh() {
                    let (row, k) = match dir {
                        Dir::Horizontal => (j, i),
                        Dir::Vertical => (i, j),
                    };
                    let free = g.state(dir, i, j).is_free();
                    assert_eq!(
                        g.bits[dir.index()].is_free(row, k),
                        free,
                        "{dir:?} ({i},{j})"
                    );
                    assert_eq!(
                        g.tbits[dir.index()].is_free(k, row),
                        free,
                        "{dir:?} ({i},{j}), transposed"
                    );
                }
            }
            // The corner words are the AND of both planes, and bits past
            // the end of a track stay clear.
            for track in 0..g.track_count(dir) {
                for k in 0..g.cross_len(dir) {
                    let (i, j) = match dir {
                        Dir::Horizontal => (k, track),
                        Dir::Vertical => (track, k),
                    };
                    let both = g.is_free(Dir::Horizontal, i, j) && g.is_free(Dir::Vertical, i, j);
                    let bit = g.corner_free_word(dir, track, k / 64) >> (k % 64) & 1;
                    assert_eq!(bit == 1, both, "{dir:?} track {track} cross {k}");
                }
                let last = g.cross_len(dir) - 1;
                let tail = g.corner_free_word(dir, track, last / 64);
                assert_eq!(
                    tail >> (last % 64) >> 1,
                    0,
                    "{dir:?} track {track} tail bits"
                );
            }
        }
    }

    #[test]
    fn bit_planes_track_cell_state_through_mutation() {
        let mut g = grid_multiword();
        g.block_rect(&Rect::new(205, 0, 355, 20), Dir::Vertical);
        g.occupy_run(Dir::Vertical, 70, 0, 2, 5);
        g.occupy_run(Dir::Horizontal, 1, 100, 140, 5);
        // Clearing back to Free must set the bit again.
        g.set_state(Dir::Horizontal, 120, 1, CellState::Free);
        assert_bit_planes_match_state(&g);
    }

    #[test]
    fn bit_planes_track_cell_state_on_a_grid_multiword_both_ways() {
        // 130 vertical × 70 horizontal tracks: every row of every plane,
        // direct or transposed, spans two or three words.
        let mut g = GridModel::new(
            Rect::new(0, 0, 1290, 690),
            TrackSet::from_pitch(Interval::new(0, 690), 10),
            TrackSet::from_pitch(Interval::new(0, 1290), 10),
        );
        assert_eq!((g.nv(), g.nh()), (130, 70));
        assert_bit_planes_match_state(&g);
        g.block_rect(&Rect::new(600, 100, 700, 680), Dir::Horizontal);
        g.block_rect(&Rect::new(15, 615, 1285, 655), Dir::Vertical);
        g.occupy_run(Dir::Horizontal, 64, 0, 129, 3);
        g.occupy_run(Dir::Vertical, 63, 60, 69, 4);
        g.occupy_run(Dir::Vertical, 127, 0, 66, 4);
        g.set_state(Dir::Horizontal, 64, 64, CellState::Free);
        g.set_state(Dir::Vertical, 63, 65, CellState::Blocked);
        g.set_state(Dir::Vertical, 128, 69, CellState::Used(9));
        assert_bit_planes_match_state(&g);
    }

    #[test]
    fn every_cell_state_round_trips_through_its_code_on_both_planes() {
        let mut g = grid5();
        let states = [
            CellState::Used(0),
            CellState::Blocked,
            CellState::Used(u32::MAX - 2),
            CellState::Free,
            CellState::Used(7),
        ];
        for dir in Dir::BOTH {
            // Each cell of a diagonal goes through every state, so its
            // free bits are set and cleared in both directions.
            for shift in 0..states.len() {
                for k in 0..5 {
                    let s = states[(k + shift) % states.len()];
                    g.set_state(dir, k, 4 - k, s);
                    assert_eq!(g.state(dir, k, 4 - k), s, "{dir:?} cell {k}");
                }
                assert_bit_planes_match_state(&g);
            }
        }
        // The last round left each plane's diagonal in the same states.
        for k in 0..5 {
            let s = states[(k + states.len() - 1) % states.len()];
            for dir in Dir::BOTH {
                assert_eq!(g.state(dir, k, 4 - k), s, "{dir:?} cell {k}");
            }
        }
    }

    #[test]
    fn net_ids_without_a_code_panic_and_leave_the_cell_as_it_was() {
        let mut g = grid5();
        g.set_state(Dir::Vertical, 1, 2, CellState::Used(3));
        for id in [u32::MAX - 1, u32::MAX] {
            let set = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.set_state(Dir::Vertical, 1, 2, CellState::Used(id));
            }));
            assert!(set.is_err(), "Used({id}) has no code");
            assert_eq!(g.state(Dir::Vertical, 1, 2), CellState::Used(3));
        }
        assert_bit_planes_match_state(&g);
    }

    #[test]
    fn bitplane_tail_bits_are_not_free() {
        // 70 cross cells: the second word has 6 live bits and 58 tail
        // bits that must never read as free.
        let p = BitPlane::new(2, 70);
        assert!(p.is_free(1, 69));
        assert_eq!(p.words[2 * p.words_per_row - 1], mask_le(5));
        assert_eq!(p.next_not_free(0, 0, 69), None);
        assert_eq!(p.prev_not_free(1, 69, 0), None);
    }
}
