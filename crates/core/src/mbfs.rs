//! The Modified Breadth-First Search (MBFS) over the Track Intersection
//! Graph.
//!
//! Paper §3.1: "Path searching is accomplished using a modified breadth
//! first search (MBFS) algorithm. A path consists of a sequence of
//! alternating horizontal and vertical track segments. For each
//! two-terminal connection, all possible paths with the minimum number
//! of corners are found … Two modified breadth first searches are
//! performed, starting from one of the two terminals [one from the
//! terminal's vertical track, one from its horizontal track] … During
//! the MBFS for possible paths, each vertex is examined exactly once
//! with the exception of the target vertices. This results in the
//! exclusion of paths requiring more than one corner on the same track."
//!
//! Each BFS level adds one corner. The search stops at the first level
//! where a track of terminal 2 covers the terminal, and the predecessor
//! sets form the Path Selection Trees of §3.2 (see [`crate::pst`]). A
//! vertex is a whole track, as in the paper, and the search follows it
//! only along the maximal run through the cell where it was first
//! reached. The count is therefore the minimum over such paths, not
//! always the true minimum: against a brute-force 0-1 BFS on 2,000
//! seeded searches, MBFS finds no path 27 times where one exists and
//! uses one extra corner once (a test below pins both counts).
//!
//! **The graph is the grid.** The search reads [`GridModel`]'s free
//! runs, corner words and [`GridModel::corner_usable`] directly; see
//! [`crate::tig`]. [`search_min_corner_paths`] is the one entry point:
//! it runs both passes on a borrowed [`SearchScratch`], and the PSTs it
//! returns view the scratch's arenas and the grid.
//!
//! **Expansion is word-parallel and records no edges.** Expanding a
//! vertex walks its free run 64 cross-indices at a time and keeps only
//! the perpendicular tracks not yet in the search (`run & !live`). The
//! corner test reads [`GridModel::corner_free_word`] (free on both
//! planes); the cell enum is consulted only where that bit is clear,
//! since the cell may hold the net's own wiring. A new track gets its
//! level and run and joins the discovery order, which is also the
//! expansion order.
//!
//! **Edges are derived backward, and only where they are read.** `u → v`
//! exactly when `v` is one level below `u`, `v`'s track lies in `u`'s
//! run, and their corner is usable: the set of pairs a cell-by-cell
//! expansion links. The first parents read sweeps the levels from the
//! last to the first against a bitset of needed children. Path selection
//! walks from the targets back, so its sweep starts from the targets and
//! each parent it finds is needed one level up; the 1–2 targets are all
//! it needs of the last level, where most vertices lie. [`Pst::get`] and
//! [`Pst::iter`] start the same sweep from every vertex. Taking `u` in
//! discovery order gives every child its parents in the order an eager
//! expansion finds them. Only a successful search's trees are read, so a
//! failed search derives nothing.

use ocr_geom::Dir;
use ocr_grid::GridModel;
use std::sync::OnceLock;

/// A TIG vertex: a physical routing track.
pub type VertexKey = (Dir, usize);

/// Dense arena index of a TIG vertex: vertical track `k` ↔ slot `k`,
/// horizontal track `k` ↔ slot `nv + k`.
pub(crate) type Slot = u32;

/// One arena slot of a [`PstStore`]. A slot belongs to the current
/// search iff `gen` equals the store's generation; stale slots need no
/// clearing.
#[derive(Clone, Copy, Debug, Default)]
struct SlotData {
    gen: u32,
    level: u32,
    run_lo: u32,
    run_hi: u32,
}

/// The PST edges grouped by child, in compressed-row form: the parents
/// of slot `s` are `parents[start[s]..start[s + 1]]`.
#[derive(Clone, Debug, Default)]
struct ByChild {
    start: Vec<u32>,
    parents: Vec<Slot>,
}

impl ByChild {
    /// The parents of `slot`.
    #[inline]
    fn of(&self, slot: Slot) -> &[Slot] {
        &self.parents[self.start[slot as usize] as usize..self.start[slot as usize + 1] as usize]
    }

    /// A counting sort of `edges`, given as `(parent, child)` pairs over
    /// `n` slots. It is stable, so each child's parents keep the order
    /// of `edges`.
    fn group(n: usize, edges: &[(Slot, Slot)]) -> ByChild {
        let mut start = vec![0u32; n + 1];
        for &(_, v) in edges {
            start[v as usize + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut fill = start.clone();
        let mut parents = vec![0; edges.len()];
        for &(u, v) in edges {
            parents[fill[v as usize] as usize] = u;
            fill[v as usize] += 1;
        }
        ByChild { start, parents }
    }
}

/// Dense per-search vertex arena backing a [`Pst`].
///
/// Lookups index directly by track id, and the arena is reused across
/// nets without clearing via generation stamps: `begin` bumps the
/// generation, instantly invalidating every slot.
///
/// The search stores vertices only: each slot's level and run, plus the
/// discovery order, in which each level is one contiguous stretch. The
/// edges are derived from these and the grid on the first parents
/// read (see the module doc). Path selection reads them for successful
/// searches; a failed search, most of the full-die work, never pays for
/// them.
#[derive(Clone, Debug, Default)]
pub(crate) struct PstStore {
    nv: u32,
    slots: Vec<SlotData>,
    cur_gen: u32,
    /// The vertices of the current search in discovery order.
    order: Vec<Slot>,
    /// The edges into the vertices the selection walk can read: the
    /// targets and, level by level, their parents.
    walk_edges: OnceLock<ByChild>,
    /// The edges into every vertex, for [`Pst::get`] and [`Pst::iter`].
    all_edges: OnceLock<ByChild>,
}

impl PstStore {
    /// Starts a new search generation over an `nv × nh` grid.
    fn begin(&mut self, nv: usize, nh: usize) {
        let n = nv + nh;
        if self.slots.len() < n {
            self.slots.resize_with(n, SlotData::default);
        }
        self.nv = nv as u32;
        self.order.clear();
        self.walk_edges = OnceLock::new();
        self.all_edges = OnceLock::new();
        if self.cur_gen == u32::MAX {
            for s in &mut self.slots {
                s.gen = 0;
            }
            self.cur_gen = 1;
        } else {
            self.cur_gen += 1;
        }
    }

    #[inline]
    fn slot_of(&self, key: VertexKey) -> Slot {
        match key.0 {
            Dir::Vertical => key.1 as Slot,
            Dir::Horizontal => self.nv + key.1 as Slot,
        }
    }

    #[inline]
    fn key_of(&self, slot: Slot) -> VertexKey {
        if slot < self.nv {
            (Dir::Vertical, slot as usize)
        } else {
            (Dir::Horizontal, (slot - self.nv) as usize)
        }
    }

    #[inline]
    fn is_live(&self, slot: Slot) -> bool {
        self.slots[slot as usize].gen == self.cur_gen
    }

    #[inline]
    fn level_of(&self, slot: Slot) -> usize {
        self.slots[slot as usize].level as usize
    }

    #[inline]
    fn run_of(&self, slot: Slot) -> (usize, usize) {
        let d = &self.slots[slot as usize];
        (d.run_lo as usize, d.run_hi as usize)
    }

    /// The parents of `slot` as the selection walk reads them, in
    /// discovery order: the first read derives the edges into `targets`
    /// and their ancestors, for `net` on `grid`. A vertex outside them
    /// reads no parents.
    #[inline]
    fn walk_parents_of(
        &self,
        slot: Slot,
        grid: &GridModel,
        net: u32,
        targets: &[VertexKey],
    ) -> &[Slot] {
        self.walk_edges
            .get_or_init(|| self.derive(grid, net, targets.iter().map(|&t| self.slot_of(t))))
            .of(slot)
    }

    /// The parents of any `slot`, in discovery order: the first read
    /// derives every edge of the search for `net` on `grid`.
    fn all_parents_of(&self, slot: Slot, grid: &GridModel, net: u32) -> &[Slot] {
        self.all_edges
            .get_or_init(|| self.derive(grid, net, self.order.iter().copied()))
            .of(slot)
    }

    /// Derives the parents of the vertices in `seed` and of every parent
    /// found, in one sweep from the last level to the first: `u → v` for
    /// each needed `v` one level below `u` whose track lies in `u`'s run
    /// and whose corner with `u` is usable by `net`, and such a `u` is
    /// needed in turn. Every vertex of one level runs in the same
    /// direction, so the needed children are one bitset of tracks, read
    /// a word at a time like the expansion. `u` goes in discovery order,
    /// which puts every child's parents in that order.
    fn derive(&self, grid: &GridModel, net: u32, seed: impl Iterator<Item = Slot>) -> ByChild {
        let mut needed = vec![0u64; self.slots.len().div_ceil(64)];
        for slot in seed {
            set_bit(&mut needed, slot as usize);
        }
        let mut edges = Vec::new();
        let mut below = vec![0u64; grid.nv().max(grid.nh()).div_ceil(64)];
        let order = &self.order;
        // `order[mid..to]` is the level whose parents are derived next,
        // `order[from..mid]` the level above it.
        let mut to = order.len();
        while to > 0 {
            let level = self.level_of(order[to - 1]);
            if level == 0 {
                break;
            }
            let mid = order[..to].partition_point(|&s| self.level_of(s) < level);
            let from = order[..mid].partition_point(|&s| self.level_of(s) < level - 1);
            let mut any = false;
            for &v in &order[mid..to] {
                if has_bit(&needed, v as usize) {
                    set_bit(&mut below, self.key_of(v).1);
                    any = true;
                }
            }
            if !any {
                // Nothing further up is needed either.
                break;
            }
            for &u in &order[from..mid] {
                let (u_dir, u_track) = self.key_of(u);
                let (lo, hi) = self.run_of(u);
                let perp_base = self.slot_of((u_dir.perp(), 0));
                let mut is_parent = false;
                for (w, &below_w) in (lo / 64..).zip(&below[lo / 64..=hi / 64]) {
                    let cand = range_mask(w, lo, hi) & below_w;
                    if cand == 0 {
                        continue;
                    }
                    let corner_free = grid.corner_free_word(u_dir, u_track, w);
                    let mut usable = cand & corner_free;
                    let mut rest = cand & !corner_free;
                    while rest != 0 {
                        let b = rest.trailing_zeros();
                        rest &= rest - 1;
                        let k = w * 64 + b as usize;
                        let (ci, cj) = match u_dir {
                            Dir::Horizontal => (k, u_track),
                            Dir::Vertical => (u_track, k),
                        };
                        if grid.corner_usable(net, ci, cj) {
                            usable |= 1 << b;
                        }
                    }
                    is_parent |= usable != 0;
                    while usable != 0 {
                        let b = usable.trailing_zeros();
                        usable &= usable - 1;
                        edges.push((u, perp_base + (w * 64) as Slot + b));
                    }
                }
                if is_parent {
                    set_bit(&mut needed, u as usize);
                }
            }
            for &v in &order[mid..to] {
                clear_bit(&mut below, self.key_of(v).1);
            }
            to = mid;
        }
        ocr_obs::count("level_b.pst_edges", edges.len() as u64);
        ByChild::group(self.slots.len(), &edges)
    }

    /// The read view of live `slot`, with all its parents.
    fn vertex(&self, slot: Slot, grid: &GridModel, net: u32) -> PstVertex<'_> {
        PstVertex {
            level: self.level_of(slot),
            run: self.run_of(slot),
            parents: self.all_parents_of(slot, grid, net),
            store: self,
        }
    }

    /// Claims `slot` for the current generation, records its discovery
    /// level and free run, and appends it to the discovery order.
    #[inline]
    fn insert(&mut self, slot: Slot, level: usize, run: (usize, usize)) {
        self.slots[slot as usize] = SlotData {
            gen: self.cur_gen,
            level: level as u32,
            run_lo: run.0 as u32,
            run_hi: run.1 as u32,
        };
        self.order.push(slot);
    }
}

/// A read view of one visited vertex of a [`Pst`] (the arena-backed
/// replacement for the former public `VertexData`).
#[derive(Clone, Copy, Debug)]
pub struct PstVertex<'a> {
    /// BFS level = number of corners on any path reaching this vertex.
    pub level: usize,
    /// The free run (cross-index interval) of the track reachable within
    /// the window, recorded at first discovery.
    pub run: (usize, usize),
    parents: &'a [Slot],
    store: &'a PstStore,
}

impl<'a> PstVertex<'a> {
    /// All predecessors one level up (the Path Selection Tree edges), in
    /// discovery order.
    pub fn parents(&self) -> impl Iterator<Item = VertexKey> + 'a {
        let store = self.store;
        self.parents.iter().map(move |&s| store.key_of(s))
    }
}

/// The outcome of one MBFS: a Path Selection Tree rooted at `start`,
/// viewing the vertex arena of the [`SearchScratch`] it ran on and the
/// grid it searched, from which its edges are derived.
#[derive(Clone, Debug)]
pub struct Pst<'a> {
    /// The start vertex (one of terminal 1's two tracks).
    pub start: VertexKey,
    /// Target vertices reached at the minimum level (each is a track of
    /// terminal 2 whose run covers the terminal).
    pub targets: Vec<VertexKey>,
    /// Minimum corner count found, if any path exists.
    pub corners: Option<usize>,
    /// Vertices expanded (performance counter for the maze comparison).
    pub expanded: usize,
    /// The vertex arena of this search.
    store: &'a PstStore,
    /// The grid searched and the net searched for.
    grid: &'a GridModel,
    net: u32,
}

impl<'a> Pst<'a> {
    /// The recorded data of a visited vertex, if the search reached it.
    /// The first call here or in [`Pst::iter`] derives every edge of the
    /// tree.
    pub fn get(&self, key: VertexKey) -> Option<PstVertex<'a>> {
        let n = match key.0 {
            Dir::Vertical => self.store.nv as usize,
            Dir::Horizontal => self
                .store
                .slots
                .len()
                .saturating_sub(self.store.nv as usize),
        };
        if key.1 >= n {
            return None;
        }
        let slot = self.store.slot_of(key);
        self.store
            .is_live(slot)
            .then(|| self.store.vertex(slot, self.grid, self.net))
    }

    /// Iterates every visited vertex in slot order (vertical tracks
    /// first, then horizontal).
    pub fn iter(&self) -> impl Iterator<Item = (VertexKey, PstVertex<'a>)> {
        let (store, grid, net) = (self.store, self.grid, self.net);
        (0..store.slots.len() as Slot)
            .filter(move |&slot| store.is_live(slot))
            .map(move |slot| (store.key_of(slot), store.vertex(slot, grid, net)))
    }

    #[inline]
    pub(crate) fn slot_of(&self, key: VertexKey) -> Slot {
        self.store.slot_of(key)
    }

    #[inline]
    pub(crate) fn key_of(&self, slot: Slot) -> VertexKey {
        self.store.key_of(slot)
    }

    /// The parents of `slot` as the selection walk reads them: derived
    /// only for the targets and their ancestors, so any other vertex
    /// reads none.
    #[inline]
    pub(crate) fn parents_of(&self, slot: Slot) -> &'a [Slot] {
        self.store
            .walk_parents_of(slot, self.grid, self.net, &self.targets)
    }
}

/// Sets bit `k` of a bitset.
#[inline]
fn set_bit(bits: &mut [u64], k: usize) {
    bits[k / 64] |= 1 << (k % 64);
}

/// `true` if bit `k` of a bitset is set.
#[inline]
fn has_bit(bits: &[u64], k: usize) -> bool {
    bits[k / 64] >> (k % 64) & 1 == 1
}

/// Clears bit `k` of a bitset.
#[inline]
fn clear_bit(bits: &mut [u64], k: usize) {
    bits[k / 64] &= !(1 << (k % 64));
}

/// The bits of word `w` that fall inside the closed range `[lo, hi]`.
#[inline]
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let from = if w == lo / 64 { lo % 64 } else { 0 };
    let to = if w == hi / 64 { hi % 64 } else { 63 };
    (!0u64 << from) & (!0u64 >> (63 - to))
}

/// Reusable search state: the two PST arenas, the MBFS's per-track
/// bitsets and the maze wave's buffers.
///
/// A [`crate::level_b::LevelBRouter`] holds one of these and lends it to
/// every window attempt through [`search_min_corner_paths`]; the
/// returned [`SearchOutcome`] views its arenas until it is dropped, and
/// the next search reuses their allocations. The maze fallback and the
/// rip-up probe borrow its maze buffers.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    store_v: PstStore,
    store_h: PstStore,
    /// Per direction ([`Dir::index`]), one bit per track: the track is a
    /// vertex of the running search.
    live: [Vec<u64>; 2],
    /// Buffers of the maze fallback and the rip-up probe.
    pub(crate) maze: ocr_maze::MazeScratch,
}

impl SearchScratch {
    /// Empty scratch; buffers grow to the working set of the first
    /// searches and are then reused.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// Inclusive index window bounding one search (the paper's rectangular
/// region defined by the two terminal locations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchWindow {
    /// Lowest vertical-track index.
    pub i0: usize,
    /// Highest vertical-track index.
    pub i1: usize,
    /// Lowest horizontal-track index.
    pub j0: usize,
    /// Highest horizontal-track index.
    pub j1: usize,
}

impl SearchWindow {
    /// Window spanning the two terminals expanded by `margin` tracks,
    /// clipped to the grid.
    pub fn around(
        grid: &GridModel,
        a: (usize, usize),
        b: (usize, usize),
        margin: usize,
    ) -> SearchWindow {
        SearchWindow {
            i0: a.0.min(b.0).saturating_sub(margin),
            i1: (a.0.max(b.0) + margin).min(grid.nv() - 1),
            j0: a.1.min(b.1).saturating_sub(margin),
            j1: (a.1.max(b.1) + margin).min(grid.nh() - 1),
        }
    }

    /// The full-grid window.
    pub fn full(grid: &GridModel) -> SearchWindow {
        SearchWindow {
            i0: 0,
            i1: grid.nv() - 1,
            j0: 0,
            j1: grid.nh() - 1,
        }
    }

    /// Cross-index bounds for a track running in `dir`.
    fn cross_bounds(&self, dir: Dir) -> (usize, usize) {
        match dir {
            Dir::Horizontal => (self.i0, self.i1), // run over vertical indices
            Dir::Vertical => (self.j0, self.j1),
        }
    }

    /// `true` if the track itself lies inside the window.
    fn track_in(&self, key: VertexKey) -> bool {
        match key.0 {
            Dir::Horizontal => self.j0 <= key.1 && key.1 <= self.j1,
            Dir::Vertical => self.i0 <= key.1 && key.1 <= self.i1,
        }
    }
}

/// Runs one MBFS for `net` from terminal `term1`'s track of direction
/// `start_dir`, searching for terminal `term2` within `window`, on the
/// arena `store` and the per-track bitsets `live`.
///
/// Terminals are grid indices `(i, j)` (vertical track, horizontal
/// track). Returns the Path Selection Tree, which views `store` and
/// `grid`; `corners` is `None` when no path exists within the window.
#[allow(clippy::too_many_arguments)]
fn mbfs_pass<'s>(
    grid: &'s GridModel,
    net: u32,
    start_dir: Dir,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
    store: &'s mut PstStore,
    live: &mut [Vec<u64>; 2],
) -> Pst<'s> {
    let start_track = match start_dir {
        Dir::Horizontal => term1.1,
        Dir::Vertical => term1.0,
    };
    let start: VertexKey = (start_dir, start_track);
    store.begin(grid.nv(), grid.nh());
    for (d, n) in [(Dir::Horizontal, grid.nh()), (Dir::Vertical, grid.nv())] {
        let bits = &mut live[d.index()];
        bits.clear();
        bits.resize(n.div_ceil(64), 0);
    }
    let mut targets = Vec::new();
    let mut expanded = 0;

    // The two target track slots of terminal 2.
    let target_v = store.slot_of((Dir::Vertical, term2.0));
    let target_h = store.slot_of((Dir::Horizontal, term2.1));
    let covers_term2 = |slot: Slot, run: (usize, usize)| -> bool {
        if slot == target_v {
            run.0 <= term2.1 && term2.1 <= run.1
        } else if slot == target_h {
            run.0 <= term2.0 && term2.0 <= run.1
        } else {
            false
        }
    };
    let through1 = match start_dir {
        Dir::Horizontal => term1.0,
        Dir::Vertical => term1.1,
    };

    let corners = 'search: {
        if !window.track_in(start) {
            break 'search None;
        }
        let (wlo, whi) = window.cross_bounds(start_dir);
        let Some(run0) = grid.free_run(net, start_dir, start_track, through1, wlo, whi) else {
            break 'search None;
        };
        let start_slot = store.slot_of(start);
        store.insert(start_slot, 0, run0);
        set_bit(&mut live[start_dir.index()], start_track);
        if covers_term2(start_slot, run0) {
            targets.push(start);
            break 'search Some(0);
        }

        // The frontier is the discovery order's last level,
        // `order[frontier..level_end]`; expanding it appends the next.
        let mut frontier = 0;
        let mut level = 0usize;
        while frontier < store.order.len() {
            let level_end = store.order.len();
            for at in frontier..level_end {
                let u_slot = store.order[at];
                expanded += 1;
                let (u_dir, u_track) = store.key_of(u_slot);
                let (lo, hi) = store.run_of(u_slot);
                let perp = u_dir.perp();
                let (plo, phi) = window.cross_bounds(perp);
                let p = perp.index();
                for (w, live_w) in (lo / 64..).zip(&mut live[p][lo / 64..=hi / 64]) {
                    // Only tracks new to the search; the edges to the
                    // level below are derived on read.
                    let mut cand = range_mask(w, lo, hi) & !*live_w;
                    if cand == 0 {
                        continue;
                    }
                    let corner_free = grid.corner_free_word(u_dir, u_track, w);
                    while cand != 0 {
                        let b = cand.trailing_zeros() as usize;
                        cand &= cand - 1;
                        let k = w * 64 + b;
                        // Corner cell between track u and perpendicular track k.
                        let (ci, cj) = match u_dir {
                            Dir::Horizontal => (k, u_track),
                            Dir::Vertical => (u_track, k),
                        };
                        if corner_free >> b & 1 == 0 && !grid.corner_usable(net, ci, cj) {
                            continue;
                        }
                        // u's run is clipped to the window's cross bounds,
                        // which are the window's bounds on perpendicular
                        // tracks.
                        let v: VertexKey = (perp, k);
                        debug_assert!(window.track_in(v));
                        let through = match perp {
                            Dir::Horizontal => ci,
                            Dir::Vertical => cj,
                        };
                        let Some(vrun) = grid.free_run(net, perp, k, through, plo, phi) else {
                            continue;
                        };
                        store.insert(store.slot_of(v), level + 1, vrun);
                        *live_w |= 1 << b;
                    }
                }
            }
            // Level `level + 1` is now complete: check for targets.
            for &v_slot in &store.order[level_end..] {
                if covers_term2(v_slot, store.run_of(v_slot)) {
                    targets.push(store.key_of(v_slot));
                }
            }
            if !targets.is_empty() {
                break 'search Some(level + 1);
            }
            frontier = level_end;
            level += 1;
        }
        None
    };
    Pst {
        start,
        targets,
        corners,
        expanded,
        store,
        grid,
        net,
    }
}

/// The paper's two MBFS passes (from terminal 1's vertical and
/// horizontal tracks) and the global minimum corner count.
#[derive(Clone, Debug)]
pub struct SearchOutcome<'a> {
    /// PST of the search started from terminal 1's vertical track.
    pub from_v: Pst<'a>,
    /// PST of the search started from terminal 1's horizontal track.
    pub from_h: Pst<'a>,
    /// Global minimum corner count over both searches.
    pub corners: Option<usize>,
    /// Total vertices expanded by both searches.
    pub expanded: usize,
}

/// Runs both MBFS passes for one two-terminal connection on `scratch`.
/// The outcome's PSTs view the scratch's arenas and `grid`, so it must
/// be dropped before the scratch runs the next search or the grid
/// changes.
pub fn search_min_corner_paths<'s>(
    grid: &'s GridModel,
    net: u32,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
    scratch: &'s mut SearchScratch,
) -> SearchOutcome<'s> {
    let SearchScratch {
        store_v,
        store_h,
        live,
        ..
    } = scratch;
    let from_v = mbfs_pass(
        grid,
        net,
        Dir::Vertical,
        term1,
        term2,
        window,
        store_v,
        live,
    );
    let from_h = mbfs_pass(
        grid,
        net,
        Dir::Horizontal,
        term1,
        term2,
        window,
        store_h,
        live,
    );
    let corners = match (from_v.corners, from_h.corners) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let expanded = from_v.expanded + from_h.expanded;
    SearchOutcome {
        from_v,
        from_h,
        corners,
        expanded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{random_grid, Mix};
    use ocr_geom::{Interval, Rect};
    use ocr_grid::{GridModel, TrackSet};

    fn grid(n: i64, pitch: i64) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    #[test]
    fn l_connection_needs_one_corner() {
        let g = grid(100, 10);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 0), (10, 10), &w, &mut scratch);
        assert_eq!(out.corners, Some(1));
    }

    #[test]
    fn straight_connection_needs_zero_corners() {
        let g = grid(100, 10);
        let w = SearchWindow::full(&g);
        // Same row: terminal 1 at (0, 5), terminal 2 at (10, 5).
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &w, &mut scratch);
        assert_eq!(out.corners, Some(0));
        // The zero-corner path comes from the horizontal-track search.
        assert_eq!(out.from_h.corners, Some(0));
    }

    #[test]
    fn obstacle_raises_corner_count() {
        let mut g = grid(100, 10);
        // Block the direct horizontal run between the terminals on the
        // horizontal plane, full width of the gap.
        g.block_rect(&Rect::new(25, 45, 75, 55), Dir::Horizontal);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &w, &mut scratch);
        // Must dodge: at least 2 corners now.
        assert!(out.corners.expect("path exists") >= 2);
    }

    #[test]
    fn no_path_in_sealed_box() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            // Seal terminal 1 inside a box.
            g.block_rect(&Rect::new(15, 15, 45, 45), dir);
        }
        // Terminal inside the blocked region interior.
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (3, 3), (9, 9), &w, &mut scratch);
        assert_eq!(out.corners, None);
    }

    #[test]
    fn window_limits_search() {
        let mut g = grid(100, 10);
        // Wall forcing a detour outside the tight window.
        g.block_rect(&Rect::new(35, -5, 45, 85), Dir::Horizontal);
        g.block_rect(&Rect::new(35, -5, 45, 85), Dir::Vertical);
        let tight = SearchWindow::around(&g, (0, 5), (10, 5), 1);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &tight, &mut scratch);
        assert_eq!(out.corners, None, "detour requires leaving the window");
        let full = SearchWindow::full(&g);
        let out2 = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &full, &mut scratch);
        assert!(out2.corners.is_some());
    }

    #[test]
    fn parents_record_all_min_corner_predecessors() {
        let g = grid(100, 10);
        let w = SearchWindow::full(&g);
        // From (0,0) to (10,10) starting via the horizontal track at
        // j=0: h0 covers i=10, corner at (10, 0), then v10 up to (10,10):
        // the target v-track v10 reached at level 1.
        let mut scratch = SearchScratch::new();
        let pst = search_min_corner_paths(&g, 0, (0, 0), (10, 10), &w, &mut scratch).from_h;
        assert_eq!(pst.corners, Some(1));
        // All 11 vertical tracks become level-1 vertices; the target v10
        // has exactly one parent (h0).
        let t = pst.get((Dir::Vertical, 10)).expect("visited");
        assert_eq!(t.level, 1);
        assert_eq!(t.parents().collect::<Vec<_>>(), vec![(Dir::Horizontal, 0)]);
    }

    #[test]
    fn blocked_straight_line_needs_two_corners() {
        let mut g = grid(100, 10);
        // Terminals share row y = 50; the row between them is cut on the
        // horizontal plane, but the vertical plane stays open, so a
        // U-shaped 2-corner dodge exists.
        g.block_rect(&Rect::new(25, 45, 75, 55), Dir::Horizontal);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &w, &mut scratch);
        assert_eq!(out.corners, Some(2));
    }

    #[test]
    fn target_terminal_cell_blocked_on_one_plane_still_reachable() {
        let mut g = grid(100, 10);
        // The target's vertical plane is occupied by another net; the
        // horizontal-track approach still lands.
        g.set_state(Dir::Vertical, 10, 5, ocr_grid::CellState::Used(99));
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 5), (10, 5), &w, &mut scratch);
        assert_eq!(out.corners, Some(0), "same-row run needs no corner");
    }

    #[test]
    fn both_searches_agree_when_symmetric() {
        let g = grid(100, 10);
        let w = SearchWindow::full(&g);
        // Diagonal terminals: both the v-start and h-start searches find
        // 1-corner paths (the two L orientations).
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (2, 2), (8, 8), &w, &mut scratch);
        assert_eq!(out.from_v.corners, Some(1));
        assert_eq!(out.from_h.corners, Some(1));
    }

    #[test]
    fn pst_store_groups_parents_by_child_in_push_order() {
        let g = grid(100, 10);
        let mut store = PstStore::default();
        for round in 0..2 {
            // A second generation must not see the first one's edges.
            store.begin(3, 3);
            assert!(store.walk_edges.get().is_none(), "round {round}");
            assert!(store.all_edges.get().is_none(), "round {round}");
            let edges: &[(Slot, Slot)] = if round == 0 {
                &[(0, 3), (0, 4), (1, 3), (2, 5), (2, 4), (0, 3), (1, 4)]
            } else {
                &[(2, 4)]
            };
            store.walk_edges = OnceLock::from(ByChild::group(6, edges));
            store.all_edges = OnceLock::from(ByChild::group(6, edges));
            for child in 0..6 {
                let want: Vec<Slot> = edges.iter().filter(|e| e.1 == child).map(|e| e.0).collect();
                let ctx = format!("round {round}, child {child}");
                assert_eq!(store.walk_parents_of(child, &g, 0, &[]), want, "{ctx}");
                assert_eq!(store.all_parents_of(child, &g, 0), want, "{ctx}");
            }
        }
    }

    /// The cell-by-cell MBFS pass the word-parallel [`mbfs_pass`]
    /// replaced: one `corner_usable` per cell of every expanded run, and
    /// every edge recorded as it is found. It is the reference the
    /// differential test holds the production pass and its derived
    /// edges to.
    fn mbfs_reference<'s>(
        g: &'s GridModel,
        net: u32,
        start_dir: Dir,
        term1: (usize, usize),
        term2: (usize, usize),
        window: &SearchWindow,
        store: &'s mut PstStore,
    ) -> Pst<'s> {
        let start_track = match start_dir {
            Dir::Horizontal => term1.1,
            Dir::Vertical => term1.0,
        };
        let start: VertexKey = (start_dir, start_track);
        store.begin(g.nv(), g.nh());
        let (mut targets, mut expanded) = (Vec::new(), 0);
        // `(parent, child)` in the order the expansion finds them.
        let mut edges: Vec<(Slot, Slot)> = Vec::new();
        let target_v = store.slot_of((Dir::Vertical, term2.0));
        let target_h = store.slot_of((Dir::Horizontal, term2.1));
        let covers_term2 = |slot: Slot, run: (usize, usize)| -> bool {
            if slot == target_v {
                run.0 <= term2.1 && term2.1 <= run.1
            } else if slot == target_h {
                run.0 <= term2.0 && term2.0 <= run.1
            } else {
                false
            }
        };
        let through1 = match start_dir {
            Dir::Horizontal => term1.0,
            Dir::Vertical => term1.1,
        };
        let corners = 'search: {
            if !window.track_in(start) {
                break 'search None;
            }
            let (wlo, whi) = window.cross_bounds(start_dir);
            let Some(run0) = g.free_run(net, start_dir, start_track, through1, wlo, whi) else {
                break 'search None;
            };
            let start_slot = store.slot_of(start);
            store.insert(start_slot, 0, run0);
            if covers_term2(start_slot, run0) {
                targets.push(start);
                break 'search Some(0);
            }
            let mut frontier = vec![start_slot];
            let mut level = 0usize;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &u_slot in &frontier {
                    expanded += 1;
                    let (u_dir, u_track) = store.key_of(u_slot);
                    let run = store.run_of(u_slot);
                    let perp = u_dir.perp();
                    for k in run.0..=run.1 {
                        let (ci, cj) = match u_dir {
                            Dir::Horizontal => (k, u_track),
                            Dir::Vertical => (u_track, k),
                        };
                        if !g.corner_usable(net, ci, cj) {
                            continue;
                        }
                        let v: VertexKey = (perp, k);
                        if !window.track_in(v) {
                            continue;
                        }
                        let v_slot = store.slot_of(v);
                        if store.is_live(v_slot) {
                            if store.level_of(v_slot) == level + 1 {
                                edges.push((u_slot, v_slot));
                            }
                        } else {
                            let (plo, phi) = window.cross_bounds(perp);
                            let through = match perp {
                                Dir::Horizontal => ci,
                                Dir::Vertical => cj,
                            };
                            let Some(vrun) = g.free_run(net, perp, k, through, plo, phi) else {
                                continue;
                            };
                            store.insert(v_slot, level + 1, vrun);
                            edges.push((u_slot, v_slot));
                            next.push(v_slot);
                        }
                    }
                }
                for &v_slot in &next {
                    if covers_term2(v_slot, store.run_of(v_slot)) {
                        targets.push(store.key_of(v_slot));
                    }
                }
                if !targets.is_empty() {
                    break 'search Some(level + 1);
                }
                frontier = next;
                level += 1;
            }
            None
        };
        store.all_edges = OnceLock::from(ByChild::group(store.slots.len(), &edges));
        Pst {
            start,
            targets,
            corners,
            expanded,
            store,
            grid: g,
            net,
        }
    }

    /// Everything a PST records, in a comparable form: start, targets,
    /// corners, `expanded`, and every vertex with its level, run and
    /// parents in discovery order.
    #[allow(clippy::type_complexity)]
    fn pst_record(
        pst: &Pst,
    ) -> (
        VertexKey,
        Vec<VertexKey>,
        Option<usize>,
        usize,
        Vec<(VertexKey, usize, (usize, usize), Vec<VertexKey>)>,
    ) {
        let vertices = pst
            .iter()
            .map(|(key, v)| (key, v.level, v.run, v.parents().collect()))
            .collect();
        (
            pst.start,
            pst.targets.clone(),
            pst.corners,
            pst.expanded,
            vertices,
        )
    }

    /// The seeded differential instances: 1,200 random grids, each with
    /// its two terminals and a full or clipped window, passed to `f` with
    /// their case number.
    const INSTANCES: usize = 1200;
    fn seeded_searches(
        mut f: impl FnMut(usize, &GridModel, (usize, usize), (usize, usize), SearchWindow),
    ) {
        let mut rng = Mix(0x0b_f5d1);
        for case in 0..INSTANCES {
            let (g, a, b) = random_grid(&mut rng);
            let window = if rng.below(3) == 0 {
                SearchWindow::full(&g)
            } else {
                SearchWindow::around(&g, a, b, rng.below(12))
            };
            f(case, &g, a, b, window);
        }
    }

    #[test]
    fn word_parallel_mbfs_matches_the_per_cell_reference() {
        let mut scratch = SearchScratch::new();
        let (mut found, mut failed, mut deep) = (0, 0, 0);
        seeded_searches(|case, g, a, b, window| {
            // One scratch across every instance, as in the router.
            let out = search_min_corner_paths(g, 1, a, b, &window, &mut scratch);
            let (mut store_v, mut store_h) = (PstStore::default(), PstStore::default());
            let ref_v = mbfs_reference(g, 1, Dir::Vertical, a, b, &window, &mut store_v);
            let ref_h = mbfs_reference(g, 1, Dir::Horizontal, a, b, &window, &mut store_h);
            let ctx = format!("case {case}: {}×{} {a:?}→{b:?} {window:?}", g.nv(), g.nh());
            assert_eq!(pst_record(&out.from_v), pst_record(&ref_v), "{ctx}, from_v");
            assert_eq!(pst_record(&out.from_h), pst_record(&ref_h), "{ctx}, from_h");
            let corners = match (ref_v.corners, ref_h.corners) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            };
            assert_eq!(out.corners, corners, "{ctx}");
            assert_eq!(out.expanded, ref_v.expanded + ref_h.expanded, "{ctx}");
            match out.corners {
                Some(c) => {
                    found += 1;
                    deep += usize::from(c >= 2);
                }
                None => failed += 1,
            }
        });
        // The instances exercise success, failure and multi-level searches.
        assert!(found >= INSTANCES / 4, "{found} found");
        assert!(failed >= INSTANCES / 20, "{failed} failed");
        assert!(deep >= INSTANCES / 20, "{deep} with two or more corners");
    }

    #[test]
    fn the_walk_only_sweep_gives_every_vertex_the_walk_reads_its_full_parents() {
        let mut scratch = SearchScratch::new();
        let (mut read, mut multi_parent, mut walk_edges, mut all_edges) = (0, 0, 0, 0);
        seeded_searches(|case, g, a, b, window| {
            let out = search_min_corner_paths(g, 1, a, b, &window, &mut scratch);
            let (mut store_v, mut store_h) = (PstStore::default(), PstStore::default());
            let ref_v = mbfs_reference(g, 1, Dir::Vertical, a, b, &window, &mut store_v);
            let ref_h = mbfs_reference(g, 1, Dir::Horizontal, a, b, &window, &mut store_h);
            for (pst, reference) in [(&out.from_v, &ref_v), (&out.from_h, &ref_h)] {
                // The walk reads the parents of the targets and, from
                // there back, of every parent it admits: at most the
                // targets' ancestors, which are visited here.
                let mut seen = vec![false; pst.store.slots.len()];
                let mut stack: Vec<Slot> = pst.targets.iter().map(|&t| pst.slot_of(t)).collect();
                let mut edges = 0;
                while let Some(slot) = stack.pop() {
                    if std::mem::replace(&mut seen[slot as usize], true) {
                        continue;
                    }
                    let key = pst.key_of(slot);
                    let walk: Vec<VertexKey> = pst
                        .parents_of(slot)
                        .iter()
                        .map(|&p| pst.key_of(p))
                        .collect();
                    let full: Vec<VertexKey> = pst.get(key).expect("visited").parents().collect();
                    assert_eq!(walk, full, "case {case}, {key:?}");
                    // Both in the order the eager expansion pushed them.
                    let eager: Vec<VertexKey> =
                        reference.get(key).expect("visited").parents().collect();
                    assert_eq!(walk, eager, "case {case}, {key:?}, eager order");
                    read += 1;
                    multi_parent += usize::from(walk.len() >= 2);
                    edges += walk.len();
                    stack.extend(pst.parents_of(slot));
                }
                // The walk-only sweep derived no edge outside them.
                let derived = pst.store.walk_edges.get().map_or(0, |e| e.parents.len());
                assert_eq!(derived, edges, "case {case}");
                walk_edges += edges;
                all_edges += pst.iter().map(|(_, v)| v.parents().count()).sum::<usize>();
            }
        });
        // Deep trees with multi-parent vertices, so a sweep that lost the
        // needed set or the parent order would show; and the walk reads
        // a small part of every tree's edges.
        assert!(read >= INSTANCES, "{read} vertices read");
        assert!(
            multi_parent >= INSTANCES / 10,
            "{multi_parent} multi-parent"
        );
        assert!(
            walk_edges * 10 < all_edges,
            "{walk_edges} of {all_edges} edges derived for the walk"
        );
    }

    #[test]
    fn a_failed_search_records_no_edges_until_its_parents_are_read() {
        let mut rng = Mix(0xed_9e5);
        let mut scratch = SearchScratch::new();
        for _ in 0..200 {
            let (g, a, b) = random_grid(&mut rng);
            let window = SearchWindow::full(&g);
            let out = search_min_corner_paths(&g, 1, a, b, &window, &mut scratch);
            if out.corners.is_some() || out.from_v.expanded < 2 {
                continue;
            }
            let mut store = PstStore::default();
            let reference = mbfs_reference(&g, 1, Dir::Vertical, a, b, &window, &mut store);
            let edges = reference
                .iter()
                .map(|(_, v)| v.parents().count())
                .sum::<usize>();
            assert!(edges > 0, "the failed search had edges to derive");
            // The search itself pushed nothing.
            assert!(out.from_v.store.walk_edges.get().is_none());
            assert!(out.from_v.store.all_edges.get().is_none());
            for (key, want) in reference.iter() {
                let got = out.from_v.get(key).expect("visited");
                assert_eq!(
                    got.parents().collect::<Vec<_>>(),
                    want.parents().collect::<Vec<_>>(),
                    "{key:?}"
                );
            }
            assert!(out.from_v.store.all_edges.get().is_some());
            return;
        }
        panic!("no seeded full-window search failed");
    }

    /// The true minimum corner count from `a` to `b` for `net` inside
    /// `window`, by a 0-1 BFS over (cell, plane) states: a step along a
    /// plane costs 0 and needs the next cell passable on that plane, a
    /// plane change costs 1 and needs the cell passable on both planes.
    /// The search starts at `a` on either plane and ends at `b` on either
    /// plane; `None` when no path exists.
    fn min_corners_oracle(
        g: &GridModel,
        net: u32,
        a: (usize, usize),
        b: (usize, usize),
        w: &SearchWindow,
    ) -> Option<usize> {
        let pass = |d: usize, i: usize, j: usize| match d {
            0 => g.cell_passable(net, Dir::Horizontal, j, i),
            _ => g.cell_passable(net, Dir::Vertical, i, j),
        };
        let (nv, nh) = (g.nv(), g.nh());
        let state = |i: usize, j: usize, d: usize| (j * nv + i) * 2 + d;
        let mut dist = vec![usize::MAX; nv * nh * 2];
        let mut queue = std::collections::VecDeque::new();
        for d in 0..2 {
            if pass(d, a.0, a.1) {
                dist[state(a.0, a.1, d)] = 0;
                queue.push_back((a.0, a.1, d));
            }
        }
        while let Some((i, j, d)) = queue.pop_front() {
            let here = dist[state(i, j, d)];
            let mut relax = |i: usize, j: usize, d: usize, cost: usize| {
                if here + cost < dist[state(i, j, d)] {
                    dist[state(i, j, d)] = here + cost;
                    if cost == 0 {
                        queue.push_front((i, j, d));
                    } else {
                        queue.push_back((i, j, d));
                    }
                }
            };
            // Plane 0 steps along a horizontal track (i varies), plane 1
            // along a vertical one (j varies).
            let steps = if d == 0 {
                [
                    (i > w.i0).then(|| (i.wrapping_sub(1), j)),
                    (i < w.i1).then_some((i + 1, j)),
                ]
            } else {
                [
                    (j > w.j0).then(|| (i, j.wrapping_sub(1))),
                    (j < w.j1).then_some((i, j + 1)),
                ]
            };
            for (ni, nj) in steps.into_iter().flatten() {
                if pass(d, ni, nj) {
                    relax(ni, nj, d, 0);
                }
            }
            if pass(1 - d, i, j) {
                relax(i, j, 1 - d, 1);
            }
        }
        let best = dist[state(b.0, b.1, 0)].min(dist[state(b.0, b.1, 1)]);
        (best != usize::MAX).then_some(best)
    }

    #[test]
    fn mbfs_never_beats_the_min_corner_oracle_and_its_misses_are_pinned() {
        const INSTANCES: usize = 1000;
        let mut rng = Mix(0x1a_0c0e);
        let mut scratch = SearchScratch::new();
        let (mut routable, mut no_path_miss, mut extra_corner_miss) = (0, 0, 0);
        for case in 0..INSTANCES {
            let (g, a, b) = random_grid(&mut rng);
            let clipped = SearchWindow::around(&g, a, b, rng.below(8));
            for window in [clipped, SearchWindow::full(&g)] {
                let out = search_min_corner_paths(&g, 1, a, b, &window, &mut scratch);
                let truth = min_corners_oracle(&g, 1, a, b, &window);
                let ctx = format!("case {case}: {}×{} {a:?}→{b:?} {window:?}", g.nv(), g.nh());
                match (out.corners, truth) {
                    (Some(c), Some(t)) => {
                        assert!(c >= t, "{ctx}: MBFS {c} corners, oracle minimum {t}");
                        extra_corner_miss += usize::from(c > t);
                    }
                    (Some(c), None) => panic!("{ctx}: MBFS found {c} corners, oracle no path"),
                    (None, Some(_)) => no_path_miss += 1,
                    (None, None) => {}
                }
                routable += usize::from(truth.is_some());
            }
        }
        println!(
            "min-corner oracle: {routable} of {} searches routable; MBFS misses: \
             {no_path_miss} no path, {extra_corner_miss} extra corners",
            2 * INSTANCES
        );
        // Pinned: the one-vertex-per-track search is incomplete, and a
        // change to it must move these numbers on purpose.
        assert_eq!(
            (routable, no_path_miss, extra_corner_miss),
            (1682, 27, 1),
            "(routable, no-path misses, extra-corner misses)"
        );
    }

    #[test]
    fn expanded_counts_are_small_on_empty_grid() {
        let g = grid(1000, 10);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 0), (100, 100), &w, &mut scratch);
        // Track-based search expands O(tracks), not O(area).
        assert!(out.expanded < 2 * (g.nv() + g.nh()));
    }
}
