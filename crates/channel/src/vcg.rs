//! Vertical constraint graph over subnets.
//!
//! At every column where one net pins the top edge and a different net
//! pins the bottom edge, the top net's trunk(s) at that column must lie
//! on a higher track than the bottom net's — otherwise their vertical
//! branches (both running on the vertical layer in the same column) would
//! short. The directed graph of these "must be above" relations is the
//! *vertical constraint graph* (VCG) of Yoshimura–Kuh; the constrained
//! left-edge router places a subnet only after everything that must sit
//! above it.

use crate::ChannelProblem;
use crate::Subnet;
use std::fmt;

/// The vertical constraint graph: node = subnet index, edge `a → b`
/// means "subnet `a` must be strictly above subnet `b`".
#[derive(Clone, Debug)]
pub struct Vcg {
    /// `above[b]` lists the subnets that must be above subnet `b`.
    above: Vec<Vec<usize>>,
    /// `below[a]` lists the subnets that must be below subnet `a`.
    below: Vec<Vec<usize>>,
}

impl Vcg {
    /// Builds the VCG of `subnets` for `problem`.
    ///
    /// For each column `c` with top net `t` and bottom net `b ≠ t`: every
    /// subnet of `t` covering `c` gains an edge to every subnet of `b`
    /// covering `c`.
    pub fn build(problem: &ChannelProblem, subnets: &[Subnet]) -> Self {
        let n = subnets.len();
        let mut above = vec![Vec::new(); n];
        let mut below = vec![Vec::new(); n];
        for c in 0..problem.width() {
            let (Some(t), Some(b)) = (problem.top(c), problem.bottom(c)) else {
                continue;
            };
            if t == b {
                continue;
            }
            for (ti, ts) in subnets.iter().enumerate() {
                if ts.net != t || !ts.covers(c) {
                    continue;
                }
                for (bi, bs) in subnets.iter().enumerate() {
                    if bs.net != b || !bs.covers(c) {
                        continue;
                    }
                    if !below[ti].contains(&bi) {
                        below[ti].push(bi);
                        above[bi].push(ti);
                    }
                }
            }
        }
        Vcg { above, below }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.above.len()
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.above.is_empty()
    }

    /// Subnets that must be above subnet `i`.
    #[inline]
    pub fn above(&self, i: usize) -> &[usize] {
        &self.above[i]
    }

    /// Subnets that must be below subnet `i`.
    #[inline]
    pub fn below(&self, i: usize) -> &[usize] {
        &self.below[i]
    }

    /// Returns the nodes of one directed cycle if the graph is cyclic,
    /// `None` if it is a DAG. Iterative coloring DFS.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Stack of (node, next-child-index).
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
                if *ci < self.below[u].len() {
                    let v = self.below[u][*ci];
                    *ci += 1;
                    match color[v] {
                        Color::White => {
                            color[v] = Color::Gray;
                            parent[v] = u;
                            stack.push((v, 0));
                        }
                        Color::Gray => {
                            // Found a cycle v → … → u → v.
                            let mut cyc = vec![v];
                            let mut cur = u;
                            while cur != v {
                                cyc.push(cur);
                                cur = parent[cur];
                            }
                            cyc.reverse();
                            return Some(cyc);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

impl fmt::Display for Vcg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let edges: usize = self.below.iter().map(|v| v.len()).sum();
        write!(f, "VCG: {} nodes, {} edges", self.len(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subnet::build_subnets;

    #[test]
    fn simple_constraint_creates_edge() {
        // Column 1: net 1 on top, net 2 on bottom → 1 above 2.
        let p = ChannelProblem::from_ids(&[1, 1, 0], &[2, 2, 0]);
        let subs = build_subnets(&p, false);
        let vcg = Vcg::build(&p, &subs);
        let i1 = subs
            .iter()
            .position(|s| s.net == ocr_netlist::NetId(1))
            .unwrap();
        let i2 = subs
            .iter()
            .position(|s| s.net == ocr_netlist::NetId(2))
            .unwrap();
        assert_eq!(vcg.below(i1), &[i2]);
        assert_eq!(vcg.above(i2), &[i1]);
        assert!(vcg.find_cycle().is_none());
    }

    #[test]
    fn crossing_two_terminal_nets_form_cycle_without_dogleg() {
        // col0: 1 top, 2 bottom; col1: 2 top, 1 bottom → 1→2 and 2→1.
        let p = ChannelProblem::from_ids(&[1, 2], &[2, 1]);
        let subs = build_subnets(&p, false);
        let vcg = Vcg::build(&p, &subs);
        let cyc = vcg.find_cycle().expect("cycle expected");
        assert_eq!(cyc.len(), 2);
    }

    #[test]
    fn dogleg_breaks_multi_pin_cycle() {
        // Net 1 is two-terminal (col 1 top → col 3 bottom); net 2 has
        // internal pins. Whole-net constraints are cyclic (1 above 2 at
        // col 1, 2 above 1 at col 3); after dogleg splitting, the
        // constraint at col 3 applies only to net 2's later pieces, so
        // the graph is acyclic.
        let p = ChannelProblem::from_ids(&[0, 1, 2, 2, 0], &[0, 2, 0, 1, 2]);
        let whole = build_subnets(&p, false);
        assert!(Vcg::build(&p, &whole).find_cycle().is_some());
        let split = build_subnets(&p, true);
        assert!(Vcg::build(&p, &split).find_cycle().is_none());
    }

    #[test]
    fn same_net_both_sides_adds_no_edge() {
        let p = ChannelProblem::from_ids(&[3, 3], &[3, 0]);
        let subs = build_subnets(&p, false);
        let vcg = Vcg::build(&p, &subs);
        assert!(vcg.find_cycle().is_none());
        assert!((0..vcg.len()).all(|i| vcg.below(i).is_empty()));
    }
}
