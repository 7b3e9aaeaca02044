//! Density analysis and the zone representation.
//!
//! The *zone representation* of Yoshimura and Kuh groups columns into
//! maximal cliques of mutually overlapping net spans; two nets can share
//! a track iff no zone contains both. Zones drive both lower bounds and
//! the net-merging intuition behind the constrained left-edge router.

use crate::ChannelProblem;
use ocr_netlist::NetId;
use std::fmt;

/// One zone: a maximal set of columns whose covering-net clique is not a
/// subset of a neighbour's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Zone {
    /// Representative column range of the zone.
    pub columns: (usize, usize),
    /// Nets whose spans cover the zone, sorted by id.
    pub nets: Vec<NetId>,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone cols {}..{} ({} nets)",
            self.columns.0,
            self.columns.1,
            self.nets.len()
        )
    }
}

/// Computes the zone representation of a channel.
///
/// Returns zones in left-to-right order. The maximum clique size equals
/// the channel density.
pub fn zones(problem: &ChannelProblem) -> Vec<Zone> {
    let width = problem.width();
    // Per-column clique: nets whose span covers the column.
    let mut spans: Vec<(NetId, usize, usize)> = Vec::new();
    for net in problem.nets() {
        if let Some((lo, hi)) = problem.net_span(net) {
            spans.push((net, lo, hi));
        }
    }
    let clique_at = |c: usize| -> Vec<NetId> {
        let mut v: Vec<NetId> = spans
            .iter()
            .filter(|&&(_, lo, hi)| lo <= c && c <= hi)
            .map(|&(n, _, _)| n)
            .collect();
        v.sort();
        v
    };

    let mut out: Vec<Zone> = Vec::new();
    let mut c = 0;
    while c < width {
        let clique = clique_at(c);
        if clique.is_empty() {
            c += 1;
            continue;
        }
        // Extend while the clique is identical.
        let mut end = c;
        while end + 1 < width && clique_at(end + 1) == clique {
            end += 1;
        }
        // A zone is only kept if its clique is not a subset of a kept
        // neighbour's clique (maximality).
        let subset_of = |a: &[NetId], b: &[NetId]| a.iter().all(|x| b.contains(x));
        let redundant = out
            .last()
            .map(|z: &Zone| subset_of(&clique, &z.nets))
            .unwrap_or(false);
        if redundant {
            // Merge the columns into the previous zone's range.
            if let Some(last) = out.last_mut() {
                last.columns.1 = end;
            }
        } else {
            // Drop previous zones that are subsets of this one.
            while let Some(last) = out.last() {
                if subset_of(&last.nets, &clique) {
                    let absorbed = out.pop().expect("non-empty");
                    c = absorbed.columns.0.min(c);
                } else {
                    break;
                }
            }
            out.push(Zone {
                columns: (c, end),
                nets: clique,
            });
        }
        c = end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_of_disjoint_nets_are_separate() {
        let p = ChannelProblem::from_ids(&[1, 0, 0, 2, 0], &[0, 1, 0, 0, 2]);
        let zs = zones(&p);
        assert_eq!(zs.len(), 2);
        assert_eq!(zs[0].nets, vec![NetId(1)]);
        assert_eq!(zs[1].nets, vec![NetId(2)]);
    }

    #[test]
    fn overlapping_nets_share_a_zone() {
        let p = ChannelProblem::from_ids(&[1, 2, 0, 0], &[0, 0, 1, 2]);
        let zs = zones(&p);
        assert!(zs.iter().any(|z| z.nets == vec![NetId(1), NetId(2)]));
        let max_clique = zs.iter().map(|z| z.nets.len()).max().unwrap();
        assert_eq!(max_clique, p.density());
    }

    #[test]
    fn nested_cliques_are_absorbed() {
        // Net 3 covers everything; nets 1 and 2 are nested inside.
        let p = ChannelProblem::from_ids(&[3, 1, 0, 0, 2, 3], &[0, 0, 1, 2, 0, 0]);
        let zs = zones(&p);
        for z in &zs {
            assert!(z.nets.contains(&NetId(3)));
        }
        let max_clique = zs.iter().map(|z| z.nets.len()).max().unwrap();
        assert_eq!(max_clique, p.density());
    }
}
