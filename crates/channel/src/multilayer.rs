//! Four-layer channel routing.
//!
//! Two comparators for the paper's Table 3:
//!
//! 1. [`analytic_multilayer_tracks`] — the paper's own "optimistic
//!    assumption that a multi-layer channel routing algorithm would
//!    reduce the channel area requirements by 50 %": half the two-layer
//!    track count, laid out at the *coarsest* four-layer pitch (which is
//!    precisely why halving tracks does not halve area).
//! 2. [`route_four_layer`] — an actual four-layer router in the spirit of
//!    Chameleon (Braun *et al.*): the net set is partitioned across two
//!    HV layer pairs (M1/M2 and M3/M4) to balance density, and each pair
//!    is routed independently by the constrained left-edge router. Nets
//!    never split across pairs, matching the paper's rule that only
//!    terminal connections pass through intervening layers.

use crate::error::ChannelError;
use crate::geometry::ChannelPlan;
use crate::left_edge::route_channel_robust;
use crate::ChannelProblem;
use ocr_netlist::NetId;

/// Result of four-layer channel routing: one plan per layer pair and the
/// net partition.
#[derive(Clone, Debug)]
pub struct FourLayerPlan {
    /// Plan routed on the lower pair (metal1 horizontal / metal2
    /// vertical).
    pub lower: ChannelPlan,
    /// Plan routed on the upper pair (metal3 / metal4).
    pub upper: ChannelPlan,
    /// Nets assigned to the lower pair.
    pub lower_nets: Vec<NetId>,
    /// Nets assigned to the upper pair.
    pub upper_nets: Vec<NetId>,
}

impl FourLayerPlan {
    /// Track count of the taller pair.
    pub fn max_tracks(&self) -> usize {
        self.lower.tracks_used.max(self.upper.tracks_used)
    }

    /// The pair (`false` = lower, `true` = upper) a net was assigned to,
    /// or `None` if the net is not in this channel.
    pub fn pair_of(&self, net: NetId) -> Option<bool> {
        if self.lower_nets.contains(&net) {
            Some(false)
        } else if self.upper_nets.contains(&net) {
            Some(true)
        } else {
            None
        }
    }
}

/// The paper's Table 3 analytic model: a hypothetical multi-layer channel
/// router needs half the two-layer tracks (rounded up).
#[inline]
pub fn analytic_multilayer_tracks(two_layer_tracks: usize) -> usize {
    two_layer_tracks.div_ceil(2)
}

/// Partitions the channel's nets across the two layer pairs to balance
/// local density, then routes each pair with the left-edge router at its
/// default options.
///
/// # Errors
///
/// Propagates [`ChannelError`] from either per-pair run (a pair
/// subproblem can still be cyclic if its nets interlock and no jog
/// column is free).
pub fn route_four_layer(problem: &ChannelProblem) -> Result<FourLayerPlan, ChannelError> {
    if let Some(&bad) = problem.audit().first() {
        return Err(ChannelError::SinglePinNet(bad));
    }

    // Greedy density-balancing partition: long nets first, each to the
    // pair whose current peak density along the net's span is lower.
    let mut nets: Vec<(NetId, usize, usize)> = problem
        .nets()
        .into_iter()
        .filter_map(|n| problem.net_span(n).map(|(lo, hi)| (n, lo, hi)))
        .collect();
    nets.sort_by_key(|&(n, lo, hi)| (std::cmp::Reverse(hi - lo), n.0));

    let width = problem.width();
    let mut dens = [vec![0usize; width], vec![0usize; width]];
    let mut groups: [Vec<NetId>; 2] = [Vec::new(), Vec::new()];
    for (n, lo, hi) in nets {
        let peak = |d: &[usize]| -> usize { d[lo..=hi].iter().copied().max().unwrap_or(0) };
        let g = usize::from(peak(&dens[1]) < peak(&dens[0]));
        for d in &mut dens[g][lo..=hi] {
            *d += 1;
        }
        groups[g].push(n);
    }

    let subproblem = |keep: &[NetId]| -> ChannelProblem {
        let filter = |row: Vec<Option<NetId>>| {
            row.into_iter()
                .map(|p| p.filter(|n| keep.contains(n)))
                .collect()
        };
        let top: Vec<Option<NetId>> = (0..width).map(|c| problem.top(c)).collect();
        let bottom: Vec<Option<NetId>> = (0..width).map(|c| problem.bottom(c)).collect();
        ChannelProblem::new(filter(top), filter(bottom))
    };

    let lower = route_channel_robust(&subproblem(&groups[0]))?;
    let upper = route_channel_robust(&subproblem(&groups[1]))?;
    Ok(FourLayerPlan {
        lower,
        upper,
        lower_nets: groups[0].clone(),
        upper_nets: groups[1].clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::left_edge::{route_left_edge, LeftEdgeOptions};

    #[test]
    fn analytic_model_halves_rounding_up() {
        assert_eq!(analytic_multilayer_tracks(10), 5);
        assert_eq!(analytic_multilayer_tracks(7), 4);
        assert_eq!(analytic_multilayer_tracks(0), 0);
        assert_eq!(analytic_multilayer_tracks(1), 1);
    }

    #[test]
    fn partition_reduces_max_tracks() {
        // Four mutually overlapping nets: two-layer density 4;
        // split across pairs each side has density ≤ 2.
        let p = ChannelProblem::from_ids(&[1, 2, 3, 4, 0, 0, 0, 0], &[0, 0, 0, 0, 1, 2, 3, 4]);
        let two = route_left_edge(&p, LeftEdgeOptions::default()).expect("2-layer");
        let four = route_four_layer(&p).expect("4-layer");
        assert!(four.max_tracks() < two.tracks_used);
        assert!(
            four.max_tracks() >= analytic_multilayer_tracks(p.density()).min(four.max_tracks())
        );
    }

    #[test]
    fn every_net_lands_in_exactly_one_pair() {
        let p = ChannelProblem::from_ids(&[1, 2, 3, 0, 0], &[0, 0, 1, 2, 3]);
        let four = route_four_layer(&p).expect("routes");
        for n in p.nets() {
            let in_lower = four.lower_nets.contains(&n);
            let in_upper = four.upper_nets.contains(&n);
            assert!(in_lower ^ in_upper, "{n} must be in exactly one pair");
        }
        assert_eq!(four.pair_of(NetId(99)), None);
    }

    #[test]
    fn single_net_channel_routes_on_lower_pair() {
        let p = ChannelProblem::from_ids(&[7, 0], &[0, 7]);
        let four = route_four_layer(&p).expect("routes");
        assert_eq!(four.max_tracks(), 1);
        assert_eq!(four.lower.tracks_used + four.upper.tracks_used, 1);
    }
}
