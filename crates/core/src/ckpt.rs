//! Run sessions and `ocr-ckpt-v1` checkpoint conversion.
//!
//! A [`RunSession`] bundles the three run-control concerns a controlled
//! flow run carries: the cooperative [`RunControl`] (cancellation, step
//! budget, deadline), an optional [`CheckpointSpec`] telling Level B
//! where and how often to persist progress, and an optional
//! [`LevelBResume`] parsed from an earlier checkpoint.
//!
//! The text format itself lives in [`ocr_io::ckpt`]; this module owns
//! the typed mapping between the raw document and the router's state —
//! in particular the [`DegradeReason`] ↔ token correspondence and the
//! [`RoutingStats`] field naming, both of which must stay stable for
//! old checkpoints to keep loading.

use crate::degrade::DegradeReason;
use crate::error::RouteError;
use crate::stats::RoutingStats;
use ocr_exec::RunControl;
use ocr_io::ckpt::CheckpointDoc;
use ocr_netlist::{NetId, NetRoute};
use std::path::PathBuf;

/// Where and how often a controlled run writes progress checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Output file path, overwritten on every write.
    pub path: PathBuf,
    /// Write after every `every` net commits. A final checkpoint is
    /// always written when the run ends or its control trips.
    pub every: usize,
    /// Flow name recorded in the header, validated on resume.
    pub flow: String,
    /// FNV-1a 64 hash of the canonical chip serialization, validated on
    /// resume so a checkpoint never seeds a run over a different chip.
    pub chip_hash: u64,
}

/// The run-control bundle a controlled flow run carries.
#[derive(Clone, Debug, Default)]
pub struct RunSession {
    /// Cancellation token, deterministic step budget, deadline.
    pub control: RunControl,
    /// Periodic checkpoint sink, if checkpointing was requested.
    pub checkpoint: Option<CheckpointSpec>,
    /// Progress to resume from, if resuming an interrupted run.
    pub resume: Option<LevelBResume>,
}

impl RunSession {
    /// A session with the given control and no checkpoint or resume.
    pub fn with_control(control: RunControl) -> RunSession {
        RunSession {
            control,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Level B progress restored from a checkpoint, in the router's own
/// types. Produced by [`resume_from_doc`].
#[derive(Clone, Debug)]
pub struct LevelBResume {
    /// Committed routes, in the order of the Level B net set (not
    /// commit order: routes hold disjoint cells, so the order they are
    /// occupied in does not change the grid).
    pub routed: Vec<(NetId, NetRoute)>,
    /// Failed nets with their reasons, in failure order.
    pub failed: Vec<(NetId, DegradeReason)>,
    /// The pending queue, in order (an interrupted net at the front).
    pub pending: Vec<NetId>,
    /// Unrouted-terminal cells, in the router's verbatim list order —
    /// the floating-point duplication-cost sum depends on it.
    pub unrouted: Vec<(NetId, (usize, usize))>,
    /// Rip-up exclusions per net.
    pub exclusions: Vec<(u32, Vec<u32>)>,
    /// Per-net retry counts.
    pub retries: Vec<(u32, usize)>,
    /// Remaining rip-up budget.
    pub rips_left: usize,
    /// Router counters at checkpoint time.
    pub stats: RoutingStats,
    /// Run-control steps charged at checkpoint time (steps stay
    /// cumulative across an interruption).
    pub steps: u64,
    /// Whether the checkpointed run had salvage mode on.
    pub salvage: bool,
    /// Flow name from the header.
    pub flow: String,
    /// Chip fingerprint from the header.
    pub chip_hash: u64,
}

impl LevelBResume {
    /// `true` when the checkpoint recorded no Level B progress at all —
    /// a header-only file from a run that tripped before (or without)
    /// Level B. Resuming such a checkpoint is simply a fresh run.
    pub fn is_fresh(&self) -> bool {
        self.routed.is_empty() && self.failed.is_empty() && self.pending.is_empty()
    }
}

/// The stable checkpoint token for a degradation reason. `Poisoned`
/// carries its message after the token, space-separated.
pub fn reason_token(reason: &DegradeReason) -> String {
    match reason {
        DegradeReason::Unroutable => "unroutable".into(),
        DegradeReason::DoomedTerminal => "doomed-terminal".into(),
        DegradeReason::Degenerate => "degenerate".into(),
        DegradeReason::TerminalOffGrid => "terminal-off-grid".into(),
        DegradeReason::TerminalConflict => "terminal-conflict".into(),
        DegradeReason::BudgetExceeded => "budget-exceeded".into(),
        DegradeReason::Cancelled => "cancelled".into(),
        DegradeReason::Poisoned { message } if message.is_empty() => "poisoned".into(),
        DegradeReason::Poisoned { message } => format!("poisoned {message}"),
    }
}

/// Parses a checkpoint reason token back into a [`DegradeReason`].
/// Returns `None` for tokens no current reason produces.
pub fn reason_from_token(token: &str) -> Option<DegradeReason> {
    let mut it = token.splitn(2, char::is_whitespace);
    let reason = match it.next()? {
        "unroutable" => DegradeReason::Unroutable,
        "doomed-terminal" => DegradeReason::DoomedTerminal,
        "degenerate" => DegradeReason::Degenerate,
        "terminal-off-grid" => DegradeReason::TerminalOffGrid,
        "terminal-conflict" => DegradeReason::TerminalConflict,
        "budget-exceeded" => DegradeReason::BudgetExceeded,
        "cancelled" => DegradeReason::Cancelled,
        "poisoned" => DegradeReason::Poisoned {
            message: it.next().unwrap_or("").trim().to_string(),
        },
        _ => return None,
    };
    // Non-poisoned reasons carry no payload; trailing junk means the
    // file was edited or corrupted.
    if !matches!(reason, DegradeReason::Poisoned { .. })
        && it.next().is_some_and(|rest| !rest.trim().is_empty())
    {
        return None;
    }
    Some(reason)
}

/// Flattens router counters into named pairs for serialization. The
/// names are part of the `ocr-ckpt-v1` contract.
pub(crate) fn stats_to_pairs(stats: &RoutingStats) -> Vec<(String, i64)> {
    // Destructure so adding a RoutingStats field breaks this build
    // until the checkpoint mapping learns about it.
    let RoutingStats {
        nets_routed,
        nets_failed,
        connections,
        expanded_vertices,
        corners,
        wire_length,
        window_expansions,
        candidates_examined,
        maze_fallbacks,
        maze_expanded,
        rips,
        doomed_terminals,
        exclusions_cleared,
        nets_poisoned,
    } = *stats;
    let u = |v: usize| v as i64;
    vec![
        ("nets_routed".into(), u(nets_routed)),
        ("nets_failed".into(), u(nets_failed)),
        ("connections".into(), u(connections)),
        ("expanded_vertices".into(), u(expanded_vertices)),
        ("corners".into(), u(corners)),
        ("wire_length".into(), wire_length),
        ("window_expansions".into(), u(window_expansions)),
        ("candidates_examined".into(), u(candidates_examined)),
        ("maze_fallbacks".into(), u(maze_fallbacks)),
        ("maze_expanded".into(), u(maze_expanded)),
        ("rips".into(), u(rips)),
        ("doomed_terminals".into(), u(doomed_terminals)),
        ("exclusions_cleared".into(), u(exclusions_cleared)),
        ("nets_poisoned".into(), u(nets_poisoned)),
    ]
}

/// Rebuilds router counters from named pairs. Unknown names and
/// out-of-range values are errors — a checkpoint that no longer maps
/// cleanly must not silently resume with dropped counters.
pub(crate) fn stats_from_pairs(pairs: &[(String, i64)]) -> Result<RoutingStats, String> {
    let mut stats = RoutingStats::default();
    for (name, value) in pairs {
        let as_usize =
            || usize::try_from(*value).map_err(|_| format!("stat `{name}` is negative: {value}"));
        match name.as_str() {
            "nets_routed" => stats.nets_routed = as_usize()?,
            "nets_failed" => stats.nets_failed = as_usize()?,
            "connections" => stats.connections = as_usize()?,
            "expanded_vertices" => stats.expanded_vertices = as_usize()?,
            "corners" => stats.corners = as_usize()?,
            "wire_length" => stats.wire_length = *value,
            "window_expansions" => stats.window_expansions = as_usize()?,
            "candidates_examined" => stats.candidates_examined = as_usize()?,
            "maze_fallbacks" => stats.maze_fallbacks = as_usize()?,
            "maze_expanded" => stats.maze_expanded = as_usize()?,
            "rips" => stats.rips = as_usize()?,
            "doomed_terminals" => stats.doomed_terminals = as_usize()?,
            "exclusions_cleared" => stats.exclusions_cleared = as_usize()?,
            "nets_poisoned" => stats.nets_poisoned = as_usize()?,
            other => return Err(format!("unknown stat `{other}`")),
        }
    }
    Ok(stats)
}

/// Converts a parsed checkpoint document into typed Level B resume
/// state.
///
/// # Errors
///
/// [`RouteError::Checkpoint`] on unknown reason tokens, unknown stat
/// names, or counters that do not fit the router's types. Net-name
/// resolution and structural validation already happened in
/// [`ocr_io::ckpt::parse_checkpoint`]; grid-level validation (cell
/// bounds, net coverage) happens when the router seeds itself.
pub fn resume_from_doc(doc: CheckpointDoc) -> Result<LevelBResume, RouteError> {
    let ck = RouteError::Checkpoint;
    let stats = stats_from_pairs(&doc.stats).map_err(ck)?;
    let failed = doc
        .failed
        .into_iter()
        .map(|(net, token)| {
            reason_from_token(&token)
                .map(|reason| (net, reason))
                .ok_or_else(|| RouteError::Checkpoint(format!("unknown degrade reason `{token}`")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rips_left = usize::try_from(doc.rips_left)
        .map_err(|_| RouteError::Checkpoint(format!("rips-left {} out of range", doc.rips_left)))?;
    let retries = doc
        .retries
        .into_iter()
        .map(|(net, count)| {
            usize::try_from(count)
                .map(|count| (net.0, count))
                .map_err(|_| {
                    RouteError::Checkpoint(format!(
                        "retry count {count} for net#{} out of range",
                        net.0
                    ))
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LevelBResume {
        routed: doc.routed,
        failed,
        pending: doc.pending,
        unrouted: doc
            .unrouted
            .into_iter()
            .map(|(net, i, j)| (net, (i, j)))
            .collect(),
        exclusions: doc
            .exclusions
            .into_iter()
            .map(|(net, victims)| (net.0, victims.into_iter().map(|v| v.0).collect()))
            .collect(),
        retries,
        rips_left,
        stats,
        steps: doc.steps,
        salvage: doc.salvage,
        flow: doc.flow,
        chip_hash: doc.chip_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_round_trips_through_its_token() {
        let reasons = [
            DegradeReason::Unroutable,
            DegradeReason::DoomedTerminal,
            DegradeReason::Degenerate,
            DegradeReason::TerminalOffGrid,
            DegradeReason::TerminalConflict,
            DegradeReason::BudgetExceeded,
            DegradeReason::Cancelled,
            DegradeReason::Poisoned {
                message: String::new(),
            },
            DegradeReason::Poisoned {
                message: "index out of range".into(),
            },
        ];
        for reason in reasons {
            let token = reason_token(&reason);
            assert_eq!(
                reason_from_token(&token).as_ref(),
                Some(&reason),
                "token `{token}`"
            );
        }
    }

    #[test]
    fn junk_reason_tokens_are_rejected() {
        assert_eq!(reason_from_token("frobnicated"), None);
        assert_eq!(reason_from_token(""), None);
        assert_eq!(reason_from_token("unroutable trailing junk"), None);
    }

    #[test]
    fn stats_round_trip_through_pairs() {
        let stats = RoutingStats {
            nets_routed: 5,
            wire_length: -3,
            rips: 7,
            ..RoutingStats::default()
        };
        let pairs = stats_to_pairs(&stats);
        assert_eq!(stats_from_pairs(&pairs), Ok(stats));
    }

    #[test]
    fn bad_stats_are_rejected() {
        let e = stats_from_pairs(&[("martian".into(), 1)]).unwrap_err();
        assert!(e.contains("unknown stat"));
        let e = stats_from_pairs(&[("rips".into(), -1)]).unwrap_err();
        assert!(e.contains("negative"));
    }

    #[test]
    fn header_only_resume_is_fresh() {
        let doc = CheckpointDoc {
            flow: "overcell".into(),
            steps: 12,
            ..CheckpointDoc::default()
        };
        let resume = resume_from_doc(doc).expect("converts");
        assert!(resume.is_fresh());
        assert_eq!(resume.steps, 12);
    }
}
