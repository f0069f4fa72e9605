//! Output checks. Each takes the program's result and an independently
//! computed expectation and returns `Err` with what differs; a run with a
//! failed check reports no metrics and exits non-zero.

use nwdp_core::nips::{NipsInstance, NipsSolution};
use nwdp_engine::{ReloadDecision, ReloadOutcome, RunStats};
use nwdp_obs::AlertStats;
use nwdp_topo::PathDb;
use nwdp_traffic::Session;

/// What the on-path nodes should see of a session stream, computed in one
/// pass without the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnPath {
    /// (node, session) pairs: `Σ path length`.
    pub pairs: u64,
    /// Node packets: `Σ packets × path length`.
    pub packets: u64,
}

pub fn onpath(paths: &PathDb, sessions: impl Iterator<Item = Session>) -> OnPath {
    sessions.fold(OnPath::default(), |acc, s| {
        let hops = paths.path(s.src_node, s.dst_node).nodes.len() as u64;
        OnPath { pairs: acc.pairs + hops, packets: acc.packets + s.packet_count() as u64 * hops }
    })
}

/// The data plane analysed exactly the on-path packets.
pub fn node_packets(per_node: &[RunStats], expected: u64) -> Result<(), String> {
    let got: u64 = per_node.iter().map(|s| s.packets).sum();
    if got == expected {
        Ok(())
    } else {
        Err(format!("sum of per-node packets {got} != on-path packets {expected}"))
    }
}

/// Alert accounting balances and the egress file holds every written
/// record: `emitted == written + deduped + dropped`, lines == written.
pub fn alert_balance(stats: &AlertStats, jsonl_lines: u64) -> Result<(), String> {
    let accounted = stats.written + stats.deduped + stats.dropped_ratelimit;
    if stats.emitted != accounted {
        return Err(format!(
            "emitted {} != written {} + deduped {} + dropped {}",
            stats.emitted, stats.written, stats.deduped, stats.dropped_ratelimit
        ));
    }
    if jsonl_lines != stats.written {
        return Err(format!("JSONL holds {jsonl_lines} lines, {} written", stats.written));
    }
    Ok(())
}

/// Every JSONL line parses as an object carrying the record's fields.
pub fn jsonl_records(text: &str) -> Result<u64, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        let rec = nwdp_obs::parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        for key in ["ts", "node", "class", "kind", "severity"] {
            if rec.get(key).is_none() {
                return Err(format!("line {}: missing {key}", i + 1));
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Two runs produced the same per-node statistics, field for field.
pub fn identical_stats(a: &[RunStats], b: &[RunStats]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} nodes vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let n = x.node.0;
        let diff = if x.node != y.node {
            Some("node id")
        } else if x.packets != y.packets {
            Some("packets")
        } else if x.connections != y.connections {
            Some("connections")
        } else if x.cpu_cycles != y.cpu_cycles {
            Some("cpu_cycles")
        } else if x.mem_peak != y.mem_peak {
            Some("mem_peak")
        } else if x.fastpath_skipped != y.fastpath_skipped {
            Some("fastpath_skipped")
        } else if x.range_checks != y.range_checks {
            Some("range_checks")
        } else if x.range_hits != y.range_hits {
            Some("range_hits")
        } else if x.per_module_cpu != y.per_module_cpu {
            Some("per_module_cpu")
        } else if x.alerts != y.alerts {
            Some("alerts")
        } else {
            None
        };
        if let Some(field) = diff {
            return Err(format!("node {n}: {field} differs"));
        }
    }
    Ok(())
}

/// The reload run kept coverage at or above the repair bound, rejected
/// exactly the sabotaged boundary and had no failed re-solve. Returns the
/// number of boundary decisions that went wrong with the first error.
pub fn reload_decisions(
    decisions: &[ReloadDecision],
    coverage_floor: f64,
    bound: f64,
    sabotaged: usize,
) -> Result<(), (u64, String)> {
    let mut bad = 0u64;
    let mut first: Option<String> = None;
    let mut note = |msg: String| {
        bad += 1;
        first.get_or_insert(msg);
    };
    for d in decisions {
        match (&d.outcome, d.epoch == sabotaged) {
            (ReloadOutcome::SolveFailed(e), _) => {
                note(format!("boundary {}: solve failed: {e}", d.epoch))
            }
            (ReloadOutcome::Rejected(_), true) | (ReloadOutcome::Swapped { .. }, false) => {}
            (ReloadOutcome::Rejected(e), false) => {
                note(format!("boundary {}: clean candidate rejected: {e}", d.epoch))
            }
            (ReloadOutcome::Swapped { .. }, true) => {
                note(format!("boundary {}: sabotaged candidate went live", d.epoch))
            }
        }
    }
    if !decisions.iter().any(|d| d.epoch == sabotaged) {
        note(format!("no decision at the sabotaged boundary {sabotaged}"));
    }
    if coverage_floor < bound - 1e-9 {
        // Coverage is a property of the whole run, not of one boundary.
        first.get_or_insert(format!("coverage floor {coverage_floor} below repair bound {bound}"));
        bad = bad.max(1);
    }
    match first {
        None => Ok(()),
        Some(msg) => Err((bad, msg)),
    }
}

/// A rounded NIPS deployment is feasible and does not beat its LP bound.
pub fn nips_solution(inst: &NipsInstance, opt_lp: f64, sol: &NipsSolution) -> Result<(), String> {
    inst.check_feasible(&sol.e, &sol.d, 1e-6).map_err(|e| format!("infeasible: {e}"))?;
    let objective = inst.objective(&sol.d);
    if (objective - sol.objective).abs() > 1e-6 * objective.abs().max(1.0) {
        return Err(format!("reported objective {} != recomputed {objective}", sol.objective));
    }
    if objective > opt_lp * (1.0 + 1e-9) + 1e-9 {
        return Err(format!("rounded objective {objective} exceeds OptLP {opt_lp}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each check must trip on a deliberately corrupted result.

    use super::*;
    use nwdp_core::nids::{ManifestValidationError, NidsError};
    use nwdp_engine::RunStats;
    use nwdp_topo::NodeId;

    fn stats(node: usize, packets: u64) -> RunStats {
        RunStats {
            node: NodeId(node),
            cpu_cycles: 10 * packets,
            mem_peak: 4096,
            packets,
            connections: 3,
            fastpath_skipped: 1,
            range_checks: 5,
            range_hits: 2,
            per_module_cpu: vec![("Scan".into(), 7)],
            alerts: Default::default(),
        }
    }

    #[test]
    fn node_packets_trips_on_a_lost_packet() {
        let run = vec![stats(0, 40), stats(1, 60)];
        assert!(node_packets(&run, 100).is_ok());
        assert!(node_packets(&run, 101).is_err());
    }

    #[test]
    fn alert_balance_trips_on_unaccounted_or_unwritten_alerts() {
        let ok = AlertStats { emitted: 10, written: 6, deduped: 1, dropped_ratelimit: 3 };
        assert!(alert_balance(&ok, 6).is_ok());
        let leak = AlertStats { emitted: 11, ..ok };
        assert!(alert_balance(&leak, 6).unwrap_err().contains("emitted 11"));
        assert!(alert_balance(&ok, 5).unwrap_err().contains("5 lines"));
    }

    #[test]
    fn jsonl_records_trips_on_a_truncated_line() {
        let good = "{\"ts\":0.1,\"node\":1,\"class\":\"Scan\",\"kind\":\"k\",\"severity\":3}\n";
        assert_eq!(jsonl_records(good), Ok(1));
        assert!(jsonl_records(&good[..good.len() - 5]).is_err());
        assert!(jsonl_records("{\"ts\":0.1}\n").unwrap_err().contains("missing node"));
    }

    #[test]
    fn identical_stats_trips_on_any_field() {
        let a = vec![stats(0, 40), stats(1, 60)];
        assert!(identical_stats(&a, &a.clone()).is_ok());
        let mut b = a.clone();
        b[1].cpu_cycles += 1;
        assert_eq!(identical_stats(&a, &b).unwrap_err(), "node 1: cpu_cycles differs");
        let mut c = a.clone();
        c[0].per_module_cpu[0].1 += 1;
        assert!(identical_stats(&a, &c).is_err());
        assert!(identical_stats(&a, &a[..1]).is_err());
    }

    fn decision(epoch: usize, outcome: ReloadOutcome) -> ReloadDecision {
        ReloadDecision {
            epoch,
            at: epoch as f64 / 6.0,
            outcome,
            resolve_micros: 1000,
            lp_iterations: 10,
            coverage_after: 1.0,
        }
    }

    fn swapped() -> ReloadOutcome {
        ReloadOutcome::Swapped { moved_fraction: 0.1 }
    }

    fn rejected() -> ReloadOutcome {
        ReloadOutcome::Rejected(ManifestValidationError::KeyMismatch { unit: 0 })
    }

    #[test]
    fn reload_decisions_trip_on_wrong_rejections_failures_and_coverage() {
        let good = vec![decision(1, swapped()), decision(2, rejected()), decision(3, swapped())];
        assert!(reload_decisions(&good, 1.0, 1.0, 2).is_ok());
        // The sabotaged candidate went live.
        let mut live = good.clone();
        live[1] = decision(2, swapped());
        assert_eq!(reload_decisions(&live, 1.0, 1.0, 2).unwrap_err().0, 1);
        // A clean candidate was rejected as well.
        let mut extra = good.clone();
        extra[2] = decision(3, rejected());
        assert_eq!(reload_decisions(&extra, 1.0, 1.0, 2).unwrap_err().0, 1);
        // A re-solve failed.
        let mut failed = good.clone();
        failed[0] = decision(1, ReloadOutcome::SolveFailed(NidsError::SolverFailed));
        assert!(reload_decisions(&failed, 1.0, 1.0, 2).unwrap_err().1.contains("solve failed"));
        // Coverage dipped below the repair bound.
        assert!(reload_decisions(&good, 0.97, 1.0, 2).unwrap_err().1.contains("coverage floor"));
    }

    #[test]
    fn nips_solution_trips_on_infeasible_or_overshooting_rounding() {
        use nwdp_core::nips::{round_best_of, solve_relaxation, RoundingOpts};
        use nwdp_lp::rowgen::RowGenOpts;
        use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
        let topo = nwdp_topo::internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::scaled_for(&topo);
        let rates = MatchRates::uniform_001(4, paths.all_pairs().count(), 3);
        let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, 4, 0.5, rates);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).expect("relaxation solves");
        let opts = RoundingOpts { iterations: 2, seed: 5, ..Default::default() };
        let sol = round_best_of(&inst, &relax, &opts).expect("rounding succeeds");
        assert!(nips_solution(&inst, relax.objective, &sol).is_ok());
        // Reports an objective its sampling fractions do not earn.
        let mut inflated = sol.clone();
        inflated.objective = relax.objective * 1.01 + 1.0;
        assert!(nips_solution(&inst, relax.objective, &inflated)
            .unwrap_err()
            .contains("recomputed"));
        // Beats a (corrupted) LP bound.
        let low_bound = sol.objective * 0.9;
        assert!(nips_solution(&inst, low_bound, &sol).unwrap_err().contains("exceeds"));
        // Enables every rule everywhere: breaks the CAM capacity.
        let mut greedy = sol.clone();
        for row in &mut greedy.e {
            row.iter_mut().for_each(|on| *on = true);
        }
        assert!(nips_solution(&inst, relax.objective, &greedy).unwrap_err().contains("infeasible"));
    }
}
