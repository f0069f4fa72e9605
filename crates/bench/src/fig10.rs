//! Fig 10 — quality of the NIPS approximation algorithms.
//!
//! For each topology (Internet2/Abilene, Geant, AS1221, AS1239, AS3257)
//! and each rule-capacity fraction (0.05 … 0.25): generate match-rate
//! scenarios `M ~ U[0, 0.01]`, solve the LP relaxation (`OptLP`), run the
//! rounding pipeline (best of N iterations), and report the achieved
//! fraction of `OptLP` as mean/min/max across scenarios —
//! (a) rounding + LP re-solve, (b) rounding + greedy + LP re-solve.
//! We additionally report the paper's unrefined Fig 9 algorithm (scaled),
//! which the paper describes but does not plot.

use crate::output::{f3, Table};
use crate::scenario::Scale;
use nwdp_core::nips::{round_best_of, solve_relaxation, NipsInstance, RoundingOpts, Strategy};
use nwdp_lp::rowgen::RowGenOpts;
use nwdp_topo::{as1221, as1239, as3257, geant, internet2, PathDb, Topology};
use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Path cap for the larger ISP topologies (top pairs by gravity volume);
/// see EXPERIMENTS.md for the substitution note.
pub const MAX_PATHS: usize = 600;

/// Aggregated result for one (topology, capacity) configuration.
#[derive(Debug, Clone)]
pub struct Fig10Point {
    pub topology: String,
    pub cap_frac: f64,
    /// Fraction of OptLP: (mean, min, max) across scenarios.
    pub scaled: (f64, f64, f64),
    pub lp_resolve: (f64, f64, f64),
    pub greedy: (f64, f64, f64),
}

pub fn topologies() -> Vec<Topology> {
    vec![internet2(), geant(), as1221(), as1239(), as3257()]
}

fn agg(xs: &[f64]) -> (f64, f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

/// Run Fig 10 for one topology at one capacity fraction.
pub fn run_config(topo: &Topology, cap_frac: f64, scale: Scale, base_seed: u64) -> Fig10Point {
    let paths = PathDb::shortest_paths(topo);
    let tm = TrafficMatrix::gravity(topo);
    let vol = VolumeModel::scaled_for(topo);
    let n_rules = scale.fig10_rules();
    let n_paths = paths.all_pairs().count().min(MAX_PATHS);

    let mut scaled = Vec::new();
    let mut resolve = Vec::new();
    let mut greedy = Vec::new();
    for sc in 0..scale.fig10_scenarios() {
        let seed = base_seed + sc as u64;
        let rates = MatchRates::uniform_001(n_rules, n_paths, seed);
        let inst = NipsInstance::evaluation_setup_capped(
            topo, &paths, &tm, &vol, n_rules, cap_frac, rates, MAX_PATHS,
        );
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).expect("relaxation must solve");
        for (strategy, out) in [
            (Strategy::ScaledFig9, &mut scaled),
            (Strategy::LpResolve, &mut resolve),
            (Strategy::GreedyLpResolve, &mut greedy),
        ] {
            let opts = RoundingOpts {
                strategy,
                iterations: scale.fig10_iterations(),
                seed: seed * 31 + 1,
                ..Default::default()
            };
            let sol = round_best_of(&inst, &relax, &opts).expect("rounding failed");
            out.push(sol.objective / relax.objective.max(1e-12));
        }
    }
    Fig10Point {
        topology: topo.name.clone(),
        cap_frac,
        scaled: agg(&scaled),
        lp_resolve: agg(&resolve),
        greedy: agg(&greedy),
    }
}

/// Full Fig 10 sweep: one scoped thread per (topology, capacity)
/// configuration, results in sweep order. Each finished configuration
/// prints one progress line on stderr: topology, capacity, its own
/// seconds, configurations done out of the total, and an ETA from the
/// mean wall time per finished configuration.
pub fn run(scale: Scale, topos: &[Topology]) -> Vec<Fig10Point> {
    let configs: Vec<(&Topology, f64, u64)> = topos
        .iter()
        .flat_map(|topo| {
            scale
                .fig10_cap_fracs()
                .into_iter()
                .enumerate()
                .map(move |(ci, cap)| (topo, cap, 10_000 + ci as u64 * 1000))
        })
        .collect();
    let total = configs.len();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    nwdp_core::parallel::par_map(&configs, |_, &(topo, cap, seed)| {
        let t = Instant::now();
        let point = run_config(topo, cap, scale, seed);
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        let eta = start.elapsed().as_secs_f64() / n as f64 * (total - n) as f64;
        eprintln!(
            "fig10: {} cap {cap:.2} done in {:.1}s [{n}/{total}] ETA {eta:.0}s",
            topo.name,
            t.elapsed().as_secs_f64()
        );
        point
    })
}

pub fn table(points: &[Fig10Point]) -> Table {
    let mut t = Table::new(
        "Fig 10: fraction of the LP upper bound achieved by the rounding algorithms",
        &[
            "topology",
            "rule cap",
            "fig9-scaled mean",
            "(a) round+LP mean",
            "min",
            "max",
            "(b) +greedy mean",
            "min",
            "max",
        ],
    );
    for p in points {
        t.row(vec![
            p.topology.clone(),
            format!("{:.2}", p.cap_frac),
            f3(p.scaled.0),
            f3(p.lp_resolve.0),
            f3(p.lp_resolve.1),
            f3(p.lp_resolve.2),
            f3(p.greedy.0),
            f3(p.greedy.1),
            f3(p.greedy.2),
        ]);
    }
    t
}
