//! The five Internet2 NIPS relaxations of the quick Fig 10 sweep (30
//! rules, rule capacities 0.05–0.25, match rates `M ~ U[0, 0.01]`) pinned
//! to their optimal values.
//!
//! The optimum is degenerate, so a different pivot path (the row
//! generation rounds re-optimized by dual pivots rather than phase-1
//! artificials) can land on another optimal vertex and move the rounded
//! objectives. `OptLP` itself is unique, which is why it is the pinned
//! value. Each relaxation must also converge, keep every sampling
//! fraction under its enable (`d ≤ e`) and sample each (rule, path) pair
//! at most once; rounding it must give a feasible deployment worth at
//! most `OptLP`.

use nwdp::prelude::*;

const RULES: usize = 30;
const CAP_FRACS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

/// `OptLP` at each capacity, recorded from the solver that repaired the
/// cut rounds with phase-1 artificials.
const OPT_LP: [f64; 5] = [
    185_590.789_481_250_05,
    212_273.949_718_980_93,
    218_344.820_591_271_5,
    217_390.580_456_460_7,
    218_334.630_052_317_75,
];

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1e-12)
}

#[test]
fn internet2_relaxations_reach_recorded_optima() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::scaled_for(&topo);
    let n_paths = paths.all_pairs().count();
    for (ci, (&cap, &want)) in CAP_FRACS.iter().zip(&OPT_LP).enumerate() {
        // The seeds of the quick Fig 10 sweep's first scenario.
        let rates = MatchRates::uniform_001(RULES, n_paths, 10_000 + ci as u64 * 1000);
        let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, RULES, cap, rates);
        let relax = solve_relaxation(&inst, &RowGenOpts::default())
            .unwrap_or_else(|e| panic!("cap {cap}: relaxation did not converge: {e}"));
        assert!(
            rel_close(relax.objective, want),
            "cap {cap}: OptLP {:.17e} vs recorded {want:.17e}",
            relax.objective
        );

        let layout = &relax.layout;
        for i in 0..RULES {
            for (k, path) in inst.paths.iter().enumerate() {
                let mut covered = 0.0;
                for (pos, node) in path.nodes.iter().enumerate() {
                    let d = relax.d[layout.d(i, k, pos)];
                    let e = relax.e[layout.e(i, node.index())];
                    assert!(d <= e + 1e-7, "cap {cap}: rule {i} path {k} pos {pos}: d {d} > e {e}");
                    covered += d;
                }
                assert!(covered <= 1.0 + 1e-7, "cap {cap}: rule {i} path {k} covered {covered}");
            }
        }

        let opts = RoundingOpts {
            strategy: Strategy::GreedyLpResolve,
            iterations: 10,
            seed: ci as u64 + 1,
            ..Default::default()
        };
        let sol = round_best_of(&inst, &relax, &opts).expect("rounding");
        inst.check_feasible(&sol.e, &sol.d, 1e-6)
            .unwrap_or_else(|e| panic!("cap {cap}: rounded deployment infeasible: {e}"));
        assert!(
            sol.objective <= relax.objective * (1.0 + 1e-9),
            "cap {cap}: rounded {} above OptLP {}",
            sol.objective,
            relax.objective
        );
    }
}
