//! The Internet2 NIDS LP (814 rows, the deployment behind the stream and
//! reload loops) pinned end to end on the production simplex backend.
//!
//! - The gravity and uniform mixes solve to their recorded optima.
//! - A 22-step chain of warm re-solves over perturbed unit volumes (the
//!   shape of the reload controller's epoch re-solves) matches a cold
//!   solve at every step, and every warm assignment covers each unit
//!   exactly `r` times.

use nwdp::core::nids::solve_nids_lp_warm;
use nwdp::prelude::*;

/// Optimal `max(CpuLoad, MemLoad)` of each mix, recorded from the
/// dense-inverse backend before the sparse factorization became the only
/// production backend. The LP's optimal value is unique, so any backend
/// must reproduce it.
const GRAVITY_MAX_LOAD: f64 = 0.443_636_363_636_363_66;
const UNIFORM_MAX_LOAD: f64 = 0.443_636_363_636_363_16;

/// Re-solves per reload pass: one per epoch boundary of the 24-epoch loop.
const CHAIN_STEPS: usize = 22;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1e-12)
}

fn deployment(tm: &TrafficMatrix) -> (NidsDeployment, NidsLpConfig) {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    (dep, cfg)
}

#[test]
fn gravity_and_uniform_mixes_reach_recorded_optima() {
    let topo = nwdp::topo::internet2();
    for (name, tm, want) in [
        ("gravity", TrafficMatrix::gravity(&topo), GRAVITY_MAX_LOAD),
        ("uniform", TrafficMatrix::uniform(&topo), UNIFORM_MAX_LOAD),
    ] {
        let (dep, cfg) = deployment(&tm);
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        assert!(rel_close(a.max_load, want), "{name}: max load {} vs recorded {want}", a.max_load);
    }
}

#[test]
fn perturbed_warm_chain_matches_cold_at_every_step() {
    let topo = nwdp::topo::internet2();
    let (base, cfg) = deployment(&TrafficMatrix::gravity(&topo));
    // Deterministic per-unit volume factors in [0.75, 1.25) (xorshift).
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut factor = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        0.75 + 0.5 * ((s >> 11) as f64 / (1u64 << 53) as f64)
    };
    let mut warm = None;
    for step in 0..CHAIN_STEPS {
        let mut dep = base.clone();
        for u in dep.units.iter_mut() {
            u.pkts *= factor();
            u.items *= factor();
        }
        let (cold, _) = solve_nids_lp_warm(&dep, &cfg, None).unwrap();
        let (hot, snap) = solve_nids_lp_warm(&dep, &cfg, warm.as_ref()).unwrap();
        assert!(snap.is_some(), "step {step}: optimal solve must return a basis");
        warm = snap;
        assert!(
            rel_close(hot.max_load, cold.max_load),
            "step {step}: warm {} vs cold {}",
            hot.max_load,
            cold.max_load
        );
        for (u, fr) in hot.d.iter().enumerate() {
            let sum: f64 = fr.iter().map(|&(_, f)| f).sum();
            assert!(
                (sum - cfg.redundancy).abs() <= 1e-9,
                "step {step}: unit {u} fractions sum to {sum}, not {}",
                cfg.redundancy
            );
        }
    }
}
