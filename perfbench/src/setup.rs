//! The NIDS deployment both data-plane workloads start from: Internet2,
//! the 9 standard analysis classes under a gravity traffic matrix, the
//! NIDS LP solved for homogeneous nodes, manifests compiled and validated.

use crate::report::Metric;
use crate::{Opts, Size};
use nwdp_core::nids::{
    generate_manifests, solve_nids_lp, validate_manifests, NidsLpConfig, NodeCaps, SamplingManifest,
};
use nwdp_core::{build_units, AnalysisClass, NidsDeployment};
use nwdp_topo::{internet2, PathDb, Topology};
use nwdp_traffic::{TrafficMatrix, VolumeModel};
use std::time::Instant;

/// Homogeneous node capacities of the paper's network-wide evaluation.
pub const CAPS: NodeCaps = NodeCaps { cpu: 2.0e8, mem: 4.0e9 };

/// Full coverage: the redundancy of the LP and the validation gate.
pub const REDUNDANCY: f64 = 1.0;

pub struct NidsSetup {
    pub topo: Topology,
    pub paths: PathDb,
    pub tm: TrafficMatrix,
    pub dep: NidsDeployment,
    pub manifest: SamplingManifest,
    pub caps: Vec<NodeCaps>,
    pub times: SetupTimes,
}

/// Wall time of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology, routing, traffic matrix and coordination units.
    pub model_s: f64,
    pub lp_solve_s: f64,
    pub lp_iterations: usize,
    pub manifest_s: f64,
    pub validate_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.model_s + self.lp_solve_s + self.manifest_s + self.validate_s
    }
}

impl NidsSetup {
    pub fn build() -> Result<Self, String> {
        let t = Instant::now();
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let caps = vec![CAPS; dep.num_nodes];
        let model_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let assignment = solve_nids_lp(&dep, &NidsLpConfig::homogeneous(dep.num_nodes, CAPS))
            .map_err(|e| format!("NIDS LP: {e}"))?;
        let lp_solve_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let manifest = generate_manifests(&dep, &assignment.d);
        let manifest_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        validate_manifests(&dep, &manifest, REDUNDANCY, None)
            .map_err(|e| format!("set-up manifest invalid: {e}"))?;
        let validate_s = t.elapsed().as_secs_f64();

        let times = SetupTimes {
            model_s,
            lp_solve_s,
            lp_iterations: assignment.lp_iterations,
            manifest_s,
            validate_s,
        };
        Ok(NidsSetup { topo, paths, tm, dep, manifest, caps, times })
    }

    /// Build `REPS` times in a plain full-size run (once otherwise) and
    /// keep the last build; `setup_s` is the median build time.
    pub fn build_timed(opts: &Opts) -> Result<(Self, Metric), String> {
        const REPS: usize = 3;
        let reps = if opts.size == Size::Full && !opts.trace { REPS } else { 1 };
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let s = Self::build()?;
            samples.push(s.times.total_s());
            last = Some(s);
        }
        let s = last.expect("at least one set-up ran");
        Ok((s, Metric::median_of("setup_s", "s", samples)))
    }
}
