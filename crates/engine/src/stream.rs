//! Streaming sharded data plane.
//!
//! The batch runner ([`run_coordinated`](crate::netwide::run_coordinated))
//! materializes the whole trace and replays one engine per node. This
//! module replaces that with a pull-based pipeline: sessions are generated
//! on demand (no materialized trace), each node's work is split across
//! `shards` per-lane engines, and every lane engine uses the batched
//! §2.3 membership check ([`Engine::process_session_fast`]) so traffic
//! outside its manifest slice is charged without synthesizing packets.
//!
//! A single router generates the stream once. It pulls sessions in
//! chunks, looks up each session's path and shard once, and hands every
//! on-path `(node, shard)` lane the indices of its sessions; the lanes
//! then run in parallel over the chunk. Each lane sees its sessions in
//! stream order, exactly as if it had filtered the whole stream itself.
//!
//! ## Why sharding preserves bit-identical results
//!
//! Sessions are assigned to shards by the keyed `BiSession` coordination
//! hash of their canonical tuple — the same orientation-invariant hash the
//! connection table keys on — so no two shards ever share a connection
//! record. Per-connection work is therefore identical to the batch run;
//! the only cross-shard state is the monotone per-host aggregates of Scan
//! and SYNFlood, which merge exactly (see
//! [`Analyzer`](crate::modules::Analyzer)`::absorb`). Shards merge in
//! ascending shard order per node, so the result is deterministic for any
//! worker count, and `tests/parallel_equivalence.rs` pins the merged
//! [`RunStats`](crate::engine::RunStats) bit-identical to the batch run.

use crate::engine::{CoordContext, Engine, Placement};
use crate::modules::EngineError;
use crate::netwide::{flush_metrics, NetworkRun};
use nwdp_core::nids::SamplingManifest;
use nwdp_core::{parallel, NidsDeployment};
use nwdp_hash::{FlowKeyKind, KeyedHasher};
use nwdp_obs::{self as obs, Histogram};
use nwdp_topo::{NodeId, PathDb};
use nwdp_traffic::Session;
use std::collections::BTreeSet;
use std::iter::Peekable;
use std::sync::{Arc, Mutex};

/// Effective shard count for the streaming data plane: the `NWDP_SHARDS`
/// environment variable when set, else the parallel worker count (see
/// [`parallel::num_threads`]). Results are shard-count-invariant; the knob
/// only trades per-shard state size against merge work. An unparseable
/// value warns once on stderr (and bumps `config.invalid_env`) instead of
/// being silently ignored.
pub fn stream_shards() -> usize {
    parallel::env_count("NWDP_SHARDS").unwrap_or_else(parallel::num_threads)
}

/// Shard owning `session`: the keyed `BiSession` hash of its canonical
/// tuple scaled to `0..shards`. `BiSession` is orientation-invariant, so
/// every session sharing a connection-table record lands on one shard.
pub fn shard_of(hasher: &KeyedHasher, session: &Session, shards: usize) -> usize {
    let h = hasher.unit_hash(&session.tuple, FlowKeyKind::BiSession);
    // unit_hash < 1.0 strictly (u32 / 2^32); min guards the cast anyway.
    ((h * shards as f64) as usize).min(shards.saturating_sub(1))
}

/// Bucket bounds of the `engine.stream.pkt_ns` per-packet latency
/// histogram: geometric from 20 ns spanning into the tens of milliseconds.
/// Public so the throughput bench fetches the identical histogram.
pub fn pkt_latency_bounds() -> Vec<f64> {
    Histogram::exponential_bounds(20.0, 1.7, 28)
}

/// Sessions the router pulls per round: enough to amortize the lane
/// fan-out, few enough that the chunk stays small next to engine state.
const CHUNK: usize = 8192;

/// The per-`(node, shard)` engines of a streaming run and the router that
/// feeds them from one pass over the session stream. Both streaming
/// runners are built on it.
pub(crate) struct Router<'a, 'p> {
    paths: &'p PathDb,
    hasher: KeyedHasher,
    shards: usize,
    /// Engine of lane `node · shards + shard`; lanes persist across
    /// chunks (and epochs), so connection state does too.
    lanes: Vec<Mutex<Engine<'a>>>,
    /// Per lane, indices into `chunk` of the sessions it processes, in
    /// stream order.
    routes: Vec<Vec<u32>>,
    chunk: Vec<Session>,
    /// Per-packet latency histogram, fed only when set.
    lat: Option<Arc<Histogram>>,
}

impl<'a, 'p> Router<'a, 'p> {
    /// One engine per `(node, shard)` lane, each with a clone of `coord`.
    pub(crate) fn new(
        coord: CoordContext<'a>,
        paths: &'p PathDb,
        placement: Placement,
        hasher: KeyedHasher,
        shards: usize,
        lat: Option<Arc<Histogram>>,
    ) -> Result<Self, EngineError> {
        let shards = shards.max(1);
        let names: Vec<String> = coord.dep.classes.iter().map(|c| c.name.clone()).collect();
        let n = coord.dep.num_nodes * shards;
        let mut lanes = Vec::with_capacity(n);
        for lane in 0..n {
            let node = NodeId(lane / shards);
            let engine = Engine::new(node, placement, &names, Some(coord.clone()), hasher)?;
            lanes.push(Mutex::new(engine));
        }
        Ok(Router {
            paths,
            hasher,
            shards,
            lanes,
            routes: vec![Vec::new(); n],
            chunk: Vec::with_capacity(CHUNK),
            lat,
        })
    }

    /// Route and process sessions until `source` runs dry or, with an
    /// `end`, its next session id is `end` or past it. `ingress` sees
    /// every routed session once, at its ingress node.
    pub(crate) fn run<I: Iterator<Item = Session>>(
        &mut self,
        source: &mut Peekable<I>,
        end: Option<u64>,
        mut ingress: impl FnMut(&Session),
    ) {
        loop {
            self.chunk.clear();
            while self.chunk.len() < CHUNK {
                let next = match end {
                    None => source.next(),
                    Some(end) => source.next_if(|s| s.id < end),
                };
                let Some(session) = next else { break };
                self.chunk.push(session);
            }
            if self.chunk.is_empty() {
                return;
            }
            self.route(&mut ingress);
            self.process();
        }
    }

    /// Fill `routes` for the current chunk: one path lookup and one shard
    /// hash per session.
    fn route(&mut self, ingress: &mut impl FnMut(&Session)) {
        for route in &mut self.routes {
            route.clear();
        }
        for (i, session) in self.chunk.iter().enumerate() {
            let i = i as u32;
            let shard =
                if self.shards > 1 { shard_of(&self.hasher, session, self.shards) } else { 0 };
            for &node in &self.paths.path(session.src_node, session.dst_node).nodes {
                let Some(route) = self.routes.get_mut(node.index() * self.shards + shard) else {
                    continue; // a node outside the deployment runs no engine
                };
                route.push(i);
                if node == session.src_node {
                    ingress(session);
                }
            }
        }
    }

    /// Run every lane over its share of the current chunk.
    fn process(&self) {
        parallel::par_map_n(self.lanes.len(), |k| {
            if self.routes[k].is_empty() {
                return;
            }
            let (node, shard) = (k / self.shards, k % self.shards);
            let _span = obs::span!("engine.stream_shard", node = node, shard = shard);
            let mut engine = self.lanes[k].lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            for &i in &self.routes[k] {
                let session = &self.chunk[i as usize];
                match &self.lat {
                    Some(lat) => {
                        let t0 = std::time::Instant::now();
                        engine.process_session_fast(session);
                        let per_pkt =
                            t0.elapsed().as_nanos() as f64 / session.packet_count().max(1) as f64;
                        lat.observe(per_pkt);
                    }
                    None => engine.process_session_fast(session),
                }
            }
        });
    }

    /// Swap `manifest` into every lane (see [`Engine::set_manifest`]).
    pub(crate) fn set_manifest(
        &mut self,
        manifest: &Arc<SamplingManifest>,
    ) -> Result<(), EngineError> {
        for lane in &mut self.lanes {
            lane.get_mut()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .set_manifest(manifest.clone())?;
        }
        Ok(())
    }

    /// Deterministic merge: shards fold into shard 0's engine in
    /// ascending shard order, nodes stay in node order.
    pub(crate) fn finish(self) -> NetworkRun {
        let mut per_node = Vec::with_capacity(self.lanes.len() / self.shards);
        let mut engines = self
            .lanes
            .into_iter()
            .map(|lane| lane.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()));
        while let Some(mut merged) = engines.next() {
            for shard in engines.by_ref().take(self.shards - 1) {
                merged.absorb_shard(shard);
            }
            per_node.push(merged.stats());
        }
        let mut alerts = BTreeSet::new();
        for st in &per_node {
            alerts.extend(st.alerts.iter().cloned());
        }
        NetworkRun { per_node, alerts }
    }
}

/// Run the coordinated deployment as a streaming data plane.
///
/// `source` is called exactly once; the single router pulls the returned
/// session iterator (e.g. a [`nwdp_traffic::SessionStream`]) and routes
/// each session to its on-path, shard-owning lanes. Produces a
/// [`NetworkRun`] bit-identical to `run_coordinated` over the
/// materialized trace on the same seed, for any thread or shard count.
///
/// When metrics are enabled, per-session wall time is recorded into the
/// `engine.stream.pkt_ns` histogram (normalized per packet) — the clock
/// reads make that pass slower, so throughput timing runs with metrics
/// off. Spans `engine.stream` / `engine.stream_shard` (one per lane and
/// chunk) journal the fan-out for `repro report`'s shard utilization
/// table.
pub fn run_coordinated_stream<I, S>(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    paths: &PathDb,
    source: S,
    placement: Placement,
    hasher: KeyedHasher,
    shards: usize,
) -> Result<NetworkRun, EngineError>
where
    I: Iterator<Item = Session>,
    S: Fn() -> I + Sync,
{
    assert_ne!(placement, Placement::Unmodified, "streaming run needs a coordinated placement");
    let shards = shards.max(1);
    let _span = obs::span!("engine.stream", nodes = dep.num_nodes, shards = shards);
    let lat = obs::enabled().then(|| obs::histogram("engine.stream.pkt_ns", &pkt_latency_bounds()));
    let coord = CoordContext::new(dep, manifest);
    let mut router = Router::new(coord, paths, placement, hasher, shards, lat)?;
    router.run(&mut source().peekable(), None, |_| {});
    let run = router.finish();
    if obs::enabled() {
        flush_metrics("stream", &run);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_core::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_topo::internet2;
    use nwdp_traffic::{SessionStream, TraceConfig, TrafficMatrix, VolumeModel};

    // The full streaming-vs-batch bit-identity suite lives in
    // tests/parallel_equivalence.rs (it needs the LP crate); here we pin
    // the shard assignment itself.
    #[test]
    fn shard_assignment_is_orientation_invariant_and_in_range() {
        let topo = internet2();
        let tm = TrafficMatrix::gravity(&topo);
        let cfg = TraceConfig::new(2000, 21);
        let hasher = KeyedHasher::with_key(5);
        for shards in [1usize, 2, 7] {
            for mut s in SessionStream::new(&topo, &tm, &cfg) {
                let fwd = shard_of(&hasher, &s, shards);
                assert!(fwd < shards);
                s.tuple = s.tuple.reversed();
                assert_eq!(fwd, shard_of(&hasher, &s, shards), "BiSession must ignore direction");
            }
        }
    }

    #[test]
    fn merged_shards_cover_every_session_once() {
        let topo = internet2();
        let paths = nwdp_topo::PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let assignment = solve_nids_lp(&dep, &lp).expect("lp solves");
        let manifest = generate_manifests(&dep, &assignment.d);
        let cfg = TraceConfig::new(1500, 17);
        let hasher = KeyedHasher::with_key(5);
        let trace = nwdp_traffic::generate_trace(&topo, &tm, &cfg);

        let one = run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            1,
        )
        .expect("stream runs");
        let four = run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            4,
        )
        .expect("stream runs");
        assert_eq!(one.alerts, four.alerts);
        for (a, b, node) in one.per_node.iter().zip(&four.per_node).map(|(a, b)| (a, b, a.node.0)) {
            assert_eq!(a.packets, b.packets, "node {node}");
            // Each node sees exactly its on-path packets regardless of
            // shard count.
            let expect: u64 =
                trace.onpath_sessions(&paths, a.node).map(|s| s.packet_count() as u64).sum();
            assert_eq!(a.packets, expect, "node {node}");
            assert_eq!(a.connections, b.connections, "node {node}");
            assert_eq!(a.cpu_cycles, b.cpu_cycles, "node {node}");
            assert_eq!(a.mem_peak, b.mem_peak, "node {node}");
        }
    }
}
