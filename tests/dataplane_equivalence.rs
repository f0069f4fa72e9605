//! The engine's per-session entry points are shortcuts, not new semantics:
//! `process_session` and `process_session_fast` must leave an engine in
//! exactly the state that feeding the same packets one at a time through
//! `process_packet` does, including when later sessions reuse an earlier
//! connection's 5-tuple in either orientation. The streaming runners must
//! generate their session stream once, however many engines they feed.

use nwdp::prelude::*;
use nwdp::traffic::Session;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Setup {
    topo: Topology,
    paths: PathDb,
    tm: TrafficMatrix,
    dep: NidsDeployment,
    manifest: SamplingManifest,
}

fn setup() -> Setup {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    Setup { topo, paths, tm, dep, manifest }
}

/// A generated stream with replays mixed in: every third session is
/// followed by a repeat of an earlier session's 5-tuple, every fourth by
/// an earlier session seen from the responder's side (reversed tuple,
/// swapped endpoints). Ids are renumbered in order; the flag marks the
/// replays.
fn sessions_with_reused_tuples(s: &Setup) -> Vec<(Session, bool)> {
    let base: Vec<Session> =
        SessionStream::new(&s.topo, &s.tm, &TraceConfig::new(1500, 29)).collect();
    let mut out = Vec::with_capacity(base.len() * 2);
    for (i, session) in base.iter().enumerate() {
        out.push((session.clone(), false));
        if i % 3 == 0 {
            out.push((base[i / 2].clone(), true));
        }
        if i % 4 == 1 {
            let mut rev = base[i / 2].clone();
            rev.tuple = rev.tuple.reversed();
            std::mem::swap(&mut rev.src_node, &mut rev.dst_node);
            out.push((rev, true));
        }
    }
    for (id, (session, _)) in out.iter_mut().enumerate() {
        session.id = id as u64;
    }
    out
}

#[test]
fn session_entry_points_match_packet_by_packet_replay() {
    let s = setup();
    let sessions = sessions_with_reused_tuples(&s);
    let names: Vec<String> = s.dep.classes.iter().map(|c| c.name.clone()).collect();
    let h = KeyedHasher::with_key(5);
    let (mut skipped, mut reused) = (0, 0);
    for placement in [Placement::EventEngine, Placement::PolicyEngine] {
        for j in 0..s.dep.num_nodes {
            let node = NodeId(j);
            let engine = || {
                let coord = CoordContext::new(&s.dep, &s.manifest);
                Engine::new(node, placement, &names, Some(coord), h).unwrap()
            };
            let (mut by_packet, mut by_session, mut fast) = (engine(), engine(), engine());
            for (session, replay) in &sessions {
                if s.paths.path(session.src_node, session.dst_node).position(node).is_none() {
                    continue;
                }
                for pkt in session.packets() {
                    by_packet.process_packet(&pkt);
                }
                by_session.process_session(session);
                let before = replay.then(|| fast.stats());
                fast.process_session_fast(session);
                if let Some(before) = before {
                    // Analysed, yet no new record: it found the old one.
                    let after = fast.stats();
                    reused += u64::from(
                        after.fastpath_skipped == before.fastpath_skipped
                            && after.connections == before.connections,
                    );
                }
            }
            let want = format!("{:?}", by_packet.stats());
            let ctx = format!("node {j}, {placement:?}");
            assert_eq!(format!("{:?}", by_session.stats()), want, "process_session, {ctx}");
            assert_eq!(format!("{:?}", fast.stats()), want, "process_session_fast, {ctx}");
            skipped += fast.stats().fastpath_skipped;
        }
    }
    assert!(skipped > 0, "the fast path never skipped a session");
    assert!(reused > 0, "no session reused an existing connection record");
}

#[test]
fn streaming_runs_call_their_source_once() {
    let s = setup();
    let cfg = TraceConfig::new(1200, 31);
    let h = KeyedHasher::with_key(5);
    let calls = AtomicUsize::new(0);
    let source = || {
        calls.fetch_add(1, Ordering::SeqCst);
        SessionStream::new(&s.topo, &s.tm, &cfg)
    };
    for shards in [1usize, 3] {
        calls.store(0, Ordering::SeqCst);
        run_coordinated_stream(
            &s.dep,
            &s.manifest,
            &s.paths,
            source,
            Placement::EventEngine,
            h,
            shards,
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "stream run, {shards} shards");

        calls.store(0, Ordering::SeqCst);
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; s.dep.num_nodes];
        let reload_cfg = ReloadConfig {
            epochs: 4,
            total_sessions: 1200,
            caps: &caps,
            redundancy: 1.0,
            max_load: 1.0,
            blend: 0.5,
            sabotage: Sabotage::None,
        };
        let run = run_coordinated_stream_reload(
            &s.dep,
            &s.manifest,
            &s.paths,
            source,
            Placement::EventEngine,
            h,
            shards,
            &reload_cfg,
        )
        .unwrap();
        assert_eq!(run.decisions.len(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "reload run, {shards} shards");
    }
}
