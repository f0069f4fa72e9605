//! Connection tracking (the Bro event engine's connection records).
//!
//! "Bro maintains a connection record for each end-to-end session which is
//! generated in the event engine and carried into the policy engine"
//! (§2.3). The coordinated prototype extends the record with hashes of
//! different header-field combinations so policy scripts never recompute
//! them; this costs a few percent of memory (Fig 5(b)) but makes the
//! coordination checks cheap.

use crate::cost::{CostModel, Meter};
use nwdp_hash::{FiveTuple, FlowKeyKind, KeyedHasher};
use nwdp_traffic::AppProtocol;
use std::collections::HashMap;

/// Precomputed coordination hashes carried in the connection record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnHashes {
    pub uniflow: f64,
    pub bisession: f64,
    pub source: f64,
    pub destination: f64,
}

impl ConnHashes {
    pub fn get(&self, kind: FlowKeyKind) -> f64 {
        match kind {
            FlowKeyKind::UniFlow => self.uniflow,
            FlowKeyKind::BiSession => self.bisession,
            FlowKeyKind::Source => self.source,
            FlowKeyKind::Destination => self.destination,
            FlowKeyKind::HostPair => self.bisession,
        }
    }
}

/// Most modules one engine can run: the width of
/// [`ConnRecord::enabled`].
pub const MAX_MODULES: usize = u64::BITS as usize;

/// Bitmask with the low `n` bits set: every one of `n` modules enabled.
fn all_modules(n: usize) -> u64 {
    if n >= MAX_MODULES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A connection record.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Originator-oriented tuple (the connection's canonical identity).
    pub orig: FiveTuple,
    pub app: Option<AppProtocol>,
    pub pkts: u64,
    pub bytes: u64,
    pub saw_syn: bool,
    pub saw_fin: bool,
    /// Coordination hashes (populated only in coordinated deployments).
    pub hashes: ConnHashes,
    /// Per-module analysis opt-in decided at connection setup (used by the
    /// event-engine check placement): bit `m` set = module `m` analyzes
    /// this connection. A bitmask, so creating a record allocates nothing;
    /// engines run at most [`MAX_MODULES`] modules.
    pub enabled: u64,
    /// §2.5 fine-grained extension: the connection is tracked in a
    /// lightweight record because every interested module consumes only
    /// connection-level events (no per-packet analysis needed).
    pub light: bool,
}

impl ConnRecord {
    /// Does module `m` analyze this connection?
    pub fn is_enabled(&self, m: usize) -> bool {
        self.enabled >> m & 1 == 1
    }
}

/// The connection table.
#[derive(Debug)]
pub struct ConnTable {
    map: HashMap<FiveTuple, usize>,
    records: Vec<ConnRecord>,
    /// Whether records carry coordination hashes (+memory, Fig 5(b)).
    with_hashes: bool,
    n_modules: usize,
}

impl ConnTable {
    pub fn new(with_hashes: bool, n_modules: usize) -> Self {
        ConnTable { map: HashMap::new(), records: Vec::new(), with_hashes, n_modules }
    }

    fn canonical(t: &FiveTuple) -> FiveTuple {
        // Bidirectional canonical key (same for both directions).
        let r = t.reversed();
        if (t.src_ip, t.src_port) <= (r.src_ip, r.src_port) {
            *t
        } else {
            r
        }
    }

    /// Record size in bytes under the cost model.
    pub fn record_bytes(&self, costs: &CostModel) -> u64 {
        costs.conn_bytes
            + if self.with_hashes { costs.conn_hash_bytes } else { 0 }
            + self.n_modules as u64 // enabled-bitmap footprint
    }

    /// Size of a §2.5 lightweight record: enough for the 5-tuple, counters
    /// and hashes, but no reassembly/analyzer state.
    pub fn light_record_bytes(&self, costs: &CostModel) -> u64 {
        64 + if self.with_hashes { costs.conn_hash_bytes } else { 0 }
    }

    /// Downgrade a record to the lightweight representation, refunding the
    /// memory difference (called once the engine knows only conn-level
    /// modules are interested).
    pub fn make_light(&mut self, idx: usize, costs: &CostModel, meter: &mut Meter) {
        let full = self.record_bytes(costs);
        let light = self.light_record_bytes(costs);
        let rec = &mut self.records[idx];
        if !rec.light {
            rec.light = true;
            meter.free(full.saturating_sub(light));
        }
    }

    /// Look up the record for a tuple without creating one (no cost
    /// charged; used by the §2.3 fast path which runs inside the same
    /// table probe).
    pub fn find(&self, tuple: &FiveTuple) -> Option<usize> {
        self.map.get(&Self::canonical(tuple)).copied()
    }

    /// Look up (or create) the record for a packet, given the result of
    /// [`ConnTable::find`] for its tuple, which callers carry from packet
    /// to packet of a session. Charges lookup / creation costs: a known
    /// record costs no table probe and a new one only its insertion.
    /// Returns `(index, is_new)`; the packet's tuple becomes the
    /// originator tuple on creation (first packet wins).
    pub fn upsert(
        &mut self,
        found: Option<usize>,
        tuple: &FiveTuple,
        hasher: &KeyedHasher,
        costs: &CostModel,
        meter: &mut Meter,
    ) -> (usize, bool) {
        debug_assert_eq!(found, self.find(tuple), "stale connection lookup");
        meter.cpu(costs.conn_lookup);
        if let Some(idx) = found {
            return (idx, false);
        }
        meter.cpu(costs.conn_create);
        meter.alloc(self.record_bytes(costs));
        let hashes = if self.with_hashes {
            // §2.3: computed once at connection setup, carried in the
            // record; avoids recomputation in every policy script.
            meter.cpu(costs.hash_compute * 4);
            ConnHashes {
                uniflow: hasher.unit_hash(tuple, FlowKeyKind::UniFlow),
                bisession: hasher.unit_hash(tuple, FlowKeyKind::BiSession),
                source: hasher.unit_hash(tuple, FlowKeyKind::Source),
                destination: hasher.unit_hash(tuple, FlowKeyKind::Destination),
            }
        } else {
            ConnHashes::default()
        };
        let idx = self.records.len();
        self.records.push(ConnRecord {
            orig: *tuple,
            app: AppProtocol::from_port(tuple.dst_port),
            pkts: 0,
            bytes: 0,
            saw_syn: false,
            saw_fin: false,
            hashes,
            enabled: all_modules(self.n_modules),
            light: false,
        });
        self.map.insert(Self::canonical(tuple), idx);
        (idx, true)
    }

    pub fn get(&self, idx: usize) -> &ConnRecord {
        &self.records[idx]
    }

    pub fn get_mut(&mut self, idx: usize) -> &mut ConnRecord {
        &mut self.records[idx]
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x0a010002, 41000, 80, 6)
    }

    fn upsert(t: &mut ConnTable, tuple: &FiveTuple, m: &mut Meter) -> (usize, bool) {
        let found = t.find(tuple);
        t.upsert(found, tuple, &KeyedHasher::with_key(42), &CostModel::default(), m)
    }

    #[test]
    fn both_directions_hit_same_record() {
        let mut t = ConnTable::new(true, 3);
        let mut m = Meter::new();
        let (i1, new1) = upsert(&mut t, &tuple(), &mut m);
        let (i2, new2) = upsert(&mut t, &tuple().reversed(), &mut m);
        assert_eq!(i1, i2);
        assert!(new1 && !new2);
        assert_eq!(t.len(), 1);
        // Originator orientation preserved from the first packet.
        assert_eq!(t.get(i1).orig, tuple());
    }

    #[test]
    fn new_records_enable_every_module() {
        assert_eq!(all_modules(0), 0);
        assert_eq!(all_modules(3), 0b111);
        assert_eq!(all_modules(MAX_MODULES), u64::MAX);
        let mut t = ConnTable::new(true, MAX_MODULES);
        let (i, _) = upsert(&mut t, &tuple(), &mut Meter::new());
        assert!((0..MAX_MODULES).all(|m| t.get(i).is_enabled(m)));
    }

    #[test]
    fn hash_fields_cost_memory() {
        let c = CostModel::default();
        let mut with = Meter::new();
        let mut without = Meter::new();
        let mut tw = ConnTable::new(true, 0);
        let mut tn = ConnTable::new(false, 0);
        upsert(&mut tw, &tuple(), &mut with);
        upsert(&mut tn, &tuple(), &mut without);
        assert_eq!(with.mem_bytes - without.mem_bytes, c.conn_hash_bytes);
        assert!(with.cpu_cycles > without.cpu_cycles, "hash computation charged");
    }

    #[test]
    fn distinct_connections_distinct_records() {
        let mut t = ConnTable::new(false, 0);
        let mut m = Meter::new();
        upsert(&mut t, &tuple(), &mut m);
        let mut other = tuple();
        other.src_port = 50000;
        upsert(&mut t, &other, &mut m);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn record_hash_consistency_with_keyed_hasher() {
        let mut t = ConnTable::new(true, 0);
        let h = KeyedHasher::with_key(42); // the key `upsert` hashes with
        let mut m = Meter::new();
        let (i, _) = upsert(&mut t, &tuple(), &mut m);
        let r = t.get(i);
        assert_eq!(r.hashes.bisession, h.unit_hash(&tuple(), FlowKeyKind::BiSession));
        assert_eq!(r.hashes.bisession, h.unit_hash(&tuple().reversed(), FlowKeyKind::BiSession));
    }
}
