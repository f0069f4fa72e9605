//! Sparse product-form-of-the-inverse (PFI) basis backend.
//!
//! The basis inverse is represented as `B⁻¹ = E'_j · … · E'_1 · Pᵀ · E_k · … · E_1`:
//! a refactorization eta file `E_*` with a row permutation `P` (pivot rows
//! are chosen for numerical stability, so positions and rows need not
//! align), followed by update etas `E'_*` appended at each pivot.
//!
//! Each refactorization eta has a distinct pivot row, so applying the file
//! to a sparse vector can skip irrelevant etas entirely: an eta fires only
//! if the vector is nonzero at its pivot row *at its turn*, and the only
//! candidates are etas seeded by the vector's support or by earlier
//! firings. FTRAN therefore walks a min-heap of candidate eta indices
//! (Gilbert–Peierls-style topological order) at cost `O(fill · log fill)`
//! instead of scanning the whole file — the difference between hours and
//! seconds on the 40k-row deployment LPs.

use super::{BasisBackend, SingularBasis};

/// One eta transformation: identity except column `pivot_row`.
struct Eta {
    pivot_row: usize,
    inv_pivot: f64,
    /// Off-pivot entries `(row, -y_row / y_pivot)`.
    off: Vec<(usize, f64)>,
}

impl Eta {
    /// Build the eta that realizes replacing basis position `pivot_row` by
    /// a column whose FTRAN image is `y` (dense).
    fn from_dense(pivot_row: usize, y: &[f64]) -> Eta {
        let yr = y[pivot_row];
        let inv = 1.0 / yr;
        let mut off = Vec::new();
        for (i, &yi) in y.iter().enumerate() {
            if i != pivot_row && yi.abs() > 1e-13 {
                off.push((i, -yi * inv));
            }
        }
        Eta { pivot_row, inv_pivot: inv, off }
    }

    fn is_identity(&self) -> bool {
        self.off.is_empty() && (self.inv_pivot - 1.0).abs() < 1e-14
    }

    /// `v ← E v` (dense variant for the update file).
    #[inline]
    fn apply(&self, v: &mut [f64]) {
        let t = v[self.pivot_row];
        if t == 0.0 {
            return;
        }
        v[self.pivot_row] = t * self.inv_pivot;
        for &(i, e) in &self.off {
            v[i] += e * t;
        }
    }

    /// `v ← Eᵀ v`.
    #[inline]
    fn apply_transposed(&self, v: &mut [f64]) {
        let mut acc = self.inv_pivot * v[self.pivot_row];
        for &(i, e) in &self.off {
            acc += e * v[i];
        }
        v[self.pivot_row] = acc;
    }
}

/// Apply `Eᵀ` for each eta in turn, pushing every entry that turns from
/// zero to nonzero onto `support` (duplicates possible after an exact
/// cancellation).
fn sweep_transposed<'a>(
    etas: impl Iterator<Item = &'a Eta>,
    out: &mut [f64],
    support: &mut Vec<usize>,
) {
    for eta in etas {
        let was_zero = out[eta.pivot_row] == 0.0;
        eta.apply_transposed(out);
        if was_zero && out[eta.pivot_row] != 0.0 {
            support.push(eta.pivot_row);
        }
    }
}

const NONE: u32 = u32::MAX;

pub struct SparseFactors {
    m: usize,
    /// Etas from the last refactorization (applied first in FTRAN).
    etas_pre: Vec<Eta>,
    /// `eta_of_row[r]` = index into `etas_pre` whose pivot row is `r`
    /// (`NONE` if the row never needed a non-trivial eta).
    eta_of_row: Vec<u32>,
    /// `perm[pos]` = pivot row used for basis position `pos`; `None` when
    /// the permutation is the identity.
    perm: Option<Vec<usize>>,
    /// `inv_perm[row]` = basis position whose pivot row is `row`.
    inv_perm: Option<Vec<usize>>,
    /// Update etas appended since the last refactorization.
    etas_post: Vec<Eta>,
    /// Update-eta growth budget before hinting a refactor.
    update_budget: usize,
    /// Visited stamps per pre-eta for the heap traversal.
    stamp: std::cell::RefCell<(u32, Vec<u32>)>,
    /// Workspace for applying the permutation, so FTRAN and BTRAN do not
    /// allocate on every call.
    perm_buf: std::cell::RefCell<Vec<f64>>,
}

impl SparseFactors {
    pub fn new() -> Self {
        SparseFactors {
            m: 0,
            etas_pre: Vec::new(),
            eta_of_row: Vec::new(),
            perm: None,
            inv_perm: None,
            etas_post: Vec::new(),
            update_budget: 96,
            stamp: std::cell::RefCell::new((0, Vec::new())),
            perm_buf: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Apply the pre-eta file to a sparse vector held in `(v, touched)`:
    /// only etas reachable from the support fire, in index order.
    fn apply_pre_sparse(&self, v: &mut [f64], touched: &mut Vec<usize>) {
        let mut stamp_ref = self.stamp.borrow_mut();
        let (counter, stamps) = &mut *stamp_ref;
        *counter = counter.wrapping_add(1);
        if *counter == 0 {
            stamps.fill(0);
            *counter = 1;
        }
        let cur = *counter;
        stamps.resize(self.etas_pre.len(), 0);

        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::new();
        for &r in touched.iter() {
            let e = self.eta_of_row[r];
            if e != NONE && stamps[e as usize] != cur {
                stamps[e as usize] = cur;
                heap.push(std::cmp::Reverse(e));
            }
        }
        while let Some(std::cmp::Reverse(idx)) = heap.pop() {
            let eta = &self.etas_pre[idx as usize];
            let t = v[eta.pivot_row];
            if t == 0.0 {
                continue; // cancelled before its turn
            }
            v[eta.pivot_row] = t * eta.inv_pivot;
            for &(i, e) in &eta.off {
                if v[i] == 0.0 {
                    touched.push(i);
                }
                v[i] += e * t;
                // A later eta pivoting on a newly nonzero row may now fire.
                let cand = self.eta_of_row[i];
                if cand != NONE && cand > idx && stamps[cand as usize] != cur {
                    stamps[cand as usize] = cur;
                    heap.push(std::cmp::Reverse(cand));
                }
            }
        }
    }
}

impl Default for SparseFactors {
    fn default() -> Self {
        Self::new()
    }
}

impl BasisBackend for SparseFactors {
    fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.etas_pre.clear();
        self.etas_post.clear();
        self.eta_of_row = vec![NONE; m];
        self.perm = None;
        self.inv_perm = None;
        self.stamp.borrow_mut().1.clear();
        // Amortize refactorization against problem size: refactor cost is
        // O(m log m + fill), so the budget grows with m. Sparse FTRAN
        // skips dead update etas in O(1), keeping long files cheap.
        self.update_budget = (m / 16).clamp(96, 2048);
    }

    fn hint_refactor(&self) -> bool {
        self.etas_post.len() > self.update_budget
    }

    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        self.m = m;
        self.etas_pre.clear();
        self.etas_post.clear();
        self.eta_of_row = vec![NONE; m];
        self.perm = None;
        self.inv_perm = None;
        self.stamp.borrow_mut().1.clear();
        // Process columns by ascending nonzero count: unit/slack columns
        // yield identity or trivial etas and go first.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&p| basis_cols[p].len());

        let mut assigned_row = vec![false; m];
        let mut pos_pivot_row = vec![usize::MAX; m];
        // Sparse workspace: dense value array plus a touched list, so a
        // column costs O(fill · log fill), not O(m · file).
        let mut y = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        for &pos in &order {
            for &(r, a) in basis_cols[pos] {
                if y[r] == 0.0 {
                    touched.push(r);
                }
                y[r] += a;
            }
            self.apply_pre_sparse(&mut y, &mut touched);
            // Exact cancellations can re-push an index: dedupe before the
            // support is used to build the eta (duplicate off-entries
            // would corrupt the factorization).
            touched.sort_unstable();
            touched.dedup();
            // Pivot: largest magnitude among unassigned touched rows.
            let mut pr = usize::MAX;
            let mut best = 1e-10;
            for &i in &touched {
                if !assigned_row[i] && y[i].abs() > best {
                    best = y[i].abs();
                    pr = i;
                }
            }
            if pr == usize::MAX {
                // Reset workspace before bailing.
                for &i in &touched {
                    y[i] = 0.0;
                }
                return Err(SingularBasis);
            }
            assigned_row[pr] = true;
            pos_pivot_row[pos] = pr;
            // Build the eta from the touched entries only.
            let inv = 1.0 / y[pr];
            let mut off = Vec::new();
            for &i in &touched {
                if i != pr && y[i].abs() > 1e-13 {
                    off.push((i, -y[i] * inv));
                }
            }
            let eta = Eta { pivot_row: pr, inv_pivot: inv, off };
            if !eta.is_identity() {
                self.eta_of_row[pr] = self.etas_pre.len() as u32;
                self.etas_pre.push(eta);
            }
            for &i in &touched {
                y[i] = 0.0;
            }
            touched.clear();
        }
        if pos_pivot_row.iter().enumerate().any(|(pos, &pr)| pr != pos) {
            let mut inv = vec![0usize; m];
            for (pos, &pr) in pos_pivot_row.iter().enumerate() {
                inv[pr] = pos;
            }
            self.perm = Some(pos_pivot_row);
            self.inv_perm = Some(inv);
        }
        Ok(())
    }

    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        out[..self.m].fill(0.0);
        let mut touched: Vec<usize> = Vec::with_capacity(col.len() * 4);
        for &(r, a) in col {
            if out[r] == 0.0 {
                touched.push(r);
            }
            out[r] += a;
        }
        self.apply_pre_sparse(out, &mut touched);
        if let Some(perm) = &self.perm {
            // out'[pos] = out[perm[pos]]  (apply Pᵀ)
            let mut tmp = self.perm_buf.borrow_mut();
            tmp.clear();
            tmp.extend(perm.iter().map(|&pr| out[pr]));
            out[..self.m].copy_from_slice(&tmp);
        }
        for eta in &self.etas_post {
            eta.apply(out);
        }
    }

    fn btran(&self, c: &[f64], out: &mut [f64]) {
        out[..self.m].copy_from_slice(&c[..self.m]);
        for eta in self.etas_post.iter().rev() {
            eta.apply_transposed(out);
        }
        if let Some(perm) = &self.perm {
            // v ← P v : (P v)[perm[pos]] = v[pos]
            let mut tmp = self.perm_buf.borrow_mut();
            tmp.clear();
            tmp.extend_from_slice(&out[..self.m]);
            for (pos, &pr) in perm.iter().enumerate() {
                out[pr] = tmp[pos];
            }
        }
        for eta in self.etas_pre.iter().rev() {
            eta.apply_transposed(out);
        }
    }

    fn btran_unit(&self, r: usize, out: &mut [f64], support: &mut Vec<usize>) {
        // Same pass as `btran` but seeded with eᵣ in place: no
        // materialized unit vector, no O(m) clear or copy, and the support
        // grows only where a transposed eta writes a new nonzero (each eta
        // writes just its pivot entry).
        support.clear();
        out[r] = 1.0;
        support.push(r);
        sweep_transposed(self.etas_post.iter().rev(), out, support);
        if let Some(perm) = &self.perm {
            // Move the support's values from positions to their pivot rows.
            // A position listed twice (cancelled, then refilled) carries a
            // zero the second time and writes nothing.
            let mut vals = self.perm_buf.borrow_mut();
            vals.clear();
            for &pos in support.iter() {
                vals.push(out[pos]);
                out[pos] = 0.0;
            }
            for (slot, &v) in support.iter_mut().zip(vals.iter()) {
                *slot = perm[*slot];
                if v != 0.0 {
                    out[*slot] = v;
                }
            }
        }
        sweep_transposed(self.etas_pre.iter().rev(), out, support);
    }

    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        self.etas_post.push(Eta::from_dense(pivot_row, y));
    }

    fn ftran_sparse(&self, col: &[(usize, f64)], out: &mut [f64], touched: &mut Vec<usize>) {
        touched.clear();
        for &(r, a) in col {
            if out[r] == 0.0 {
                touched.push(r);
            }
            out[r] += a;
        }
        self.apply_pre_sparse(out, touched);
        if let Some(inv) = &self.inv_perm {
            // Permute sparsely: move values from rows to positions.
            let mut vals = self.perm_buf.borrow_mut();
            vals.clear();
            for &r in touched.iter() {
                vals.push(out[r]);
                out[r] = 0.0;
            }
            let mut kept = 0;
            for k in 0..touched.len() {
                let v = vals[k];
                if v != 0.0 {
                    let pos = inv[touched[k]];
                    out[pos] = v;
                    touched[kept] = pos;
                    kept += 1;
                }
            }
            touched.truncate(kept);
        }
        for eta in &self.etas_post {
            let t = out[eta.pivot_row];
            if t == 0.0 {
                continue;
            }
            out[eta.pivot_row] = t * eta.inv_pivot;
            for &(i, e) in &eta.off {
                if out[i] == 0.0 {
                    touched.push(i);
                }
                out[i] += e * t;
            }
        }
        // Exact cancellations can re-push indices; callers (ratio test,
        // basic-value updates, eta construction) need a duplicate-free
        // support.
        touched.sort_unstable();
        touched.dedup();
    }

    fn update_sparse(&mut self, pivot_row: usize, y: &[f64], touched: &[usize]) {
        let yr = y[pivot_row];
        let inv = 1.0 / yr;
        let mut off = Vec::with_capacity(touched.len());
        for &i in touched {
            if i != pivot_row && y[i].abs() > 1e-13 {
                off.push((i, -y[i] * inv));
            }
        }
        self.etas_post.push(Eta { pivot_row, inv_pivot: inv, off });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::dense::DenseInverse;
    use crate::simplex::BasisBackend;

    /// Pseudo-random sparse basis columns (diagonally dominated so the
    /// matrix is comfortably nonsingular).
    fn random_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|pos| {
                let mut col = vec![(pos, 2.0 + (next() % 7) as f64)];
                for _ in 0..(next() % 3) {
                    let r = (next() as usize) % m;
                    if r != pos {
                        col.push((r, ((next() % 9) as f64 - 4.0) / 3.0));
                    }
                }
                col.sort_by_key(|&(r, _)| r);
                col.dedup_by_key(|&mut (r, _)| r);
                col
            })
            .collect()
    }

    #[test]
    fn sparse_matches_dense_after_refactor() {
        for seed in 1..6u64 {
            let m = 17;
            let cols = random_basis(m, seed);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut sp = SparseFactors::new();
            let mut de = DenseInverse::new();
            sp.refactor(m, &refs).unwrap();
            de.refactor(m, &refs).unwrap();

            let probe: Vec<(usize, f64)> = vec![(0, 1.5), (m / 2, -2.0), (m - 1, 0.75)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&probe, &mut ys);
            de.ftran(&probe, &mut yd);
            for i in 0..m {
                assert!((ys[i] - yd[i]).abs() < 1e-9, "ftran mismatch at {i} (seed {seed})");
            }

            let c: Vec<f64> = (0..m).map(|i| (i as f64) - 3.0).collect();
            let mut ps = vec![0.0; m];
            let mut pd = vec![0.0; m];
            sp.btran(&c, &mut ps);
            de.btran(&c, &mut pd);
            for i in 0..m {
                assert!((ps[i] - pd[i]).abs() < 1e-9, "btran mismatch at {i} (seed {seed})");
            }
        }
    }

    #[test]
    fn sparse_matches_dense_after_updates() {
        let m = 11;
        let cols = random_basis(m, 42);
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut sp = SparseFactors::new();
        let mut de = DenseInverse::new();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();

        // Run a few synchronized pivots.
        for step in 0..5usize {
            let entering: Vec<(usize, f64)> =
                vec![(step % m, 1.0 + step as f64), ((step * 3 + 1) % m, -0.5)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&entering, &mut ys);
            de.ftran(&entering, &mut yd);
            // Pick the same well-conditioned pivot row for both.
            let r = (0..m).max_by(|&a, &b| ys[a].abs().total_cmp(&ys[b].abs())).unwrap();
            sp.update(r, &ys);
            de.update(r, &yd);

            let probe: Vec<(usize, f64)> = vec![(1, 1.0), (m - 2, 2.0)];
            let mut a = vec![0.0; m];
            let mut b = vec![0.0; m];
            sp.ftran(&probe, &mut a);
            de.ftran(&probe, &mut b);
            for i in 0..m {
                assert!((a[i] - b[i]).abs() < 1e-8, "step {step} row {i}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn btran_unit_matches_dense_rows() {
        // Row extraction must agree with the dense backend across a
        // permuted refactorization plus a few update etas.
        let m = 13;
        let cols = random_basis(m, 7);
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut sp = SparseFactors::new();
        let mut de = DenseInverse::new();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();
        for step in 0..3usize {
            let entering: Vec<(usize, f64)> = vec![(step, 2.0), ((step + 5) % m, 0.5)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&entering, &mut ys);
            de.ftran(&entering, &mut yd);
            let r = (0..m).max_by(|&a, &b| ys[a].abs().total_cmp(&ys[b].abs())).unwrap();
            sp.update(r, &ys);
            de.update(r, &yd);
        }
        let mut support = Vec::new();
        for r in 0..m {
            let mut rs = vec![0.0; m];
            let mut rd = vec![0.0; m];
            sp.btran_unit(r, &mut rs, &mut support);
            for (i, &v) in rs.iter().enumerate() {
                let listed = support.contains(&i);
                assert!(listed || v == 0.0, "row {r}: nonzero {i} missing from {support:?}");
            }
            de.btran_unit(r, &mut rd, &mut Vec::new());
            for i in 0..m {
                assert!((rs[i] - rd[i]).abs() < 1e-9, "row {r} col {i}: {rs:?} vs {rd:?}");
            }
        }
    }

    #[test]
    fn identity_roundtrip() {
        let mut sp = SparseFactors::new();
        sp.reset_identity(4);
        let mut y = vec![0.0; 4];
        sp.ftran(&[(2, 3.0)], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 3.0, 0.0]);
        let mut p = vec![0.0; 4];
        sp.btran(&[1.0, 2.0, 3.0, 4.0], &mut p);
        assert_eq!(p, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn larger_random_bases_roundtrip() {
        // FTRAN of B's own columns must recover unit vectors.
        for seed in [3u64, 9, 27] {
            let m = 200;
            let cols = random_basis(m, seed);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut sp = SparseFactors::new();
            sp.refactor(m, &refs).unwrap();
            let mut y = vec![0.0; m];
            for pos in (0..m).step_by(17) {
                sp.ftran(&cols[pos], &mut y);
                for (i, &v) in y.iter().enumerate() {
                    let want = if i == pos { 1.0 } else { 0.0 };
                    assert!(
                        (v - want).abs() < 1e-8,
                        "seed {seed}: B^-1 B e_{pos} wrong at {i}: {v}"
                    );
                }
            }
        }
    }
}
