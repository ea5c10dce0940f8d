//! Bound-to-bound quadratic wirelength model and conjugate-gradient solver.
//!
//! The B2B model (Spindler et al.) linearizes HPWL: per net and axis, the
//! extreme pins connect to each other and every interior pin connects to
//! both extremes, each two-pin edge weighted `w_e · 2 / ((p−1) · |x_i−x_j|)`
//! so the quadratic form's value equals the net's HPWL at the linearization
//! point. The resulting symmetric positive-definite system is solved with
//! Jacobi-preconditioned conjugate gradients.
//!
//! # Large-scale layout
//!
//! The off-diagonal entries are stored in SELL-C-σ form: rows are
//! grouped into slices of eight and each slice is stored
//! column-major, padded to its longest row, so the SpMV advances eight
//! independent accumulators per step instead of walking one row at a time
//! with a data-dependent trip count. Inside each σ-window of 1024 rows the
//! rows are sorted by length, which keeps the padding small; the
//! window equals the CG chunk, so every parallel chunk owns whole windows
//! and writes only its own output rows. Each row still accumulates
//! `diag·x` first and then its entries in the order a row-by-row CSR
//! kernel would, and padded lanes are masked with a select, so `A·p` is
//! bitwise equal to the plain CSR row kernel at any thread count. The CG
//! kernels write into caller-owned [`CgScratch`] buffers so a full solve
//! allocates nothing, and [`B2bRebuilder`] caches per-net B2B pairs
//! between outer placement iterations, regenerating only nets whose pin
//! coordinates actually changed (bitwise) since the previous
//! linearization, then scatters them straight into the SELL arrays.
//!
//! Everything is deterministic across thread counts: pair generation is
//! chunked over fixed net ranges and stitched in chunk order, SpMV is
//! window-parallel with unchanged per-row accumulation order, and dot
//! products use `cp-parallel`'s fixed-order tree reduction.

use crate::kernels::{self, dot};
use crate::problem::PlacementProblem;

/// Axis selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal (x).
    X,
    /// Vertical (y).
    Y,
}

/// Minimum pin separation for B2B weights, µm (avoids singular weights).
const MIN_DIST: f64 = 0.5;

/// Hyperedges per parallel chunk when generating B2B pairs.
const EDGE_CHUNK: usize = 512;
/// Vector elements per parallel chunk in CG kernels (shared with
/// [`crate::kernels`] so every kernel reduces identically).
const VEC_CHUNK: usize = kernels::VEC_CHUNK;

/// Rows per SELL slice: the SpMV keeps this many row accumulators live.
const SELL_C: usize = 8;
/// Rows per length-sorting window. Equal to [`VEC_CHUNK`] so the parallel
/// SpMV chunks own whole windows (row permutations never cross a chunk).
const SELL_SIGMA: usize = VEC_CHUNK;

/// One B2B two-pin edge: `(u, v, weight)` over global vertex ids.
type Pair = (u32, u32, f64);

/// Per-solve CG configuration.
///
/// The default (`precondition: false`) is the Jacobi-preconditioned
/// solver every flow uses; `precondition: true` swaps in an IC(0)
/// incomplete-Cholesky factorization — a different (much
/// faster-converging) iteration, deterministic but not
/// bitwise-comparable to the default path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CgOptions {
    /// Use the IC(0) preconditioner instead of Jacobi.
    pub precondition: bool,
}

/// Convergence facts from one CG solve, for the telemetry channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CgStats {
    /// CG iterations taken (0 when the start was already converged).
    pub iterations: usize,
    /// Final relative residual `‖r‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Feeds one solve's stats into the metrics registry (no-op below trace
/// level `Full`).
fn record_cg(stats: &CgStats) {
    if !cp_trace::telemetry_enabled() {
        return;
    }
    cp_trace::counter_add("place.cg.solves", 1);
    cp_trace::observe("place.cg.iterations", stats.iterations as f64);
    cp_trace::observe("place.cg.residual", stats.relative_residual);
}

/// Reusable CG work vectors (residual, preconditioned residual, search
/// direction, `A·p`). Hold one per axis across outer placement iterations
/// and the solve path stops allocating entirely.
#[derive(Debug, Clone, Default)]
pub struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// A sparse SPD system `A x = b` over the movable objects of one axis:
/// `(A x)_i = diag_i x_i − Σ_j val_ij x_j`, off-diagonals in SELL form.
#[derive(Debug, Clone, Default)]
pub struct B2bSystem {
    diag: Vec<f64>,
    off: Sell,
    rhs: Vec<f64>,
}

/// SELL-C-σ storage of the off-diagonal entries.
///
/// Rows are placed into *slots*: inside each window of [`SELL_SIGMA`]
/// rows, slot order is row length descending (ties by row index), and
/// `perm[slot]` names the row. Slots are grouped into slices of
/// [`SELL_C`]; slice `s` stores its entries column-major in
/// `col`/`val[slice_ptr[s]..slice_ptr[s+1]]`, so entry `k` of slot
/// `s·C + lane` sits at `slice_ptr[s] + k·C + lane`. A slice is as wide as
/// its longest row; the padding holds column 0 and value 0 and is never
/// read into a result. A row's entries keep the order they were pushed
/// in, which is the CSR order the B2B assembly has always used.
///
/// Invariant relied on by the SpMV: every stored column, padding
/// included, is below the row count.
#[derive(Debug, Clone, Default)]
struct Sell {
    /// Row of each slot (`n` entries).
    perm: Vec<u32>,
    /// Entry count of each slot (`n` entries).
    len: Vec<u32>,
    /// Entry offset of each slice (`n.div_ceil(C) + 1` entries).
    slice_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    /// Stored (unpadded) entries.
    nnz: usize,
}

impl Sell {
    /// Lays the slots out for rows of length `deg` and turns each
    /// `deg[i]` into row `i`'s first-entry cursor for [`Sell::push`].
    /// Padding is zero-filled.
    fn plan(&mut self, deg: &mut [u32]) {
        let n = deg.len();
        self.perm.resize(n, 0);
        let degs: &[u32] = deg;
        cp_parallel::par_chunks_mut(&mut self.perm, SELL_SIGMA, |_, off, window| {
            sort_window(&degs[off..off + window.len()], off as u32, window);
        });
        self.len.clear();
        self.len.extend(self.perm.iter().map(|&i| deg[i as usize]));
        self.nnz = self.len.iter().map(|&l| l as usize).sum();
        self.slice_ptr.clear();
        self.slice_ptr.reserve(n.div_ceil(SELL_C) + 1);
        self.slice_ptr.push(0);
        let mut total = 0usize;
        // Slots are length-descending inside a window and windows are
        // whole slices, so a slice's first slot is its widest.
        for first in self.len.iter().step_by(SELL_C) {
            total += *first as usize * SELL_C;
            self.slice_ptr.push(total as u32);
        }
        assert!(
            total < u32::MAX as usize,
            "B2B off-diagonal count overflows the u32 SELL index"
        );
        // Every stored entry is about to be written, so only the padding
        // needs clearing.
        self.col.resize(total, 0);
        self.val.resize(total, 0.0);
        for (slot, &i) in self.perm.iter().enumerate() {
            let (s, lane) = (slot / SELL_C, slot % SELL_C);
            let first = self.slice_ptr[s] as usize + lane;
            let width = (self.slice_ptr[s + 1] - self.slice_ptr[s]) as usize / SELL_C;
            for k in self.len[slot] as usize..width {
                self.col[first + k * SELL_C] = 0;
                self.val[first + k * SELL_C] = 0.0;
            }
            deg[i as usize] = first as u32;
        }
    }

    /// Appends entry `(j, w)` to the row whose cursor is `cursor`.
    #[inline]
    fn push(&mut self, cursor: &mut u32, j: u32, w: f64) {
        let at = *cursor as usize;
        self.col[at] = j;
        self.val[at] = w;
        *cursor += SELL_C as u32;
    }

    /// A SELL layout from CSR parts (rows in order, entries in order).
    ///
    /// # Panics
    ///
    /// Panics if a column index is not below the row count.
    fn from_csr(row_ptr: &[u32], col_idx: &[u32], val: &[f64]) -> Self {
        let n = row_ptr.len().saturating_sub(1);
        assert!(
            col_idx.iter().all(|&j| (j as usize) < n),
            "off-diagonal column out of range"
        );
        let mut deg: Vec<u32> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let mut sell = Self::default();
        sell.plan(&mut deg);
        for (i, cursor) in deg.iter_mut().enumerate() {
            for k in row_ptr[i] as usize..row_ptr[i + 1] as usize {
                sell.push(cursor, col_idx[k], val[k]);
            }
        }
        sell
    }

    /// The same entries as CSR `(row_ptr, col_idx, val)`, rows in order
    /// and each row's entries in stored order. Rebuilt on demand for the
    /// opt-in IC(0) factorization.
    fn to_csr(&self) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let n = self.perm.len();
        let mut row_len = vec![0u32; n];
        for (&i, &l) in self.perm.iter().zip(&self.len) {
            row_len[i as usize] = l;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0u32);
        let mut acc = 0u32;
        for &l in &row_len {
            acc += l;
            row_ptr.push(acc);
        }
        let mut col_idx = vec![0u32; self.nnz];
        let mut vals = vec![0.0; self.nnz];
        for (slot, (&i, &l)) in self.perm.iter().zip(&self.len).enumerate() {
            let first = self.slice_ptr[slot / SELL_C] as usize + slot % SELL_C;
            let dst = row_ptr[i as usize] as usize;
            for k in 0..l as usize {
                col_idx[dst + k] = self.col[first + k * SELL_C];
                vals[dst + k] = self.val[first + k * SELL_C];
            }
        }
        (row_ptr, col_idx, vals)
    }
}

/// Fills `window` with the rows `base..base + degs.len()` ordered by
/// length descending, ties by row index: a stable counting sort over the
/// lengths (comparison sort when one row is far longer than the window).
fn sort_window(degs: &[u32], base: u32, window: &mut [u32]) {
    let max = degs.iter().copied().max().unwrap_or(0) as usize;
    if max > 4 * SELL_SIGMA {
        for (k, slot) in window.iter_mut().enumerate() {
            *slot = base + k as u32;
        }
        window.sort_unstable_by_key(|&i| (std::cmp::Reverse(degs[(i - base) as usize]), i));
        return;
    }
    // `start[d]`: first slot of length `d`, longest lengths first.
    let mut start = vec![0u32; max + 2];
    for &d in degs {
        start[d as usize] += 1;
    }
    let mut acc = 0u32;
    for d in (0..=max).rev() {
        let count = start[d];
        start[d] = acc;
        acc += count;
    }
    for (k, &d) in degs.iter().enumerate() {
        window[start[d as usize] as usize] = base + k as u32;
        start[d as usize] += 1;
    }
}

/// Anchor pseudo-nets: per-movable target position and weight.
#[derive(Debug, Clone, Copy)]
pub struct Anchors<'a> {
    /// Target coordinate per movable (this axis).
    pub target: &'a [f64],
    /// Pseudo-net weight per movable (0 disables).
    pub weight: &'a [f64],
}

/// Emits the B2B pairs of one net into `out`, reading this axis's
/// coordinates from the flat `coord` array (movables first, then fixed).
#[inline]
fn net_pairs(verts: &[u32], w_net: f64, coord: &[f64], out: &mut Vec<Pair>) {
    let p = verts.len();
    if p < 2 {
        return;
    }
    // Locate extreme pins on this axis.
    let (mut lo_i, mut hi_i) = (0usize, 0usize);
    for (i, &v) in verts.iter().enumerate() {
        if coord[v as usize] < coord[verts[lo_i] as usize] {
            lo_i = i;
        }
        if coord[v as usize] > coord[verts[hi_i] as usize] {
            hi_i = i;
        }
    }
    let scale = w_net * 2.0 / (p as f64 - 1.0);
    let b2b_w =
        |a: u32, b: u32| scale / (coord[a as usize] - coord[b as usize]).abs().max(MIN_DIST);
    let (lo, hi) = (verts[lo_i], verts[hi_i]);
    if lo != hi {
        out.push((lo, hi, b2b_w(lo, hi)));
    }
    for (i, &v) in verts.iter().enumerate() {
        if i == lo_i || i == hi_i {
            continue;
        }
        if v != lo {
            out.push((v, lo, b2b_w(v, lo)));
        }
        if v != hi {
            out.push((v, hi, b2b_w(v, hi)));
        }
    }
}

/// Incremental per-axis B2B assembler.
///
/// Holds the flat coordinate array, the per-net B2B pair arena and the
/// assembled [`B2bSystem`] across outer placement iterations. On each
/// [`B2bRebuilder::rebuild`] only nets with at least one pin whose
/// coordinate changed (bitwise) since the last call regenerate their
/// pairs; clean nets are copied from the cached arena, which makes the
/// rebuild cost proportional to how much actually moved. The assembled
/// system is bit-identical to a from-scratch [`B2bSystem::build`] at the
/// same positions, at any thread count.
#[derive(Debug, Clone)]
pub struct B2bRebuilder {
    axis: Axis,
    /// This axis's coordinate per global vertex (movables then fixed).
    coord: Vec<f64>,
    /// Coordinates at the previous pair generation (empty before the
    /// first rebuild).
    prev_coord: Vec<f64>,
    /// `pair_ptr[e]..pair_ptr[e+1]` bounds net `e`'s pairs in `pairs`.
    pair_ptr: Vec<u32>,
    pairs: Vec<Pair>,
    /// Back buffers swapped with `pairs`/`pair_ptr` each rebuild.
    pairs_back: Vec<Pair>,
    ptr_back: Vec<u32>,
    /// Per-row scratch: off-diagonal degree, then the SELL fill cursor.
    deg: Vec<u32>,
    sys: B2bSystem,
    built: bool,
}

impl B2bRebuilder {
    /// A rebuilder for one axis with empty caches; the first
    /// [`B2bRebuilder::rebuild`] regenerates every net.
    pub fn new(axis: Axis) -> Self {
        Self {
            axis,
            coord: Vec::new(),
            prev_coord: Vec::new(),
            pair_ptr: Vec::new(),
            pairs: Vec::new(),
            pairs_back: Vec::new(),
            ptr_back: Vec::new(),
            deg: Vec::new(),
            sys: B2bSystem::default(),
            built: false,
        }
    }

    /// The most recently assembled system.
    pub fn system(&self) -> &B2bSystem {
        &self.sys
    }

    /// Consumes the rebuilder, yielding the assembled system.
    pub fn into_system(self) -> B2bSystem {
        self.sys
    }

    /// (Re)builds the B2B system linearized at `positions`.
    ///
    /// Must be called with the same `problem` across a rebuilder's
    /// lifetime; a shape change falls back to a full regeneration.
    pub fn rebuild(
        &mut self,
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        anchors: Option<Anchors<'_>>,
    ) {
        let m = problem.movable_count();
        let nf = problem.fixed.len();
        let nets = problem.hypergraph.edge_count();
        let axis = self.axis;

        // Flat coordinates for this axis: movables from `positions`,
        // fixed from the problem. Branch-free lookup in the net kernel.
        self.coord.resize(m + nf, 0.0);
        match axis {
            Axis::X => {
                for (c, pos) in self.coord.iter_mut().zip(positions.iter().take(m)) {
                    *c = pos.0;
                }
                for (c, f) in self.coord[m..].iter_mut().zip(&problem.fixed) {
                    *c = f.0;
                }
            }
            Axis::Y => {
                for (c, pos) in self.coord.iter_mut().zip(positions.iter().take(m)) {
                    *c = pos.1;
                }
                for (c, f) in self.coord[m..].iter_mut().zip(&problem.fixed) {
                    *c = f.1;
                }
            }
        }

        // Pair generation: parallel over fixed net chunks. A net is dirty
        // iff any of its pins moved (bitwise) since the last rebuild;
        // dirty nets recompute, clean nets copy their cached pairs. Each
        // chunk emits pairs in per-net order and the chunks are stitched
        // in chunk order, which reproduces the serial build bit for bit.
        let full = !self.built
            || self.pair_ptr.len() != nets + 1
            || self.prev_coord.len() != self.coord.len();
        let coord = &self.coord;
        let prev = &self.prev_coord;
        let old_pairs = &self.pairs;
        let old_ptr = &self.pair_ptr;
        let chunks: Vec<(Vec<Pair>, Vec<u32>, u32)> =
            cp_parallel::par_map_ranges(nets, EDGE_CHUNK, |range| {
                let mut pairs: Vec<Pair> = Vec::new();
                let mut counts: Vec<u32> = Vec::with_capacity(range.len());
                let mut rebuilt = 0u32;
                for e in range {
                    let verts = problem.hypergraph.edge(e as u32);
                    let before = pairs.len();
                    let dirty = full
                        || verts
                            .iter()
                            .any(|&v| prev[v as usize].to_bits() != coord[v as usize].to_bits());
                    if dirty {
                        rebuilt += 1;
                        net_pairs(verts, problem.net_weights[e], coord, &mut pairs);
                    } else {
                        pairs.extend_from_slice(
                            &old_pairs[old_ptr[e] as usize..old_ptr[e + 1] as usize],
                        );
                    }
                    counts.push((pairs.len() - before) as u32);
                }
                (pairs, counts, rebuilt)
            });

        // Stitch the chunk outputs into the back arena, then swap.
        self.pairs_back.clear();
        self.ptr_back.clear();
        self.ptr_back.reserve(nets + 1);
        self.ptr_back.push(0);
        let mut acc = 0u32;
        let mut nets_rebuilt = 0u64;
        for (chunk_pairs, counts, rebuilt) in &chunks {
            self.pairs_back.extend_from_slice(chunk_pairs);
            nets_rebuilt += u64::from(*rebuilt);
            for &c in counts {
                acc += c;
                self.ptr_back.push(acc);
            }
        }
        assert!(
            self.pairs_back.len() < (u32::MAX / 2) as usize,
            "B2B pair count overflows the u32 arena index"
        );
        std::mem::swap(&mut self.pairs, &mut self.pairs_back);
        std::mem::swap(&mut self.pair_ptr, &mut self.ptr_back);
        if cp_trace::telemetry_enabled() {
            cp_trace::counter_add("place.b2b.nets_rebuilt", nets_rebuilt);
            cp_trace::counter_add(
                "place.b2b.nets_cached",
                (nets as u64).saturating_sub(nets_rebuilt),
            );
        }

        // SELL assembly from the pair arena, in arena (= net) order, with
        // the same four-case scatter the jagged build used: count
        // off-diagonal degrees, lay out the slots, then cursor-fill the
        // entries while accumulating `diag`/`rhs` in pair order.
        let sys = &mut self.sys;
        sys.diag.clear();
        sys.diag.resize(m, 0.0);
        sys.rhs.clear();
        sys.rhs.resize(m, 0.0);
        self.deg.clear();
        self.deg.resize(m, 0);
        for &(u, v, _) in &self.pairs {
            if (u as usize) < m && (v as usize) < m {
                self.deg[u as usize] += 1;
                self.deg[v as usize] += 1;
            }
        }
        sys.off.plan(&mut self.deg);
        for &(u, v, w) in &self.pairs {
            let (ui, vi) = (u as usize, v as usize);
            match (ui < m, vi < m) {
                (true, true) => {
                    sys.diag[ui] += w;
                    sys.diag[vi] += w;
                    sys.off.push(&mut self.deg[ui], v, w);
                    sys.off.push(&mut self.deg[vi], u, w);
                }
                (true, false) => {
                    sys.diag[ui] += w;
                    sys.rhs[ui] += w * self.coord[vi];
                }
                (false, true) => {
                    sys.diag[vi] += w;
                    sys.rhs[vi] += w * self.coord[ui];
                }
                (false, false) => {}
            }
        }
        if let Some(a) = anchors {
            for i in 0..m {
                let w = a.weight[i];
                if w > 0.0 {
                    sys.diag[i] += w;
                    sys.rhs[i] += w * a.target[i];
                }
            }
        }
        // Isolated objects stay where they are.
        for i in 0..m {
            if sys.diag[i] == 0.0 {
                sys.diag[i] = 1.0;
                sys.rhs[i] = self.coord[i];
            }
        }

        // The coords we just linearized at become the dirty-check baseline.
        std::mem::swap(&mut self.prev_coord, &mut self.coord);
        self.built = true;
    }
}

impl B2bSystem {
    /// Builds the B2B system for one axis, linearized at `positions`.
    ///
    /// One-shot wrapper over [`B2bRebuilder`]; callers that rebuild every
    /// outer iteration should hold a rebuilder instead and get the
    /// incremental path.
    pub fn build(
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) -> Self {
        let mut rb = B2bRebuilder::new(axis);
        rb.rebuild(problem, positions, anchors);
        rb.into_system()
    }

    /// Number of rows (movable objects).
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Number of stored off-diagonal entries.
    pub fn nnz(&self) -> usize {
        self.off.nnz
    }

    /// Solves with Jacobi-preconditioned CG from `x0`.
    ///
    /// The SpMV, dot products and vector updates run in parallel; dot
    /// products use fixed-order tree reductions and the element-wise
    /// kernels keep per-element arithmetic order, so the iterates are
    /// bit-identical for every thread count.
    pub fn solve(&self, x0: &[f64], max_iters: usize, tol: f64) -> Vec<f64> {
        self.solve_with_stats(x0, max_iters, tol).0
    }

    /// [`B2bSystem::solve`] plus the convergence stats the flow's
    /// telemetry channel reports per outer placement iteration.
    pub fn solve_with_stats(&self, x0: &[f64], max_iters: usize, tol: f64) -> (Vec<f64>, CgStats) {
        let mut x = x0.to_vec();
        let mut scratch = CgScratch::default();
        let stats = self.solve_into_with_stats(&mut x, &mut scratch, max_iters, tol);
        (x, stats)
    }

    /// Assembles a system directly from CSR parts (used by the eDensity
    /// backend's Poisson grid so it can reuse the CG kernels verbatim).
    /// `row_ptr`/`col_idx`/`val` hold the off-diagonal entries with the
    /// `apply` convention `(A x)_i = diag_i x_i − Σ_j val_ij x_j`.
    pub(crate) fn from_parts(
        diag: Vec<f64>,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        val: Vec<f64>,
        rhs: Vec<f64>,
    ) -> Self {
        Self {
            diag,
            off: Sell::from_csr(&row_ptr, &col_idx, &val),
            rhs,
        }
    }

    /// Mutable right-hand side (the eDensity backend refreshes the charge
    /// vector on a fixed grid matrix each outer iteration).
    pub(crate) fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.rhs
    }

    /// In-place CG solve: `x` holds the start on entry and the solution on
    /// exit, and all work vectors live in `scratch` — zero allocations
    /// once the scratch has warmed up to the system size. Runs with
    /// default [`CgOptions`] (Jacobi preconditioning).
    pub fn solve_into_with_stats(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
    ) -> CgStats {
        self.solve_into_with_options(x, scratch, max_iters, tol, CgOptions::default())
    }

    /// [`B2bSystem::solve_into_with_stats`] with explicit [`CgOptions`].
    pub fn solve_into_with_options(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
        opts: CgOptions,
    ) -> CgStats {
        let stats = if opts.precondition {
            let ic = IcPreconditioner::new(self);
            self.solve_pcg(x, scratch, max_iters, tol, &ic)
        } else {
            self.solve_jacobi(x, scratch, max_iters, tol)
        };
        record_cg(&stats);
        stats
    }

    /// [`B2bSystem::solve_into_with_stats`] with a caller-held IC(0)
    /// factorization (so benchmarks can time factor and solve apart).
    pub fn solve_into_preconditioned(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
        ic: &IcPreconditioner,
    ) -> CgStats {
        let stats = self.solve_pcg(x, scratch, max_iters, tol, ic);
        record_cg(&stats);
        stats
    }

    /// The default CG loop: Jacobi preconditioning on fused kernels —
    /// per iteration one SpMV pass that also reduces `p·Ap`, one pass that
    /// updates `x`, `r`, `z` and reduces `r·r` and `r·z`, and the direction
    /// update — with the same per-element arithmetic, order and
    /// reductions as the textbook one-pass-per-operation sequence
    /// (the test-only `solve_unfused` oracle), so the outputs are
    /// bit-identical.
    fn solve_jacobi(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
    ) -> CgStats {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "start vector length != system size");
        let CgScratch { r, z, p, ap } = scratch;
        r.resize(n, 0.0);
        z.resize(n, 0.0);
        p.resize(n, 0.0);
        ap.resize(n, 0.0);
        self.apply_into(x, ap);
        let rr0 = kernels::sub_dot(r, &self.rhs, ap);
        let mut rz = kernels::jacobi_dot(z, r, &self.diag);
        p.copy_from_slice(z);
        let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
        // Early exit on an already-converged starting point: warm-started
        // solves (incremental placement, successive-halving candidates)
        // often begin at the solution and would otherwise burn a full
        // SpMV + update sweep to move nowhere.
        let rel0 = rr0.sqrt() / rhs_norm;
        if rel0 < tol {
            return CgStats {
                iterations: 0,
                relative_residual: rel0,
            };
        }
        let mut iterations = 0;
        let mut relative_residual = rel0;
        for _ in 0..max_iters {
            let pap = self.apply_dot_into(p, ap);
            if pap <= 0.0 || !pap.is_finite() {
                // Zero, negative or NaN curvature: the direction carries no
                // descent information; stop at the current iterate rather
                // than propagate garbage.
                break;
            }
            let alpha = rz / pap;
            if !alpha.is_finite() {
                break;
            }
            iterations += 1;
            let (rr, rz_new) = kernels::jacobi_step(x, r, z, p, ap, &self.diag, alpha);
            relative_residual = rr.sqrt() / rhs_norm;
            if relative_residual < tol {
                break;
            }
            let beta = rz_new / rz;
            if !beta.is_finite() {
                break;
            }
            rz = rz_new;
            kernels::xpay(p, beta, z);
        }
        CgStats {
            iterations,
            relative_residual,
        }
    }

    /// The one-pass-per-operation CG sequence the fused loop replaced,
    /// kept as the bitwise oracle for [`B2bSystem::solve_jacobi`].
    #[cfg(test)]
    fn solve_unfused(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
    ) -> CgStats {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "start vector length != system size");
        let CgScratch { r, z, p, ap } = scratch;
        r.resize(n, 0.0);
        z.resize(n, 0.0);
        p.resize(n, 0.0);
        ap.resize(n, 0.0);
        self.apply_into(x, ap);
        cp_parallel::par_chunks_mut(r, VEC_CHUNK, |_, off, slice| {
            for (k, ri) in slice.iter_mut().enumerate() {
                *ri = self.rhs[off + k] - ap[off + k];
            }
        });
        cp_parallel::par_chunks_mut(z, VEC_CHUNK, |_, off, slice| {
            for (k, zi) in slice.iter_mut().enumerate() {
                *zi = r[off + k] / self.diag[off + k];
            }
        });
        p.copy_from_slice(z);
        let mut rz = dot(r, z);
        let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
        let rel0 = dot(r, r).sqrt() / rhs_norm;
        if rel0 < tol {
            return CgStats {
                iterations: 0,
                relative_residual: rel0,
            };
        }
        let mut iterations = 0;
        let mut relative_residual = rel0;
        for _ in 0..max_iters {
            self.apply_into(p, ap);
            let pap = dot(p, ap);
            if pap <= 0.0 || !pap.is_finite() {
                break;
            }
            let alpha = rz / pap;
            if !alpha.is_finite() {
                break;
            }
            iterations += 1;
            kernels::axpy(x, alpha, p);
            kernels::axpy(r, -alpha, ap);
            let rnorm = dot(r, r).sqrt();
            relative_residual = rnorm / rhs_norm;
            if relative_residual < tol {
                break;
            }
            cp_parallel::par_chunks_mut(z, VEC_CHUNK, |_, off, slice| {
                for (k, zi) in slice.iter_mut().enumerate() {
                    *zi = r[off + k] / self.diag[off + k];
                }
            });
            let rz_new = dot(r, z);
            let beta = rz_new / rz;
            if !beta.is_finite() {
                break;
            }
            rz = rz_new;
            kernels::xpay(p, beta, z);
        }
        CgStats {
            iterations,
            relative_residual,
        }
    }

    /// Preconditioned CG with an explicit IC(0) factorization: identical
    /// loop shape to [`B2bSystem::solve_jacobi`] but `z = M⁻¹ r` comes
    /// from the triangular solves instead of a diagonal scale. The
    /// triangular solves are serial (and the rest fixed-order), so the
    /// iterates are bit-identical at every thread count.
    fn solve_pcg(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
        ic: &IcPreconditioner,
    ) -> CgStats {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "start vector length != system size");
        let CgScratch { r, z, p, ap } = scratch;
        r.resize(n, 0.0);
        z.resize(n, 0.0);
        p.resize(n, 0.0);
        ap.resize(n, 0.0);
        self.apply_into(x, ap);
        let rr0 = kernels::sub_dot(r, &self.rhs, ap);
        ic.apply_to(r, z);
        let mut rz = dot(r, z);
        p.copy_from_slice(z);
        let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
        let rel0 = rr0.sqrt() / rhs_norm;
        if rel0 < tol {
            return CgStats {
                iterations: 0,
                relative_residual: rel0,
            };
        }
        let mut iterations = 0;
        let mut relative_residual = rel0;
        for _ in 0..max_iters {
            self.apply_into(p, ap);
            let pap = dot(p, ap);
            if pap <= 0.0 || !pap.is_finite() {
                break;
            }
            let alpha = rz / pap;
            if !alpha.is_finite() {
                break;
            }
            iterations += 1;
            let rr = kernels::fused_step(x, r, p, ap, alpha);
            relative_residual = rr.sqrt() / rhs_norm;
            if relative_residual < tol {
                break;
            }
            ic.apply_to(r, z);
            let rz_new = dot(r, z);
            let beta = rz_new / rz;
            if !beta.is_finite() {
                break;
            }
            rz = rz_new;
            kernels::xpay(p, beta, z);
        }
        CgStats {
            iterations,
            relative_residual,
        }
    }

    /// Sparse matrix-vector product `out = A·x` on the SELL layout.
    ///
    /// Parallel over fixed 1024-row windows; each window's slices keep
    /// eight row accumulators live. Every row starts from
    /// `diag·x` and subtracts its entries in stored order, and padded
    /// lanes keep their accumulator through a select (subtracting `0·x`
    /// instead would turn `-0.0` into `+0.0`, and `0·∞` into NaN), so the
    /// result is bitwise the row-by-row CSR kernel's at any thread count.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        self.check_spmv_lengths(x, out);
        cp_parallel::par_chunks_mut(out, VEC_CHUNK, |_, off, chunk| {
            self.apply_window(x, off, chunk);
        });
    }

    /// [`B2bSystem::apply_into`] fused with the CG curvature product:
    /// returns `Σ x[i]·out[i]`, accumulated per chunk in index order and
    /// tree-combined like [`kernels::dot`] — bitwise equal to the SpMV
    /// followed by `dot(x, out)`, in one pass.
    fn apply_dot_into(&self, x: &[f64], out: &mut [f64]) -> f64 {
        self.check_spmv_lengths(x, out);
        cp_parallel::par_chunks_mut_sum(out, VEC_CHUNK, |_, off, chunk| {
            self.apply_window(x, off, chunk);
            let mut s = 0.0;
            for (k, &o) in chunk.iter().enumerate() {
                s += x[off + k] * o;
            }
            s
        })
    }

    fn check_spmv_lengths(&self, x: &[f64], out: &[f64]) {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "SpMV input length != system size");
        assert_eq!(out.len(), n, "SpMV output length != system size");
    }

    /// The SELL SpMV over one window: rows `off..off + chunk.len()`,
    /// written into `chunk`. `x.len()` must equal the system size.
    #[inline]
    fn apply_window(&self, x: &[f64], off: usize, chunk: &mut [f64]) {
        let sell = &self.off;
        let end = off + chunk.len();
        for s in off / SELL_C..end.div_ceil(SELL_C) {
            let base = s * SELL_C;
            let lanes = (end - base).min(SELL_C);
            let mut acc = [0.0f64; SELL_C];
            let mut len = [0u32; SELL_C];
            for r in 0..lanes {
                let i = sell.perm[base + r] as usize;
                acc[r] = self.diag[i] * x[i];
                len[r] = sell.len[base + r];
            }
            // Lanes are length-descending, so up to the last lane's length
            // every lane is live and needs no mask.
            let live = len[SELL_C - 1] as usize;
            let seg = sell.slice_ptr[s] as usize..sell.slice_ptr[s + 1] as usize;
            let cols = sell.col[seg.clone()].chunks_exact(SELL_C);
            let vals = sell.val[seg].chunks_exact(SELL_C);
            for (k, (c, v)) in cols.zip(vals).enumerate() {
                // SAFETY: every stored column, padding included, is below
                // the system size (a `Sell` invariant), which is `x.len()`
                // (checked by every caller).
                let xs: [f64; SELL_C] =
                    std::array::from_fn(|r| unsafe { *x.get_unchecked(c[r] as usize) });
                if k < live {
                    for r in 0..SELL_C {
                        acc[r] -= v[r] * xs[r];
                    }
                } else {
                    for r in 0..SELL_C {
                        let t = acc[r] - v[r] * xs[r];
                        acc[r] = if (k as u32) < len[r] { t } else { acc[r] };
                    }
                }
            }
            for r in 0..lanes {
                chunk[sell.perm[base + r] as usize - off] = acc[r];
            }
        }
    }

    /// The row-by-row CSR kernel the SELL layout replaced, kept as the
    /// bitwise oracle for [`B2bSystem::apply_into`].
    #[cfg(test)]
    fn apply_rows_into(&self, x: &[f64], out: &mut [f64]) {
        let (row_ptr, col_idx, val) = self.off.to_csr();
        cp_parallel::par_chunks_mut(out, VEC_CHUNK, |_, off, slice| {
            for (k, oi) in slice.iter_mut().enumerate() {
                let i = off + k;
                let row = row_ptr[i] as usize..row_ptr[i + 1] as usize;
                let mut acc = self.diag[i] * x[i];
                for (&j, &w) in col_idx[row.clone()].iter().zip(&val[row]) {
                    acc -= w * x[j as usize];
                }
                *oi = acc;
            }
        });
    }
}

/// Incomplete-Cholesky IC(0) preconditioner: `M = L Lᵀ` with `L` on the
/// sparsity pattern of the (coalesced) lower triangle of `A`.
///
/// B2B systems are symmetric M-matrices (positive diagonals, non-positive
/// off-diagonals, diagonally dominant), for which IC(0) exists without
/// breakdown; a pivot floor guards degenerate inputs anyway. Applying the
/// preconditioner is two serial triangular sweeps — trivially bitwise
/// thread-invariant — and costs one pass over `nnz/2` entries each, which
/// at B2B's ~4–6 nnz/row is comparable to a single SpMV.
///
/// Modified-IC (moving the dropped Schur fill onto the diagonal to
/// preserve row sums) was evaluated here and *increased* iteration counts
/// on B2B systems (39→45 at 100k vars on the solver bench), so the
/// factorization stays plain IC(0).
#[derive(Debug, Clone)]
pub struct IcPreconditioner {
    /// `L`'s diagonal.
    ldiag: Vec<f64>,
    /// Reciprocal of `L`'s diagonal: the triangular sweeps sit on a
    /// serial dependency chain, so a multiply beats a divide there.
    linv: Vec<f64>,
    /// Strict lower triangle of `L`, CSR by rows, columns ascending.
    lptr: Vec<u32>,
    lcol: Vec<u32>,
    lval: Vec<f64>,
    /// Transpose of the strict lower triangle (strict upper, CSR by rows)
    /// for the backward sweep.
    uptr: Vec<u32>,
    ucol: Vec<u32>,
    uval: Vec<f64>,
}

impl IcPreconditioner {
    /// Factors `sys`'s matrix. Serial and deterministic.
    pub fn new(sys: &B2bSystem) -> Self {
        let n = sys.diag.len();
        let (row_ptr, col_idx, val) = sys.off.to_csr();
        // 1. Gather the strict lower triangle with duplicate columns
        //    coalesced (the pair arena stores one CSR entry per B2B pair,
        //    so parallel edges appear multiple times). Off-diagonal values
        //    follow the apply convention A_ij = -val.
        let mut lptr: Vec<u32> = Vec::with_capacity(n + 1);
        let mut lcol: Vec<u32> = Vec::new();
        let mut lval: Vec<f64> = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        lptr.push(0);
        for i in 0..n {
            row.clear();
            let seg = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            for (&j, &w) in col_idx[seg.clone()].iter().zip(&val[seg]) {
                if (j as usize) < i {
                    row.push((j, -w));
                }
            }
            row.sort_unstable_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < row.len() {
                let (j, mut v) = row[k];
                k += 1;
                while k < row.len() && row[k].0 == j {
                    v += row[k].1;
                    k += 1;
                }
                lcol.push(j);
                lval.push(v);
            }
            lptr.push(lcol.len() as u32);
        }
        // 2. Up-looking IC(0) factorization, then the transpose for the
        //    backward sweep.
        let mut ldiag = vec![0.0; n];
        Self::factor(&sys.diag, &lptr, &lcol, &mut lval, &mut ldiag);
        let (uptr, ucol, uval) = Self::transpose(n, &lptr, &lcol, &lval);
        let linv: Vec<f64> = ldiag.iter().map(|&d| 1.0 / d).collect();
        Self {
            ldiag,
            linv,
            lptr,
            lcol,
            lval,
            uptr,
            ucol,
            uval,
        }
    }

    /// Up-looking factorization in place over `lval`:
    /// `L_ij = (A_ij − Σ_{k<j} L_ik·L_jk) / L_jj`, then
    /// `L_ii = √(A_ii − Σ_k L_ik²)`, with a pivot floor so degenerate
    /// rows cannot produce a zero or imaginary pivot.
    fn factor(diag: &[f64], lptr: &[u32], lcol: &[u32], lval: &mut [f64], ldiag: &mut [f64]) {
        for i in 0..diag.len() {
            let row_i = lptr[i] as usize..lptr[i + 1] as usize;
            for idx in row_i.clone() {
                let j = lcol[idx] as usize;
                let mut s = lval[idx];
                let (mut a, mut b) = (row_i.start, lptr[j] as usize);
                let b_end = lptr[j + 1] as usize;
                while a < idx && b < b_end {
                    match lcol[a].cmp(&lcol[b]) {
                        std::cmp::Ordering::Equal => {
                            s -= lval[a] * lval[b];
                            a += 1;
                            b += 1;
                        }
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                    }
                }
                lval[idx] = s / ldiag[j];
            }
            let mut d = diag[i];
            for idx in row_i {
                d -= lval[idx] * lval[idx];
            }
            ldiag[i] = d.max(diag[i] * 1e-8).max(1e-30).sqrt();
        }
    }

    /// Transposes the strict lower triangle (CSR by rows) into the strict
    /// upper triangle for the backward sweep. Scattering rows in ascending
    /// order keeps each upper row's columns ascending.
    #[allow(clippy::type_complexity)]
    fn transpose(
        n: usize,
        lptr: &[u32],
        lcol: &[u32],
        lval: &[f64],
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let nnz = lcol.len();
        let mut ucount = vec![0u32; n];
        for &j in lcol {
            ucount[j as usize] += 1;
        }
        let mut uptr: Vec<u32> = Vec::with_capacity(n + 1);
        uptr.push(0);
        let mut acc = 0u32;
        let mut cursor = vec![0u32; n];
        for (j, &c) in ucount.iter().enumerate() {
            cursor[j] = acc;
            acc += c;
            uptr.push(acc);
        }
        let mut ucol = vec![0u32; nnz];
        let mut uval = vec![0.0; nnz];
        for i in 0..n {
            for idx in lptr[i] as usize..lptr[i + 1] as usize {
                let j = lcol[idx] as usize;
                let at = cursor[j] as usize;
                ucol[at] = i as u32;
                uval[at] = lval[idx];
                cursor[j] += 1;
            }
        }
        (uptr, ucol, uval)
    }

    /// Applies `M⁻¹` in place: forward solve `L y = z` (ascending rows),
    /// then backward solve `Lᵀ z = y` (descending rows). Serial.
    pub fn apply_in_place(&self, z: &mut [f64]) {
        let n = self.ldiag.len();
        for i in 0..n {
            let seg = self.lptr[i] as usize..self.lptr[i + 1] as usize;
            let mut s = z[i];
            for (&j, &w) in self.lcol[seg.clone()].iter().zip(&self.lval[seg]) {
                s -= w * z[j as usize];
            }
            z[i] = s * self.linv[i];
        }
        self.backward(z);
    }

    /// Applies `M⁻¹` out of place: bitwise-identical to copying `src` into
    /// `dst` and calling [`Self::apply_in_place`], but the forward sweep
    /// reads `src` directly, saving one full vector pass per CG iteration.
    pub fn apply_to(&self, src: &[f64], dst: &mut [f64]) {
        let n = self.ldiag.len();
        assert_eq!(src.len(), n);
        assert_eq!(dst.len(), n);
        for i in 0..n {
            let seg = self.lptr[i] as usize..self.lptr[i + 1] as usize;
            let mut s = src[i];
            for (&j, &w) in self.lcol[seg.clone()].iter().zip(&self.lval[seg]) {
                s -= w * dst[j as usize];
            }
            dst[i] = s * self.linv[i];
        }
        self.backward(dst);
    }

    /// Backward solve `Lᵀ z = y` (descending rows), shared tail of the
    /// in-place and out-of-place applies.
    fn backward(&self, z: &mut [f64]) {
        let n = self.ldiag.len();
        for i in (0..n).rev() {
            let seg = self.uptr[i] as usize..self.uptr[i + 1] as usize;
            let mut s = z[i];
            for (&j, &w) in self.ucol[seg.clone()].iter().zip(&self.uval[seg]) {
                s -= w * z[j as usize];
            }
            z[i] = s * self.linv[i];
        }
    }
}

/// The pre-refactor jagged (`Vec<Vec<_>>`) B2B implementation, kept
/// verbatim as the bitwise oracle for the CSR kernels and the incremental
/// rebuild. Test-only; not compiled into the library.
#[cfg(test)]
pub(crate) mod jagged_oracle {
    use super::{Anchors, Axis, MIN_DIST, VEC_CHUNK};
    use crate::problem::PlacementProblem;

    const EDGE_CHUNK: usize = 512;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        cp_parallel::par_sum(a.len().min(b.len()), VEC_CHUNK, |r| {
            let mut s = 0.0;
            for i in r {
                s += a[i] * b[i];
            }
            s
        })
    }

    pub struct JaggedSystem {
        pub diag: Vec<f64>,
        pub off: Vec<Vec<(u32, f64)>>,
        pub rhs: Vec<f64>,
    }

    impl JaggedSystem {
        pub fn build(
            problem: &PlacementProblem,
            positions: &[(f64, f64)],
            axis: Axis,
            anchors: Option<Anchors<'_>>,
        ) -> Self {
            let m = problem.movable_count();
            let coord = |v: u32| -> f64 {
                let (x, y) = problem.vertex_pos(v, positions);
                match axis {
                    Axis::X => x,
                    Axis::Y => y,
                }
            };
            let mut sys = Self {
                diag: vec![0.0; m],
                off: vec![Vec::new(); m],
                rhs: vec![0.0; m],
            };
            let add_pair = |sys: &mut Self, u: u32, v: u32, w: f64| {
                let (u, v) = (u as usize, v as usize);
                match (u < m, v < m) {
                    (true, true) => {
                        sys.diag[u] += w;
                        sys.diag[v] += w;
                        sys.off[u].push((v as u32, w));
                        sys.off[v].push((u as u32, w));
                    }
                    (true, false) => {
                        sys.diag[u] += w;
                        sys.rhs[u] += w * coord(v as u32);
                    }
                    (false, true) => {
                        sys.diag[v] += w;
                        sys.rhs[v] += w * coord(u as u32);
                    }
                    (false, false) => {}
                }
            };
            let pair_chunks: Vec<Vec<(u32, u32, f64)>> =
                cp_parallel::par_map_ranges(problem.hypergraph.edge_count(), EDGE_CHUNK, |range| {
                    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
                    for e in range {
                        let verts = problem.hypergraph.edge(e as u32);
                        let p = verts.len();
                        if p < 2 {
                            continue;
                        }
                        let w_net = problem.net_weights[e];
                        let (mut lo_i, mut hi_i) = (0usize, 0usize);
                        for (i, &v) in verts.iter().enumerate() {
                            if coord(v) < coord(verts[lo_i]) {
                                lo_i = i;
                            }
                            if coord(v) > coord(verts[hi_i]) {
                                hi_i = i;
                            }
                        }
                        let scale = w_net * 2.0 / (p as f64 - 1.0);
                        let b2b_w =
                            |a: u32, b: u32| scale / (coord(a) - coord(b)).abs().max(MIN_DIST);
                        let (lo, hi) = (verts[lo_i], verts[hi_i]);
                        if lo != hi {
                            pairs.push((lo, hi, b2b_w(lo, hi)));
                        }
                        for (i, &v) in verts.iter().enumerate() {
                            if i == lo_i || i == hi_i {
                                continue;
                            }
                            if v != lo {
                                pairs.push((v, lo, b2b_w(v, lo)));
                            }
                            if v != hi {
                                pairs.push((v, hi, b2b_w(v, hi)));
                            }
                        }
                    }
                    pairs
                });
            for chunk in &pair_chunks {
                for &(u, v, w) in chunk {
                    add_pair(&mut sys, u, v, w);
                }
            }
            if let Some(a) = anchors {
                for i in 0..m {
                    let w = a.weight[i];
                    if w > 0.0 {
                        sys.diag[i] += w;
                        sys.rhs[i] += w * a.target[i];
                    }
                }
            }
            for (i, &(x, y)) in positions.iter().take(m).enumerate() {
                if sys.diag[i] == 0.0 {
                    sys.diag[i] = 1.0;
                    sys.rhs[i] = match axis {
                        Axis::X => x,
                        Axis::Y => y,
                    };
                }
            }
            sys
        }

        pub fn solve(&self, x0: &[f64], max_iters: usize, tol: f64) -> Vec<f64> {
            let n = self.diag.len();
            let mut x = x0.to_vec();
            let mut r = vec![0.0; n];
            let ax = self.apply(&x);
            cp_parallel::par_chunks_mut(&mut r, VEC_CHUNK, |_, off, slice| {
                for (k, ri) in slice.iter_mut().enumerate() {
                    *ri = self.rhs[off + k] - ax[off + k];
                }
            });
            let mut z = vec![0.0; n];
            cp_parallel::par_chunks_mut(&mut z, VEC_CHUNK, |_, off, slice| {
                for (k, zi) in slice.iter_mut().enumerate() {
                    *zi = r[off + k] / self.diag[off + k];
                }
            });
            let mut p = z.clone();
            let mut rz = dot(&r, &z);
            let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
            let rel0 = dot(&r, &r).sqrt() / rhs_norm;
            if rel0 < tol {
                return x;
            }
            for _ in 0..max_iters {
                let ap = self.apply(&p);
                let pap = dot(&p, &ap);
                if pap <= 0.0 || !pap.is_finite() {
                    break;
                }
                let alpha = rz / pap;
                if !alpha.is_finite() {
                    break;
                }
                cp_parallel::par_chunks_mut(&mut x, VEC_CHUNK, |_, off, slice| {
                    for (k, xi) in slice.iter_mut().enumerate() {
                        *xi += alpha * p[off + k];
                    }
                });
                cp_parallel::par_chunks_mut(&mut r, VEC_CHUNK, |_, off, slice| {
                    for (k, ri) in slice.iter_mut().enumerate() {
                        *ri -= alpha * ap[off + k];
                    }
                });
                let rnorm = dot(&r, &r).sqrt();
                if rnorm / rhs_norm < tol {
                    break;
                }
                cp_parallel::par_chunks_mut(&mut z, VEC_CHUNK, |_, off, slice| {
                    for (k, zi) in slice.iter_mut().enumerate() {
                        *zi = r[off + k] / self.diag[off + k];
                    }
                });
                let rz_new = dot(&r, &z);
                let beta = rz_new / rz;
                if !beta.is_finite() {
                    break;
                }
                rz = rz_new;
                cp_parallel::par_chunks_mut(&mut p, VEC_CHUNK, |_, off, slice| {
                    for (k, pi) in slice.iter_mut().enumerate() {
                        *pi = z[off + k] + beta * *pi;
                    }
                });
            }
            x
        }

        pub fn apply(&self, x: &[f64]) -> Vec<f64> {
            let n = self.diag.len();
            let mut out = vec![0.0; n];
            cp_parallel::par_chunks_mut(&mut out, VEC_CHUNK, |_, off, slice| {
                for (k, oi) in slice.iter_mut().enumerate() {
                    let i = off + k;
                    let mut acc = self.diag[i] * x[i];
                    for &(j, w) in &self.off[i] {
                        acc -= w * x[j as usize];
                    }
                    *oi = acc;
                }
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;

    fn line_problem() -> PlacementProblem {
        // fixed(0,0) -- m0 -- m1 -- fixed(9,0); 2-pin nets.
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0,
                },
                Object {
                    width: 1.0,
                    height: 1.0,
                },
            ],
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(
                4,
                vec![(vec![2, 0], 1.0), (vec![0, 1], 1.0), (vec![1, 3], 1.0)],
            ),
            net_weights: vec![1.0, 1.0, 1.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None, None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    fn assert_sys_bitwise_eq(a: &B2bSystem, b: &B2bSystem) {
        assert_eq!(a.off.perm, b.off.perm);
        assert_eq!(a.off.len, b.off.len);
        assert_eq!(a.off.slice_ptr, b.off.slice_ptr);
        assert_eq!(a.off.col, b.off.col);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.diag), bits(&b.diag));
        assert_eq!(bits(&a.off.val), bits(&b.off.val));
        assert_eq!(bits(&a.rhs), bits(&b.rhs));
    }

    fn assert_matches_oracle(
        p: &PlacementProblem,
        pos: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) {
        let csr = B2bSystem::build(p, pos, axis, anchors);
        let jag = jagged_oracle::JaggedSystem::build(p, pos, axis, anchors);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&csr.diag), bits(&jag.diag));
        assert_eq!(bits(&csr.rhs), bits(&jag.rhs));
        // Row contents and order: the stored row must equal the jagged row.
        let (row_ptr, col_idx, val) = csr.off.to_csr();
        for i in 0..csr.len() {
            let row = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            let csr_row: Vec<(u32, u64)> = col_idx[row.clone()]
                .iter()
                .zip(&val[row])
                .map(|(&j, &w)| (j, w.to_bits()))
                .collect();
            let jag_row: Vec<(u32, u64)> =
                jag.off[i].iter().map(|&(j, w)| (j, w.to_bits())).collect();
            assert_eq!(csr_row, jag_row, "row {i}");
        }
        // SpMV and full solves agree bit for bit.
        let m = p.movable_count();
        let x0: Vec<f64> = pos.iter().take(m).map(|&(x, _)| x * 0.75 + 0.1).collect();
        let mut ap = vec![0.0; m];
        csr.apply_into(&x0, &mut ap);
        assert_eq!(bits(&ap), bits(&jag.apply(&x0)));
        let solved = csr.solve(&x0, 60, 1e-9);
        assert_eq!(bits(&solved), bits(&jag.solve(&x0, 60, 1e-9)));
    }

    #[test]
    fn csr_matches_jagged_oracle_on_line() {
        let p = line_problem();
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::X, None);
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::Y, None);
        let targets = vec![1.0, 8.0];
        let weights = vec![0.5, 0.0];
        assert_matches_oracle(
            &p,
            &[(4.0, 1.0), (5.0, 2.0)],
            Axis::X,
            Some(Anchors {
                target: &targets,
                weight: &weights,
            }),
        );
    }

    #[test]
    fn incremental_rebuild_matches_fresh_build() {
        let p = line_problem();
        let mut rb = B2bRebuilder::new(Axis::X);
        let pos0 = vec![(20.0, 0.0), (30.0, 0.0)];
        rb.rebuild(&p, &pos0, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos0, Axis::X, None));
        // Move one cell: nets touching it regenerate, the rest come from
        // the cache — and the result must equal a from-scratch build.
        let pos1 = vec![(20.0, 0.0), (7.5, 0.0)];
        rb.rebuild(&p, &pos1, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos1, Axis::X, None));
        // No movement at all: fully cached rebuild, still identical.
        rb.rebuild(&p, &pos1, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos1, Axis::X, None));
    }

    #[test]
    fn solve_into_matches_allocating_solve() {
        let p = line_problem();
        let pos = vec![(20.0, 0.0), (30.0, 0.0)];
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let reference = sys.solve(&[20.0, 30.0], 100, 1e-10);
        let mut x = vec![20.0, 30.0];
        let mut scratch = CgScratch::default();
        sys.solve_into_with_stats(&mut x, &mut scratch, 100, 1e-10);
        // Re-using warm scratch must not change anything either.
        let mut x2 = vec![20.0, 30.0];
        sys.solve_into_with_stats(&mut x2, &mut scratch, 100, 1e-10);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reference), bits(&x));
        assert_eq!(bits(&reference), bits(&x2));
    }

    #[test]
    fn pulls_stray_cells_into_the_hull() {
        // B2B reproduces HPWL, which is flat while movables stay between
        // their net extremes — so the meaningful invariant is that cells
        // starting *outside* the fixed hull converge into it and the
        // ordering along the chain is preserved.
        let p = line_problem();
        let mut pos = vec![(20.0, 0.0), (30.0, 0.0)];
        for _ in 0..30 {
            let sys = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&[pos[0].0, pos[1].0], 100, 1e-10);
            pos[0].0 = x[0];
            pos[1].0 = x[1];
        }
        assert!(pos[0].0 > -0.5 && pos[0].0 < 9.5, "{pos:?}");
        assert!(pos[1].0 > -0.5 && pos[1].0 < 9.5, "{pos:?}");
        assert!(pos[0].0 <= pos[1].0 + 1e-9, "{pos:?}");
    }

    #[test]
    fn converged_start_returns_unchanged() {
        // Solve to convergence, then re-solve from the solution: the
        // initial-residual check must return the start bit-for-bit without
        // taking a CG step.
        let p = line_problem();
        let pos = vec![(3.0, 0.0), (6.0, 0.0)];
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let solved = sys.solve(&[pos[0].0, pos[1].0], 200, 1e-12);
        let again = sys.solve(&solved, 200, 1e-12);
        assert_eq!(
            solved.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn heavier_net_wins() {
        // One movable between fixed pins at 0 and 9; the net to 9 carries
        // 10× the weight, so the linear HPWL objective is minimized at 9.
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }],
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![0, 2], 1.0)]),
            net_weights: vec![1.0, 10.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let mut pos = vec![(4.5, 0.0)];
        for _ in 0..40 {
            let sys = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&[pos[0].0], 100, 1e-10);
            pos[0].0 = x[0];
        }
        assert!(pos[0].0 > 7.5, "{pos:?}");
    }

    #[test]
    fn anchors_pull_toward_targets() {
        let p = line_problem();
        let pos = vec![(4.5, 0.0), (4.5, 0.0)];
        let targets = vec![1.0, 8.0];
        let weights = vec![100.0, 100.0]; // dominate the nets
        let sys = B2bSystem::build(
            &p,
            &pos,
            Axis::X,
            Some(Anchors {
                target: &targets,
                weight: &weights,
            }),
        );
        let x = sys.solve(&[4.5, 4.5], 200, 1e-12);
        assert!((x[0] - 1.0).abs() < 0.6, "{x:?}");
        assert!((x[1] - 8.0).abs() < 0.6, "{x:?}");
    }

    #[test]
    fn isolated_objects_stay_put() {
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }],
            fixed: vec![],
            hypergraph: Hypergraph::new(1, vec![]),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 10.0, 10.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let pos = vec![(3.0, 7.0)];
        let sx = B2bSystem::build(&p, &pos, Axis::X, None).solve(&[3.0], 10, 1e-10);
        let sy = B2bSystem::build(&p, &pos, Axis::Y, None).solve(&[7.0], 10, 1e-10);
        assert!((sx[0] - 3.0).abs() < 1e-9);
        assert!((sy[0] - 7.0).abs() < 1e-9);
    }

    /// A chain of `m` movables between two fixed terminals — the worst
    /// case for Jacobi-CG (information crosses one link per iteration)
    /// and the shape the IC(0) factorization handles exactly.
    fn chain_problem(m: usize) -> PlacementProblem {
        let n = (m + 2) as u32;
        let mut edges: Vec<(Vec<u32>, f64)> = vec![(vec![m as u32, 0], 1.0)];
        for i in 0..m - 1 {
            edges.push((vec![i as u32, i as u32 + 1], 1.0));
        }
        edges.push((vec![m as u32 - 1, m as u32 + 1], 1.0));
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0,
                };
                m
            ],
            fixed: vec![(0.0, 0.0), (100.0, 0.0)],
            hypergraph: Hypergraph::new(n as usize, edges),
            net_weights: vec![1.0; m + 1],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; m],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    #[test]
    fn fused_and_unfused_solves_match_bitwise() {
        let p = chain_problem(40);
        let pos: Vec<(f64, f64)> = (0..40).map(|i| (50.0 + (i % 7) as f64, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let x0: Vec<f64> = pos.iter().map(|&(x, _)| x).collect();
        let run = |fused: bool| {
            let mut x = x0.clone();
            let mut scratch = CgScratch::default();
            let stats = if fused {
                sys.solve_into_with_stats(&mut x, &mut scratch, 60, 1e-9)
            } else {
                sys.solve_unfused(&mut x, &mut scratch, 60, 1e-9)
            };
            (x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), stats)
        };
        let (xf, sf) = run(true);
        let (xu, su) = run(false);
        assert_eq!(xf, xu);
        assert_eq!(sf, su);
    }

    #[test]
    fn ic_preconditioner_converges_where_jacobi_stalls() {
        // On a 400-long chain, 30 Jacobi-CG iterations barely move the
        // residual; IC(0) factors the tridiagonal exactly and converges
        // in a handful of iterations.
        let m = 400;
        let p = chain_problem(m);
        let pos: Vec<(f64, f64)> = (0..m).map(|_| (50.0, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let x0 = vec![50.0; m];
        let mut scratch = CgScratch::default();
        let mut plain = x0.clone();
        let plain_stats =
            sys.solve_into_with_options(&mut plain, &mut scratch, 30, 1e-8, CgOptions::default());
        let mut pre = x0.clone();
        let pre_stats = sys.solve_into_with_options(
            &mut pre,
            &mut scratch,
            30,
            1e-8,
            CgOptions { precondition: true },
        );
        assert!(
            pre_stats.relative_residual < 1e-8,
            "IC(0) residual {}",
            pre_stats.relative_residual
        );
        assert!(
            pre_stats.relative_residual < plain_stats.relative_residual / 1e3,
            "IC(0) {} vs Jacobi {}",
            pre_stats.relative_residual,
            plain_stats.relative_residual
        );
        assert!(pre_stats.iterations < plain_stats.iterations);
    }

    #[test]
    fn preconditioned_solve_is_thread_count_invariant() {
        let m = 100;
        let p = chain_problem(m);
        let pos: Vec<(f64, f64)> = (0..m).map(|i| (1.0 + i as f64 * 0.2, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let run = |threads: usize| {
            cp_parallel::with_threads(threads, || {
                let mut x: Vec<f64> = pos.iter().map(|&(x, _)| x).collect();
                let mut scratch = CgScratch::default();
                sys.solve_into_with_options(
                    &mut x,
                    &mut scratch,
                    50,
                    1e-10,
                    CgOptions { precondition: true },
                );
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            })
        };
        let t1 = run(1);
        assert_eq!(t1, run(4));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn sell_spmv_matches_row_kernel_at_every_thread_count() {
        // Several σ-windows with a ragged tail slice, so window sorting,
        // slice padding and the partial last slice are all exercised.
        let m = 2 * SELL_SIGMA + 300 + 5;
        let p = chain_problem(m);
        let pos: Vec<(f64, f64)> = (0..m).map(|i| ((i % 13) as f64 * 3.0, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut rows = vec![0.0; m];
        sys.apply_rows_into(&x, &mut rows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 4, 8] {
            let sell = cp_parallel::with_threads(threads, || {
                let mut out = vec![0.0; m];
                sys.apply_into(&x, &mut out);
                out
            });
            assert_eq!(bits(&rows), bits(&sell), "threads = {threads}");
        }
    }

    #[test]
    fn y_axis_solve_pulls_into_hull() {
        let mut p = line_problem();
        p.fixed = vec![(0.0, 0.0), (0.0, 9.0)];
        let mut pos = vec![(0.0, -15.0), (0.0, 25.0)];
        for _ in 0..30 {
            let sys = B2bSystem::build(&p, &pos, Axis::Y, None);
            let y = sys.solve(&[pos[0].1, pos[1].1], 100, 1e-10);
            pos[0].1 = y[0];
            pos[1].1 = y[1];
        }
        assert!(pos[0].1 > -0.5 && pos[0].1 < 9.5, "{pos:?}");
        assert!(pos[1].1 > -0.5 && pos[1].1 < 9.5, "{pos:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;
    use proptest::prelude::*;

    /// A randomized placement problem plus start positions and a sparse
    /// perturbation (for the incremental-rebuild property).
    #[derive(Debug, Clone)]
    struct Case {
        problem: PlacementProblem,
        pos0: Vec<(f64, f64)>,
        pos1: Vec<(f64, f64)>,
        anchor_weight: f64,
    }

    fn case_strategy() -> impl Strategy<Value = Case> {
        (1usize..8, 0usize..4)
            .prop_flat_map(|(m, f)| {
                let n = (m + f) as u32;
                let nets =
                    prop::collection::vec((prop::collection::vec(0..n, 2..5), 0.25f64..4.0), 0..10);
                let coords = prop::collection::vec(
                    ((-8.0f64..8.0), (-8.0f64..8.0)),
                    m + f + m, // fixed tail + perturbation deltas
                );
                // Which movables move between pos0 and pos1 (sparse):
                // a uniform draw per movable, thresholded below.
                let moved = prop::collection::vec(0.0f64..1.0, m);
                (Just((m, f)), nets, coords, moved, 0.0f64..0.6)
            })
            .prop_map(|((m, f), nets, coords, moved, anchor_weight)| {
                let net_weights: Vec<f64> = nets.iter().map(|(_, w)| *w).collect();
                let edges: Vec<(Vec<u32>, f64)> = nets.into_iter().map(|(v, _)| (v, 1.0)).collect();
                let problem = PlacementProblem {
                    movable: vec![
                        Object {
                            width: 1.0,
                            height: 1.0,
                        };
                        m
                    ],
                    fixed: coords[m..m + f].to_vec(),
                    hypergraph: Hypergraph::new(m + f, edges),
                    net_weights,
                    core: Rect::new(-10.0, -10.0, 10.0, 10.0),
                    region: vec![None; m],
                    seed_positions: None,
                    blockages: Vec::new(),
                    density_target: 0.9,
                };
                let pos0: Vec<(f64, f64)> = coords[..m].to_vec();
                let pos1: Vec<(f64, f64)> = (0..m)
                    .map(|i| {
                        if moved[i] < 0.3 {
                            coords[m + f + i]
                        } else {
                            pos0[i]
                        }
                    })
                    .collect();
                Case {
                    problem,
                    pos0,
                    pos1,
                    anchor_weight,
                }
            })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    type SysFingerprint = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>);

    fn sys_fingerprint(s: &B2bSystem) -> SysFingerprint {
        (
            s.off.perm.clone(),
            s.off.slice_ptr.clone(),
            s.off.col.clone(),
            bits(&s.diag),
            bits(&s.off.val),
            bits(&s.rhs),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// CSR build + SpMV + solve are bitwise-identical to the
        /// pre-refactor jagged implementation.
        #[test]
        fn csr_matches_jagged_oracle(case in case_strategy()) {
            let m = case.problem.movable_count();
            let targets: Vec<f64> = (0..m).map(|i| i as f64 - 2.0).collect();
            let weights = vec![case.anchor_weight; m];
            let anchors = Anchors { target: &targets, weight: &weights };
            for axis in [Axis::X, Axis::Y] {
                for a in [None, Some(anchors)] {
                    let csr = B2bSystem::build(&case.problem, &case.pos0, axis, a);
                    let jag = jagged_oracle::JaggedSystem::build(
                        &case.problem, &case.pos0, axis, a,
                    );
                    prop_assert_eq!(bits(&csr.diag), bits(&jag.diag));
                    prop_assert_eq!(bits(&csr.rhs), bits(&jag.rhs));
                    let x0: Vec<f64> = case.pos0.iter()
                        .map(|&(x, y)| match axis { Axis::X => x, Axis::Y => y })
                        .collect();
                    let mut ap = vec![0.0; m];
                    csr.apply_into(&x0, &mut ap);
                    prop_assert_eq!(bits(&ap), bits(&jag.apply(&x0)));
                    let s_csr = csr.solve(&x0, 40, 1e-9);
                    let s_jag = jag.solve(&x0, 40, 1e-9);
                    prop_assert_eq!(bits(&s_csr), bits(&s_jag));
                }
            }
        }

        /// An incremental rebuild after a sparse perturbation equals a
        /// from-scratch build at the new positions, bit for bit.
        #[test]
        fn incremental_rebuild_matches_fresh(case in case_strategy()) {
            for axis in [Axis::X, Axis::Y] {
                let mut rb = B2bRebuilder::new(axis);
                rb.rebuild(&case.problem, &case.pos0, None);
                let fresh0 = B2bSystem::build(&case.problem, &case.pos0, axis, None);
                prop_assert_eq!(sys_fingerprint(rb.system()), sys_fingerprint(&fresh0));
                rb.rebuild(&case.problem, &case.pos1, None);
                let fresh1 = B2bSystem::build(&case.problem, &case.pos1, axis, None);
                prop_assert_eq!(sys_fingerprint(rb.system()), sys_fingerprint(&fresh1));
            }
        }

        /// Preconditioned (IC(0)) and plain (Jacobi) CG solve the same
        /// SPD system, so run to tight tolerance they converge to the
        /// same fixed point — different iteration paths, same answer.
        /// Anchors on every movable keep the system strictly positive
        /// definite (a movable pair connected only to each other would
        /// otherwise make it singular, where the fixed point is not
        /// unique).
        #[test]
        fn preconditioned_and_plain_cg_share_a_fixed_point(case in case_strategy()) {
            let m = case.problem.movable_count();
            let targets: Vec<f64> = (0..m).map(|i| i as f64 - 2.0).collect();
            let weights = vec![case.anchor_weight.max(0.05); m];
            let anchors = Some(Anchors { target: &targets, weight: &weights });
            for axis in [Axis::X, Axis::Y] {
                let sys = B2bSystem::build(&case.problem, &case.pos0, axis, anchors);
                let x0: Vec<f64> = case.pos0.iter()
                    .map(|&(x, y)| match axis { Axis::X => x, Axis::Y => y })
                    .collect();
                let mut scratch = CgScratch::default();
                let mut plain = x0.clone();
                sys.solve_into_with_options(
                    &mut plain, &mut scratch, 500, 1e-12, CgOptions::default(),
                );
                let mut pre = x0.clone();
                sys.solve_into_with_options(
                    &mut pre, &mut scratch, 500, 1e-12,
                    CgOptions { precondition: true },
                );
                for i in 0..plain.len() {
                    let scale = plain[i].abs().max(1.0);
                    prop_assert!(
                        (plain[i] - pre[i]).abs() <= 1e-6 * scale,
                        "row {}: plain {} vs preconditioned {}",
                        i, plain[i], pre[i],
                    );
                }
            }
        }

        /// SELL SpMV equals the row-by-row CSR kernel bit for bit at
        /// 1/2/4/8 threads, on systems with empty rows, very long rows,
        /// signed zeros and infinities in the input, across several
        /// σ-windows and a ragged final slice.
        #[test]
        fn sell_spmv_matches_row_oracle(
            n in 0usize..2600,
            long_rows in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut h = seed;
            let mut next = move || {
                h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 29)
            };
            let specials = [0.0, -0.0, 1.5, -2.25, f64::INFINITY];
            let value = |next: &mut dyn FnMut() -> u64| match next() % 8 {
                0 => specials[(next() % specials.len() as u64) as usize],
                _ => (next() % 2001) as f64 / 100.0 - 10.0,
            };
            let mut row_ptr = vec![0u32];
            let (mut col_idx, mut val) = (Vec::new(), Vec::new());
            for i in 0..n {
                let len = if i < long_rows {
                    300 + (next() % 400) as usize
                } else {
                    match next() % 5 {
                        0 => 0,
                        _ => (next() % 12) as usize,
                    }
                };
                for _ in 0..len {
                    col_idx.push((next() % n as u64) as u32);
                    val.push(value(&mut next));
                }
                row_ptr.push(col_idx.len() as u32);
            }
            let diag: Vec<f64> = (0..n).map(|_| value(&mut next)).collect();
            let x: Vec<f64> = (0..n).map(|_| value(&mut next)).collect();
            let sys = B2bSystem::from_parts(diag, row_ptr, col_idx, val, vec![0.0; n]);
            let mut want = vec![0.0; n];
            sys.apply_rows_into(&x, &mut want);
            for threads in [1, 2, 4, 8] {
                let got = cp_parallel::with_threads(threads, || {
                    let mut out = vec![0.0; n];
                    sys.apply_into(&x, &mut out);
                    out
                });
                prop_assert_eq!(bits(&want), bits(&got), "threads = {}", threads);
            }
        }

        /// Build + solve are bitwise-invariant across 1/4/8 threads.
        #[test]
        fn thread_count_does_not_change_bits(case in case_strategy()) {
            let run = |threads: usize| {
                cp_parallel::with_threads(threads, || {
                    let mut rb = B2bRebuilder::new(Axis::X);
                    rb.rebuild(&case.problem, &case.pos0, None);
                    rb.rebuild(&case.problem, &case.pos1, None);
                    let fp = sys_fingerprint(rb.system());
                    let x0: Vec<f64> = case.pos1.iter().map(|&(x, _)| x).collect();
                    let mut x = x0.clone();
                    let mut scratch = CgScratch::default();
                    rb.system().solve_into_with_stats(&mut x, &mut scratch, 40, 1e-9);
                    (fp, bits(&x))
                })
            };
            let t1 = run(1);
            let t4 = run(4);
            let t8 = run(8);
            prop_assert_eq!(&t1, &t4);
            prop_assert_eq!(&t1, &t8);
        }
    }
}
