//! Look-ahead spreading by recursive bisection (SimPL-style upper bound).
//!
//! Given overlap-heavy lower-bound positions, this pass recursively splits
//! the core into two halves and partitions the cells by coordinate so each
//! half receives cell area proportional to its capacity, terminating in
//! small regions where cells are mapped linearly. The result respects the
//! density target at bin granularity while roughly preserving relative
//! order — exactly what anchor pseudo-nets need.
//!
//! # Exact presorted bisection
//!
//! The bisection is defined by per-node stable sorts: every node orders
//! its cells along its split axis, starting from its parent's order (the
//! root starts from index order), and cuts that list where the area
//! prefix reaches the capacity share. A chain of stable sorts composes, so
//! a node's order is the lexicographic order of three keys: its own axis;
//! the other axis, if an ancestor split on it; the cell index. Coordinates
//! compare by `f64::total_cmp`, so equal keys mean equal bits.
//!
//! [`spread_soa`] therefore sorts the cells by those composite keys once
//! per call and never sorts again. A node holds its cells in its own order
//! and in the order a child splitting the *other* axis needs, `(other,
//! own, index)`. The same-axis order passes to the children as a prefix
//! and a suffix; the cross order passes as a stable partition (left cells
//! first), which keeps it sorted. A child that changes axis swaps the two
//! roles. The one exception is the root chain (the nodes before the first
//! axis change): its own order `(own, index)` lacks the other-axis
//! tie-break, so at the first change only the runs of tied coordinates
//! are re-sorted. Every node sees exactly the cell order the per-node
//! sorts produced, so the sums, splits and output bits are the same; the
//! two halves of large nodes run fork-join on the pool.

use crate::problem::PlacementProblem;
use crate::soa::PlacementSoa;
use cp_netlist::floorplan::Rect;
use std::sync::atomic::{AtomicBool, Ordering};

/// Cells per leaf region before direct mapping.
const LEAF_CELLS: usize = 10;
/// Minimum region extent, µm.
const MIN_EXTENT: f64 = 2.0;
/// Cells from which a bisection node runs its two halves fork-join (and
/// the root sorts its two key orders concurrently). Smaller placements —
/// V-P&R's cluster-sized problems, which already run inside a pool
/// region — stay serial.
const PAR_MIN_CELLS: usize = 4096;
/// Cells per parallel chunk in the density scatter.
const CELL_CHUNK: usize = 4096;
/// Bins per parallel chunk in the overflow reduction.
const BIN_CHUNK: usize = 256;

/// Spreads `positions` to meet the problem's density target.
///
/// Returns one position per movable, inside the core. Convenience
/// wrapper over [`spread_soa`] that extracts the area array on the fly;
/// per-iteration callers should hold a [`PlacementSoa`] and call the SoA
/// variant directly.
pub fn spread(problem: &PlacementProblem, positions: &[(f64, f64)]) -> Vec<(f64, f64)> {
    spread_soa(problem, &PlacementSoa::from_problem(problem), positions)
}

/// [`spread`] over a prebuilt [`PlacementSoa`]: the bisection reads cell
/// areas from the contiguous arena instead of the object structs.
/// Bit-identical to [`spread`].
pub fn spread_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> Vec<(f64, f64)> {
    let m = problem.movable_count();
    let mut out = positions.to_vec();
    if m == 0 {
        return out;
    }
    // Spreading runs once per outer placer iteration — including inside
    // every V-P&R candidate evaluation — so its span is gated to `Full`
    // to keep the spans-only overhead budget for the coarse stages.
    let _span = cp_trace::telemetry_enabled().then(|| cp_trace::span("place.spread"));
    let core = problem.core;
    let bisect = Bisection {
        problem,
        areas: &soa.area,
        positions,
        left: &(0..m).map(|_| AtomicBool::new(false)).collect::<Vec<_>>(),
        out: OutPtr(out.as_mut_ptr()),
    };
    if is_leaf(m, core) {
        let items: Vec<u32> = (0..m as u32).collect();
        bisect.map_into(core, &items);
    } else {
        let horizontal = core.width() >= core.height();
        let sort = |cross: bool| sorted_cells(positions, m, horizontal != cross, cross);
        let (mut own, mut cross) = if m >= PAR_MIN_CELLS {
            cp_parallel::join(|| sort(false), || sort(true))
        } else {
            (sort(false), sort(true))
        };
        let mut tmp = vec![0u32; m];
        bisect.split(core, horizontal, true, &mut own, &mut cross, &mut tmp);
    }
    // Honor region constraints, core bounds and blockages.
    for (i, p) in out.iter_mut().enumerate() {
        let r = problem.region[i].unwrap_or(problem.core);
        *p = r.clamp(p.0, p.1);
        *p = problem.evict_from_blockages(p.0, p.1);
    }
    out
}

/// True when a region with `cells` cells is mapped directly instead of
/// being split.
fn is_leaf(cells: usize, region: Rect) -> bool {
    cells <= LEAF_CELLS || region.width() <= MIN_EXTENT || region.height() <= MIN_EXTENT
}

/// An order-preserving `u64` image of `f64::total_cmp`.
fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The cells in `(axis, index)` order, with `(axis, other axis, index)`
/// instead when `tie_break` is set — the root's own and cross orders.
fn sorted_cells(positions: &[(f64, f64)], m: usize, horizontal: bool, tie_break: bool) -> Vec<u32> {
    let key = |i: u32| total_key(axis_coord(positions[i as usize], horizontal));
    let mut cells: Vec<u32> = (0..m as u32).collect();
    cells.sort_unstable_by_key(|&i| (key(i), i));
    if tie_break {
        break_ties(&mut cells, positions, horizontal);
    }
    cells
}

/// Re-sorts `cells`, given in `(axis, index)` order, into `(axis, other
/// axis, index)` order: only runs of equal `axis` keys move.
fn break_ties(cells: &mut [u32], positions: &[(f64, f64)], horizontal: bool) {
    let key = |i: u32, h: bool| total_key(axis_coord(positions[i as usize], h));
    let mut start = 0;
    while start < cells.len() {
        let run_key = key(cells[start], horizontal);
        let mut end = start + 1;
        while end < cells.len() && key(cells[end], horizontal) == run_key {
            end += 1;
        }
        if end - start > 1 {
            cells[start..end].sort_unstable_by_key(|&i| (key(i, !horizontal), i));
        }
        start = end;
    }
}

/// The `horizontal` (x) or vertical (y) coordinate of a position.
fn axis_coord(p: (f64, f64), horizontal: bool) -> f64 {
    if horizontal {
        p.0
    } else {
        p.1
    }
}

/// Raw output pointer for the leaves' disjoint writes.
struct OutPtr(*mut (f64, f64));
// SAFETY: every cell belongs to exactly one leaf, so concurrent leaves
// write disjoint elements (see `Bisection::map_into`).
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// Shared state of one [`spread_soa`] bisection.
struct Bisection<'a> {
    problem: &'a PlacementProblem,
    areas: &'a [f64],
    positions: &'a [(f64, f64)],
    /// Per cell: did the current split send it to the left half? Only
    /// the node that owns a cell writes and reads its flag.
    left: &'a [AtomicBool],
    out: OutPtr,
}

impl Bisection<'_> {
    /// Splits a non-leaf node along `horizontal`. `own` holds its cells
    /// in its sort order — `(axis, index)` on the root chain (no ancestor
    /// split the other axis), `(axis, other axis, index)` below it — and
    /// `cross` in `(other axis, axis, index)` order. All three slices
    /// have one entry per cell.
    fn split(
        &self,
        region: Rect,
        horizontal: bool,
        root_chain: bool,
        own: &mut [u32],
        cross: &mut [u32],
        tmp: &mut [u32],
    ) {
        let k = own.len();
        let total_area: f64 = own.iter().map(|&i| self.areas[i as usize]).sum();
        // Split the cell list in proportion to the halves' free capacities
        // (equal halves on an unobstructed core; blockage-aware otherwise).
        let (r1, r2) = halves(region);
        let half_frac = {
            let c1 = self.problem.free_area_in(&r1);
            let c2 = self.problem.free_area_in(&r2);
            if c1 + c2 <= 0.0 {
                0.5
            } else {
                c1 / (c1 + c2)
            }
        };
        let mut acc = 0.0;
        let mut split = k;
        for (j, &i) in own.iter().enumerate() {
            acc += self.areas[i as usize];
            if acc >= total_area * half_frac {
                split = j + 1;
                break;
            }
        }
        split = split.clamp(1, k.saturating_sub(1).max(1));
        for (j, &i) in own.iter().enumerate() {
            self.left[i as usize].store(j < split, Ordering::Relaxed);
        }
        self.partition(cross, tmp);
        let (own1, own2) = own.split_at_mut(split);
        let (cross1, cross2) = cross.split_at_mut(split);
        let (tmp1, tmp2) = tmp.split_at_mut(split);
        let mut left = move || self.child(r1, horizontal, root_chain, own1, cross1, tmp1);
        let mut right = move || self.child(r2, horizontal, root_chain, own2, cross2, tmp2);
        if k >= PAR_MIN_CELLS {
            cp_parallel::join(left, right);
        } else {
            left();
            right();
        }
    }

    /// One half of a node split along `parent_horizontal`: `ord` holds its
    /// cells in the parent's order, `cross` in the parent's cross order.
    fn child(
        &self,
        region: Rect,
        parent_horizontal: bool,
        root_chain: bool,
        ord: &mut [u32],
        cross: &mut [u32],
        tmp: &mut [u32],
    ) {
        if is_leaf(ord.len(), region) {
            self.map_into(region, ord);
            return;
        }
        let horizontal = region.width() >= region.height();
        if horizontal == parent_horizontal {
            // Same axis: the parent's order is this node's order.
            self.split(region, horizontal, root_chain, ord, cross, tmp);
        } else {
            // Axis change: the parent's cross order is this node's order,
            // and the parent's order is this node's cross order — after
            // the other-axis tie-break when the parent was on the root
            // chain and ordered ties by index alone.
            if root_chain {
                break_ties(ord, self.positions, parent_horizontal);
            }
            self.split(region, horizontal, false, cross, ord, tmp);
        }
    }

    /// Stable partition of `list` by the cells' `left` flags, left cells
    /// first, using `tmp` (same length) for the right cells. Branch-free:
    /// every cell is written to both candidate slots and only the matching
    /// cursor advances (the flags are a coin flip to the branch predictor).
    fn partition(&self, list: &mut [u32], tmp: &mut [u32]) {
        let (mut l, mut r) = (0, 0);
        for j in 0..list.len() {
            let i = list[j];
            let left = usize::from(self.left[i as usize].load(Ordering::Relaxed));
            // `l <= j`, so this only overwrites an already-read slot.
            list[l] = i;
            tmp[r] = i;
            l += left;
            r += 1 - left;
        }
        list[l..].copy_from_slice(&tmp[..r]);
    }

    /// Linearly maps the items' bounding box onto the region.
    fn map_into(&self, region: Rect, items: &[u32]) {
        let positions = self.positions;
        let mut lo = (f64::INFINITY, f64::INFINITY);
        let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &i in items {
            let p = positions[i as usize];
            lo = (lo.0.min(p.0), lo.1.min(p.1));
            hi = (hi.0.max(p.0), hi.1.max(p.1));
        }
        let spanx = (hi.0 - lo.0).max(1e-9);
        let spany = (hi.1 - lo.1).max(1e-9);
        for &i in items {
            let p = positions[i as usize];
            let fx = (p.0 - lo.0) / spanx;
            let fy = (p.1 - lo.1) / spany;
            let placed = (
                region.llx + fx * region.width(),
                region.lly + fy * region.height(),
            );
            // SAFETY: `out` is a copy of `positions`, whose index above
            // bounds-checked `i`; each cell reaches exactly one leaf, so
            // no other write to this element happens concurrently.
            unsafe { *self.out.0.add(i as usize) = placed };
        }
    }
}

/// Splits a region into two halves along its longer side.
fn halves(region: Rect) -> (Rect, Rect) {
    if region.width() >= region.height() {
        (
            Rect {
                llx: region.llx,
                lly: region.lly,
                urx: region.llx + region.width() / 2.0,
                ury: region.ury,
            },
            Rect {
                llx: region.llx + region.width() / 2.0,
                lly: region.lly,
                urx: region.urx,
                ury: region.ury,
            },
        )
    } else {
        (
            Rect {
                llx: region.llx,
                lly: region.lly,
                urx: region.urx,
                ury: region.lly + region.height() / 2.0,
            },
            Rect {
                llx: region.llx,
                lly: region.lly + region.height() / 2.0,
                urx: region.urx,
                ury: region.ury,
            },
        )
    }
}

/// The shared bin scatter behind the density grid and the eDensity
/// backend's charge accumulation: each fixed item chunk emits `(bin,
/// value)` contributions in item order via `emit`; the chunks are folded
/// into `acc` sequentially in chunk order, reproducing the serial
/// scatter's addition order exactly — bitwise identical at every thread
/// count.
pub fn scatter_accumulate(
    items: usize,
    chunk: usize,
    acc: &mut [f64],
    emit: impl Fn(usize, &mut Vec<(u32, f64)>) + Sync,
) {
    let scatter: Vec<Vec<(u32, f64)>> = cp_parallel::par_map_ranges(items, chunk, |range| {
        let mut part = Vec::with_capacity(range.len());
        for i in range {
            emit(i, &mut part);
        }
        part
    });
    for part in &scatter {
        for &(b, v) in part {
            acc[b as usize] += v;
        }
    }
}

/// Bins per side of the density grid for `m` movables.
pub fn density_bins(m: usize) -> usize {
    ((m as f64).sqrt() / 2.0).ceil().max(2.0) as usize
}

/// The per-bin movable-area grid of a placement on the
/// [`density_bins`]`(m) ×` [`density_bins`]`(m)` grid, row-major.
fn area_grid_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> (usize, Vec<f64>) {
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let mut area = vec![0.0f64; bins * bins];
    scatter_accumulate(positions.len(), CELL_CHUNK, &mut area, |i, part| {
        let (x, y) = positions[i];
        let bx = (((x - core.llx) / bw) as usize).min(bins - 1);
        let by = (((y - core.lly) / bh) as usize).min(bins - 1);
        part.push(((by * bins + bx) as u32, soa.area[i]));
    });
    (bins, area)
}

/// Density overflow of a placement: the fraction of movable area exceeding
/// per-bin capacity (`bin_area · density_target`), on a `bins × bins` grid
/// sized to the problem.
pub fn density_overflow(problem: &PlacementProblem, positions: &[(f64, f64)]) -> f64 {
    density_overflow_soa(problem, &PlacementSoa::from_problem(problem), positions)
}

/// Per-bin overflow amounts `(area − capacity)⁺` on the density grid —
/// the spatial view behind the scalar [`density_overflow_soa`], recorded
/// as a field frame when fields are enabled. Serial on purpose: it only
/// runs on the instrumentation path.
pub fn overflow_grid_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> (usize, Vec<f32>) {
    let m = problem.movable_count();
    if m == 0 {
        return (0, Vec::new());
    }
    let (bins, area) = area_grid_soa(problem, soa, positions);
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let grid = area
        .iter()
        .enumerate()
        .map(|(b, &a)| {
            let (by, bx) = (b / bins, b % bins);
            let bin = Rect::new(core.llx + bx as f64 * bw, core.lly + by as f64 * bh, bw, bh);
            let cap = problem.free_area_in(&bin) * problem.density_target;
            (a - cap).max(0.0) as f32
        })
        .collect();
    (bins, grid)
}

/// Per-bin summed displacement magnitude `‖to − from‖₂` binned at the
/// destination position — the spreading-vs-lower-bound conflict field.
/// Serial on purpose: it only runs on the instrumentation path.
pub fn displacement_grid(
    problem: &PlacementProblem,
    from: &[(f64, f64)],
    to: &[(f64, f64)],
) -> (usize, Vec<f32>) {
    let m = problem.movable_count().min(from.len()).min(to.len());
    if m == 0 {
        return (0, Vec::new());
    }
    let bins = density_bins(problem.movable_count());
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let mut grid = vec![0.0f64; bins * bins];
    for i in 0..m {
        let (dx, dy) = (to[i].0 - from[i].0, to[i].1 - from[i].1);
        let bx = (((to[i].0 - core.llx) / bw) as usize).min(bins - 1);
        let by = (((to[i].1 - core.lly) / bh) as usize).min(bins - 1);
        grid[by * bins + bx] += (dx * dx + dy * dy).sqrt();
    }
    (bins, grid.into_iter().map(|v| v as f32).collect())
}

/// [`density_overflow`] over a prebuilt [`PlacementSoa`]: the bin scatter
/// reads cell areas from the contiguous arena and the total from the
/// precomputed sum. Bit-identical to [`density_overflow`].
pub fn density_overflow_soa(
    problem: &PlacementProblem,
    soa: &PlacementSoa,
    positions: &[(f64, f64)],
) -> f64 {
    let m = problem.movable_count();
    if m == 0 {
        return 0.0;
    }
    // Bin scatter: each fixed cell chunk computes (bin, area) contributions
    // in cell order; the chunks are folded into the grid sequentially in
    // chunk order, reproducing the serial scatter's addition order exactly.
    let (bins, area) = area_grid_soa(problem, soa, positions);
    let core = problem.core;
    let (bw, bh) = (core.width() / bins as f64, core.height() / bins as f64);
    let total: f64 = soa.total_area.max(1e-12);
    // Per-bin capacity (blockage clipping) dominates; sum overflow with a
    // deterministic parallel reduction over the row-major bin order.
    let over = cp_parallel::par_sum(bins * bins, BIN_CHUNK, |range| {
        let mut s = 0.0;
        for b in range {
            let (by, bx) = (b / bins, b % bins);
            let bin = Rect::new(core.llx + bx as f64 * bw, core.lly + by as f64 * bh, bw, bh);
            let cap = problem.free_area_in(&bin) * problem.density_target;
            s += (area[b] - cap).max(0.0);
        }
        s
    });
    over / total
}

/// The per-node-sort bisection [`spread_soa`] replaced, kept verbatim as
/// its bitwise oracle. Test-only; not compiled into the library.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{halves, LEAF_CELLS, MIN_EXTENT};
    use crate::problem::PlacementProblem;
    use crate::soa::PlacementSoa;
    use cp_netlist::floorplan::Rect;

    pub fn spread_soa(
        problem: &PlacementProblem,
        soa: &PlacementSoa,
        positions: &[(f64, f64)],
    ) -> Vec<(f64, f64)> {
        let m = problem.movable_count();
        let mut out = positions.to_vec();
        if m == 0 {
            return out;
        }
        let items: Vec<usize> = (0..m).collect();
        rec(problem, &soa.area, problem.core, items, positions, &mut out);
        for (i, p) in out.iter_mut().enumerate() {
            let r = problem.region[i].unwrap_or(problem.core);
            *p = r.clamp(p.0, p.1);
            *p = problem.evict_from_blockages(p.0, p.1);
        }
        out
    }

    fn rec(
        problem: &PlacementProblem,
        areas: &[f64],
        region: Rect,
        mut items: Vec<usize>,
        positions: &[(f64, f64)],
        out: &mut [(f64, f64)],
    ) {
        if items.len() <= LEAF_CELLS
            || region.width() <= MIN_EXTENT
            || region.height() <= MIN_EXTENT
        {
            map_into(region, &items, positions, out);
            return;
        }
        let horizontal = region.width() >= region.height();
        let coord = |i: usize| {
            if horizontal {
                positions[i].0
            } else {
                positions[i].1
            }
        };
        items.sort_by(|&a, &b| coord(a).total_cmp(&coord(b)));
        let total_area: f64 = items.iter().map(|&i| areas[i]).sum();
        let half_frac = {
            let (h1, h2) = halves(region);
            let c1 = problem.free_area_in(&h1);
            let c2 = problem.free_area_in(&h2);
            if c1 + c2 <= 0.0 {
                0.5
            } else {
                c1 / (c1 + c2)
            }
        };
        let mut acc = 0.0;
        let mut split = items.len();
        for (k, &i) in items.iter().enumerate() {
            acc += areas[i];
            if acc >= total_area * half_frac {
                split = k + 1;
                break;
            }
        }
        split = split.clamp(1, items.len().saturating_sub(1).max(1));
        let right = items.split_off(split);
        let (r1, r2) = halves(region);
        rec(problem, areas, r1, items, positions, out);
        rec(problem, areas, r2, right, positions, out);
    }

    fn map_into(region: Rect, items: &[usize], positions: &[(f64, f64)], out: &mut [(f64, f64)]) {
        if items.is_empty() {
            return;
        }
        let mut lo = (f64::INFINITY, f64::INFINITY);
        let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &i in items {
            lo = (lo.0.min(positions[i].0), lo.1.min(positions[i].1));
            hi = (hi.0.max(positions[i].0), hi.1.max(positions[i].1));
        }
        let spanx = (hi.0 - lo.0).max(1e-9);
        let spany = (hi.1 - lo.1).max(1e-9);
        for &i in items {
            let fx = (positions[i].0 - lo.0) / spanx;
            let fy = (positions[i].1 - lo.1) / spany;
            out[i] = (
                region.llx + fx * region.width(),
                region.lly + fy * region.height(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;

    fn uniform_problem(n: usize) -> PlacementProblem {
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0
                };
                n
            ],
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; n],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.5,
        }
    }

    #[test]
    fn spreading_reduces_overflow() {
        let p = uniform_problem(400);
        // All cells piled in one corner.
        let piled = vec![(1.0, 1.0); 400];
        let before = density_overflow(&p, &piled);
        let spread_pos = spread(&p, &piled);
        let after = density_overflow(&p, &spread_pos);
        assert!(before > 0.5, "piled overflow {before}");
        assert!(after < before / 4.0, "after {after} vs before {before}");
        for &(x, y) in &spread_pos {
            assert!(p.core.contains(x, y));
        }
    }

    #[test]
    fn spreading_preserves_relative_order_roughly() {
        let p = uniform_problem(100);
        // Cells on a diagonal line, crowded.
        let pos: Vec<(f64, f64)> = (0..100)
            .map(|i| (10.0 + i as f64 * 0.01, 10.0 + i as f64 * 0.01))
            .collect();
        let s = spread(&p, &pos);
        // Cell 0 should stay left of cell 99.
        assert!(s[0].0 < s[99].0);
    }

    #[test]
    fn region_constraints_clamp() {
        let mut p = uniform_problem(10);
        let box_r = Rect::new(40.0, 40.0, 10.0, 10.0);
        for i in 0..10 {
            p.set_region(i, box_r);
        }
        let piled = vec![(1.0, 1.0); 10];
        let s = spread(&p, &piled);
        for &(x, y) in &s {
            assert!(box_r.contains(x, y), "({x}, {y}) outside region");
        }
    }

    #[test]
    fn empty_problem() {
        let p = uniform_problem(0);
        assert!(spread(&p, &[]).is_empty());
        assert_eq!(density_overflow(&p, &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use proptest::prelude::*;

    /// A deterministic stream for building one case from its seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }
    }

    /// A spreading input: `n` cells, positions drawn by `mode`, on one of
    /// four core shapes, optionally with blockages, region constraints and
    /// uneven areas.
    fn case(
        n: usize,
        mode: u8,
        shape: u8,
        extras: u8,
        seed: u64,
    ) -> (PlacementProblem, Vec<(f64, f64)>) {
        let mut rng = Mix(seed);
        let core = match shape {
            0 => Rect::new(0.0, 0.0, 100.0, 100.0),
            // Elongated: the root chain splits one axis several times.
            1 => Rect::new(0.0, 0.0, 400.0, 20.0),
            2 => Rect::new(-10.0, 0.0, 20.0, 300.0),
            _ => Rect::new(-50.0, -50.0, 100.0, 100.0),
        };
        let blockages = if extras & 1 != 0 {
            vec![
                Rect::new(
                    core.llx + core.width() * 0.25,
                    core.lly,
                    core.width() * 0.2,
                    core.height() * 0.5,
                ),
                Rect::new(
                    core.llx + core.width() * 0.6,
                    core.lly + core.height() * 0.6,
                    core.width() * 0.3,
                    core.height() * 0.3,
                ),
            ]
        } else {
            Vec::new()
        };
        // Coordinates cells can pile on: both zeros, the core edges and
        // the blockage walls.
        let mut xs = vec![-0.0, 0.0, core.llx, core.urx, core.llx + core.width() * 0.5];
        let mut ys = vec![
            -0.0,
            0.0,
            core.lly,
            core.ury,
            core.lly + core.height() * 0.5,
        ];
        for b in &blockages {
            xs.extend([b.llx, b.urx]);
            ys.extend([b.lly, b.ury]);
        }
        let uniform = |rng: &mut Mix| {
            (
                core.llx + rng.unit() * core.width(),
                core.lly + rng.unit() * core.height(),
            )
        };
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| match mode {
                0 => uniform(&mut rng),
                // Piles: every cell on one of a few shared points.
                1 => (rng.pick(&xs), rng.pick(&ys)),
                // Half piled on a single point, half scattered.
                2 => {
                    if rng.next().is_multiple_of(2) {
                        (xs[0], ys[1])
                    } else {
                        uniform(&mut rng)
                    }
                }
                // One coordinate on an edge or wall, the other free.
                _ => {
                    let (x, y) = uniform(&mut rng);
                    if rng.next().is_multiple_of(2) {
                        (rng.pick(&xs), y)
                    } else {
                        (x, rng.pick(&ys))
                    }
                }
            })
            .collect();
        let movable = (0..n)
            .map(|_| {
                if extras & 2 != 0 {
                    Object {
                        width: 0.5 + rng.unit() * 2.5,
                        height: 1.0,
                    }
                } else {
                    Object {
                        width: 1.0,
                        height: 1.0,
                    }
                }
            })
            .collect();
        let fence = Rect::new(core.llx + 5.0, core.lly + 5.0, 10.0, 10.0);
        let region = (0..n)
            .map(|_| (extras & 4 != 0 && rng.next().is_multiple_of(4)).then_some(fence))
            .collect();
        let problem = PlacementProblem {
            movable,
            fixed: vec![],
            hypergraph: Hypergraph::new(n, vec![]),
            net_weights: vec![],
            core,
            region,
            seed_positions: None,
            blockages,
            density_target: 0.7,
        };
        (problem, positions)
    }

    fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
        v.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The presorted fork-join bisection places every cell bit for
        /// bit where the per-node-sort oracle does, at 1/2/4/8 threads.
        #[test]
        fn presorted_spreading_matches_oracle(
            n in 0usize..9000,
            mode in 0u8..4,
            shape in 0u8..4,
            extras in 0u8..8,
            seed in 0u64..u64::MAX,
        ) {
            let (p, pos) = case(n, mode, shape, extras, seed);
            let soa = PlacementSoa::from_problem(&p);
            let want = bits(&oracle::spread_soa(&p, &soa, &pos));
            for threads in [1, 2, 4, 8] {
                let got = cp_parallel::with_threads(threads, || spread_soa(&p, &soa, &pos));
                prop_assert_eq!(&want, &bits(&got), "threads = {}", threads);
            }
        }
    }
}
