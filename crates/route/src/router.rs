//! Net decomposition and GCell routing.

use crate::congestion::CongestionMap;
use crate::error::RouteError;
use cp_netlist::floorplan::{Floorplan, Rect};
use cp_netlist::netlist::{Netlist, PinRef};
use std::collections::BinaryHeap;

/// Router tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// GCell edge length in µm (0 = auto: three row heights).
    pub gcell_size: f64,
    /// Tracks per GCell edge per routing layer.
    pub tracks_per_layer: u32,
    /// Routing layers per direction.
    pub layers_per_direction: u32,
    /// Enable congestion-aware maze fallback when both L-shapes overflow.
    pub maze_fallback: bool,
    /// Margin (in GCells) around a segment's bbox for maze search.
    pub maze_margin: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            gcell_size: 0.0,
            tracks_per_layer: 10,
            layers_per_direction: 3,
            maze_fallback: true,
            maze_margin: 8,
        }
    }
}

/// The routing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Routed wirelength in µm (GCell path length).
    pub wirelength: f64,
    /// Sum of net HPWLs in µm (for the detour factor).
    pub hpwl: f64,
    /// Edge demand/capacity map.
    pub congestion: CongestionMap,
    /// Segments that needed the maze fallback.
    pub mazed_segments: usize,
}

impl RoutingResult {
    /// Routed length over HPWL (≥ 1 for non-degenerate routes); feeds the
    /// post-route wire model.
    pub fn detour_factor(&self) -> f64 {
        if self.hpwl <= 0.0 {
            1.0
        } else {
            (self.wirelength / self.hpwl).max(1.0)
        }
    }
}

/// Routes a set of nets given as pin-position lists within `region`.
///
/// Multi-pin nets are decomposed over a Manhattan-distance Prim MST; each
/// two-pin segment takes the less congested L-shape, falling back to a
/// congestion-aware maze within the segment bbox (plus margin) when both
/// L-shapes hit a full edge.
///
/// # Errors
///
/// Returns [`RouteError::NonFinitePin`] if any pin coordinate is NaN or
/// infinite (such a pin cannot be mapped to a GCell).
pub fn route_nets(
    nets: &[Vec<(f64, f64)>],
    region: Rect,
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    route_nets_with_blockages(nets, region, &[], options)
}

/// Like [`route_nets`], with macro obstructions: GCell edges under a
/// blockage keep only 40% of their capacity (macros consume the lower
/// routing layers).
///
/// # Errors
///
/// Returns [`RouteError::NonFinitePin`] if any pin coordinate is NaN or
/// infinite.
pub fn route_nets_with_blockages(
    nets: &[Vec<(f64, f64)>],
    region: Rect,
    blockages: &[Rect],
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    for (ni, pins) in nets.iter().enumerate() {
        if pins.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(RouteError::NonFinitePin { net: ni });
        }
    }
    let gcell = if options.gcell_size > 0.0 {
        options.gcell_size
    } else {
        4.2 // three NanGate45-ish rows
    };
    let nx = ((region.width() / gcell).ceil() as usize).max(1);
    let ny = ((region.height() / gcell).ceil() as usize).max(1);
    let cap = (options.tracks_per_layer * options.layers_per_direction) as f64;
    let mut map = CongestionMap::new(nx, ny, gcell, cap, cap);
    for b in blockages {
        let i0 = (((b.llx - region.llx) / gcell).floor().max(0.0)) as usize;
        let j0 = (((b.lly - region.lly) / gcell).floor().max(0.0)) as usize;
        let i1 = (((b.urx - region.llx) / gcell).ceil().max(0.0)) as usize;
        let j1 = (((b.ury - region.lly) / gcell).ceil().max(0.0)) as usize;
        map.derate(i0, j0, i1.min(nx - 1), j1.min(ny - 1), 0.4);
    }

    let to_gcell = |x: f64, y: f64| -> (usize, usize) {
        let i = (((x - region.llx) / gcell) as isize).clamp(0, nx as isize - 1) as usize;
        let j = (((y - region.lly) / gcell) as isize).clamp(0, ny as isize - 1) as usize;
        (i, j)
    };

    // Route small-bbox nets first (they have the least flexibility).
    let mut order: Vec<usize> = (0..nets.len()).collect();
    let bbox_hp = |pins: &[(f64, f64)]| -> f64 {
        let (mut lx, mut ly, mut hx, mut hy) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        for &(x, y) in pins {
            lx = lx.min(x);
            ly = ly.min(y);
            hx = hx.max(x);
            hy = hy.max(y);
        }
        (hx - lx) + (hy - ly)
    };
    order.sort_by(|&a, &b| bbox_hp(&nets[a]).total_cmp(&bbox_hp(&nets[b])));

    let mut wirelength = 0.0;
    let mut hpwl = 0.0;
    let mut mazed = 0usize;
    let mut maze = MazeStats::default();
    for &ni in &order {
        let pins = &nets[ni];
        if pins.len() < 2 {
            continue;
        }
        hpwl += bbox_hp(pins);
        let cells: Vec<(usize, usize)> = pins.iter().map(|&(x, y)| to_gcell(x, y)).collect();
        for (a, b) in mst_segments(&cells) {
            if a == b {
                continue;
            }
            let (len, used_maze) = route_segment(&mut map, a, b, options, &mut maze);
            wirelength += len * gcell;
            if used_maze {
                mazed += 1;
            }
        }
    }
    if cp_trace::telemetry_enabled() {
        cp_trace::counter_add("route.maze.calls", maze.calls);
        cp_trace::counter_add("route.maze.heap_pops", maze.heap_pops);
        cp_trace::counter_add("route.maze.window_cells", maze.window_cells);
    }
    Ok(RoutingResult {
        wirelength,
        hpwl,
        congestion: map,
        mazed_segments: mazed,
    })
}

/// Routes a placed flat netlist (positions indexed as hypergraph vertices:
/// cells then ports). Clock nets are skipped — CTS owns them.
///
/// # Errors
///
/// Returns [`RouteError::PositionCountMismatch`] when `positions` is
/// shorter than the netlist's vertex count, and
/// [`RouteError::NonFinitePin`] when a pin coordinate is NaN or infinite.
pub fn route_placed_netlist(
    netlist: &Netlist,
    positions: &[(f64, f64)],
    floorplan: &Floorplan,
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    let _span = cp_trace::span_with(
        "route.global",
        &[("nets", cp_trace::ArgValue::U(netlist.net_count() as u64))],
    );
    let expected = netlist.cell_count() + netlist.port_count();
    if positions.len() < expected {
        return Err(RouteError::PositionCountMismatch {
            expected,
            got: positions.len(),
        });
    }
    let mut opts = *options;
    if opts.gcell_size <= 0.0 {
        opts.gcell_size = 3.0 * floorplan.row_height;
    }
    opts.tracks_per_layer = netlist.library().tracks_per_layer;
    opts.layers_per_direction = netlist.library().horizontal_layers;
    let mut nets: Vec<Vec<(f64, f64)>> = Vec::with_capacity(netlist.net_count());
    for net in netlist.nets() {
        if net.is_clock {
            continue;
        }
        let mut pins = Vec::with_capacity(net.pin_count());
        for p in net.driver.iter().chain(net.sinks.iter()) {
            let v = match *p {
                PinRef::Cell { cell, .. } => netlist.cell_vertex(cell),
                PinRef::Port(port) => netlist.port_vertex(port),
            };
            pins.push(positions[v as usize]);
        }
        nets.push(pins);
    }
    route_nets_with_blockages(&nets, floorplan.die, &floorplan.blockages, &opts)
}

/// Decomposes a net into two-pin segments: exact rectilinear Steiner for
/// three pins (the Steiner point is the coordinate-wise median), Prim MST
/// in the Manhattan metric otherwise, star fallback for very high fanout.
fn mst_segments(cells: &[(usize, usize)]) -> Vec<((usize, usize), (usize, usize))> {
    let n = cells.len();
    if n == 3 {
        // The 3-pin RSMT routes every pin to the median point.
        let mut xs = [cells[0].0, cells[1].0, cells[2].0];
        let mut ys = [cells[0].1, cells[1].1, cells[2].1];
        xs.sort_unstable();
        ys.sort_unstable();
        let steiner = (xs[1], ys[1]);
        return cells
            .iter()
            .filter(|&&c| c != steiner)
            .map(|&c| (steiner, c))
            .collect();
    }
    if n > 1000 {
        return (1..n).map(|i| (cells[0], cells[i])).collect();
    }
    let dist =
        |a: (usize, usize), b: (usize, usize)| -> usize { a.0.abs_diff(b.0) + a.1.abs_diff(b.1) };
    let mut in_tree = vec![false; n];
    let mut best = vec![(usize::MAX, 0usize); n]; // (dist, parent)
    in_tree[0] = true;
    for i in 1..n {
        best[i] = (dist(cells[0], cells[i]), 0);
    }
    let mut segments = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let mut pick = usize::MAX;
        for i in 0..n {
            if !in_tree[i] && (pick == usize::MAX || best[i].0 < best[pick].0) {
                pick = i;
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        segments.push((cells[best[pick].1], cells[pick]));
        for i in 0..n {
            if !in_tree[i] {
                let d = dist(cells[pick], cells[i]);
                if d < best[i].0 {
                    best[i] = (d, pick);
                }
            }
        }
    }
    segments
}

/// Work done by the maze fallback over one routing call, reported as
/// `route.maze.*` counters at trace level `Full`.
#[derive(Debug, Default)]
struct MazeStats {
    /// Searches started.
    calls: u64,
    /// Priority-queue pops, stale entries included.
    heap_pops: u64,
    /// Search-window GCells, summed over searches (the `dist`/`prev`
    /// cells each search allocates and initializes).
    window_cells: u64,
}

/// Routes one segment; returns (GCell edges used, maze fallback used).
fn route_segment(
    map: &mut CongestionMap,
    a: (usize, usize),
    b: (usize, usize),
    options: &RouterOptions,
    maze: &mut MazeStats,
) -> (f64, bool) {
    // Straight lines and L-shapes.
    let util_l = |map: &CongestionMap, first_horizontal: bool| -> f64 {
        // An L runs horizontally at the start row (or end row) and
        // vertically at the corner column; take the worst edge utilization.
        let mut worst = 0.0f64;
        let (vx, y0, y1) = if first_horizontal {
            (b.0, a.1.min(b.1), a.1.max(b.1))
        } else {
            (a.0, a.1.min(b.1), a.1.max(b.1))
        };
        for j in y0..y1 {
            worst = worst.max(map.v_utilization(vx, j));
        }
        let (hy, x0, x1) = if first_horizontal {
            (a.1, a.0.min(b.0), a.0.max(b.0))
        } else {
            (b.1, a.0.min(b.0), a.0.max(b.0))
        };
        for i in x0..x1 {
            worst = worst.max(map.h_utilization(i, hy));
        }
        worst
    };
    let u_a = util_l(map, true);
    let u_b = util_l(map, false);
    let (first_horizontal, worst) = if u_a <= u_b {
        (true, u_a)
    } else {
        (false, u_b)
    };
    if worst < 1.0 || !options.maze_fallback {
        let len = commit_l(map, a, b, first_horizontal);
        return (len, false);
    }
    match maze_route(map, a, b, options.maze_margin, maze) {
        Some(len) => (len, true),
        None => (commit_l(map, a, b, first_horizontal), false),
    }
}

/// Commits an L-shaped route; returns edges used.
fn commit_l(
    map: &mut CongestionMap,
    a: (usize, usize),
    b: (usize, usize),
    first_horizontal: bool,
) -> f64 {
    let (hy, vx) = if first_horizontal {
        (a.1, b.0)
    } else {
        (b.1, a.0)
    };
    let (x0, x1) = (a.0.min(b.0), a.0.max(b.0));
    for i in x0..x1 {
        map.add_h(i, hy, 1.0);
    }
    let (y0, y1) = (a.1.min(b.1), a.1.max(b.1));
    for j in y0..y1 {
        map.add_v(vx, j, 1.0);
    }
    ((x1 - x0) + (y1 - y0)) as f64
}

/// Congestion-aware Dijkstra within the segment bbox plus margin.
/// Returns edges used, or `None` if the search area degenerates.
fn maze_route(
    map: &mut CongestionMap,
    a: (usize, usize),
    b: (usize, usize),
    margin: usize,
    stats: &mut MazeStats,
) -> Option<f64> {
    let (nx, ny) = (map.nx(), map.ny());
    let x0 = a.0.min(b.0).saturating_sub(margin);
    let y0 = a.1.min(b.1).saturating_sub(margin);
    let x1 = (a.0.max(b.0) + margin).min(nx - 1);
    let y1 = (a.1.max(b.1) + margin).min(ny - 1);
    let w = x1 - x0 + 1;
    let h = y1 - y0 + 1;
    let idx = |i: usize, j: usize| (j - y0) * w + (i - x0);
    stats.calls += 1;
    stats.window_cells += (w * h) as u64;
    let mut dist = vec![f64::INFINITY; w * h];
    let mut prev: Vec<u32> = vec![u32::MAX; w * h];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    let start = idx(a.0, a.1) as u32;
    dist[start as usize] = 0.0;
    heap.push(std::cmp::Reverse((0, start)));
    let cost_of = |util: f64| 1.0 + if util >= 1.0 { 64.0 } else { 8.0 * util * util };
    let target = idx(b.0, b.1) as u32;
    while let Some(std::cmp::Reverse((dkey, u))) = heap.pop() {
        stats.heap_pops += 1;
        let du = f64::from_bits(dkey);
        if du > dist[u as usize] {
            continue;
        }
        if u == target {
            break;
        }
        let (ui, uj) = (x0 + (u as usize % w), y0 + (u as usize / w));
        let mut push = |map: &CongestionMap, vi: usize, vj: usize, horizontal: bool| {
            let util = if horizontal {
                map.h_utilization(ui.min(vi), uj)
            } else {
                map.v_utilization(ui, uj.min(vj))
            };
            let nd = du + cost_of(util);
            let v = idx(vi, vj) as u32;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                prev[v as usize] = u;
                heap.push(std::cmp::Reverse((nd.to_bits(), v)));
            }
        };
        if ui > x0 {
            push(map, ui - 1, uj, true);
        }
        if ui < x1 {
            push(map, ui + 1, uj, true);
        }
        if uj > y0 {
            push(map, ui, uj - 1, false);
        }
        if uj < y1 {
            push(map, ui, uj + 1, false);
        }
    }
    if !dist[target as usize].is_finite() {
        return None;
    }
    // Walk back, committing demand.
    let mut len = 0.0;
    let mut cur = target;
    while cur != start {
        let p = prev[cur as usize];
        let (ci, cj) = (x0 + (cur as usize % w), y0 + (cur as usize / w));
        let (pi, pj) = (x0 + (p as usize % w), y0 + (p as usize / w));
        if ci != pi {
            map.add_h(ci.min(pi), cj, 1.0);
        } else {
            map.add_v(ci, cj.min(pj), 1.0);
        }
        len += 1.0;
        cur = p;
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    fn opts() -> RouterOptions {
        RouterOptions {
            gcell_size: 10.0,
            tracks_per_layer: 2,
            layers_per_direction: 1,
            maze_fallback: true,
            maze_margin: 4,
        }
    }

    #[test]
    fn two_pin_net_length_is_manhattan() {
        let nets = vec![vec![(5.0, 5.0), (45.0, 35.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        // (0,0) → (4,3): 7 edges × 10 µm.
        assert_eq!(r.wirelength, 70.0);
        assert_eq!(r.mazed_segments, 0);
        assert!((r.hpwl - 70.0).abs() < 1e-9);
        assert!((r.detour_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_pin_net_uses_mst() {
        // Three collinear pins: MST length = span, not star.
        let nets = vec![vec![(5.0, 5.0), (55.0, 5.0), (95.0, 5.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(r.wirelength, 90.0);
    }

    #[test]
    fn congestion_accumulates_and_maze_avoids_hotspots() {
        // Saturate a horizontal corridor, then route one more net across it.
        let mut nets = Vec::new();
        for _ in 0..4 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        // Capacity 2/edge: 4 straight routes must overflow or detour.
        assert!(
            r.mazed_segments > 0 || r.congestion.overflow_edges() > 0,
            "mazed {} overflow {}",
            r.mazed_segments,
            r.congestion.overflow_edges()
        );
        assert!(r.congestion.max_utilization() > 0.9);
    }

    #[test]
    fn maze_work_is_counted_at_full_trace_level() {
        let mut nets = Vec::new();
        for _ in 0..4 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let read = || {
            (
                cp_trace::counter_value("route.maze.calls"),
                cp_trace::counter_value("route.maze.heap_pops"),
                cp_trace::counter_value("route.maze.window_cells"),
            )
        };
        let before = read();
        cp_trace::set_level(cp_trace::Level::Full);
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        cp_trace::set_level(cp_trace::Level::Off);
        let after = read();
        assert!(r.mazed_segments > 0);
        // Counters are process-global, so only lower bounds hold.
        let calls = after.0 - before.0;
        assert!(calls >= r.mazed_segments as u64, "calls {calls}");
        assert!(after.1 - before.1 >= calls, "pops");
        assert!(after.2 - before.2 >= calls, "cells");
    }

    #[test]
    fn maze_detour_increases_wirelength() {
        let mut nets = Vec::new();
        for _ in 0..8 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert!(r.detour_factor() >= 1.0);
        assert!(r.wirelength >= 8.0 * 90.0);
    }

    #[test]
    fn nan_pin_is_a_typed_error() {
        let nets = vec![vec![(5.0, 5.0), (f64::NAN, 35.0)]];
        let err = route_nets(&nets, region(), &opts()).expect_err("NaN pin must be rejected");
        assert_eq!(err, RouteError::NonFinitePin { net: 0 });
    }

    #[test]
    fn single_pin_nets_are_free() {
        let nets = vec![vec![(5.0, 5.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(r.wirelength, 0.0);
    }

    #[test]
    fn deterministic() {
        let nets = vec![
            vec![(5.0, 5.0), (95.0, 95.0)],
            vec![(15.0, 85.0), (85.0, 15.0)],
            vec![(50.0, 5.0), (50.0, 95.0), (5.0, 50.0)],
        ];
        let a = route_nets(&nets, region(), &opts()).expect("routable");
        let b = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod blockage_tests {
    use super::*;

    #[test]
    fn derated_region_congests_sooner() {
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            tracks_per_layer: 4,
            layers_per_direction: 1,
            maze_fallback: false,
            maze_margin: 4,
        };
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(5.0, 55.0), (95.0, 55.0)]).collect();
        let open = route_nets(&nets, region, &opts).expect("routable");
        let blocked =
            route_nets_with_blockages(&nets, region, &[Rect::new(30.0, 40.0, 40.0, 30.0)], &opts)
                .expect("routable");
        assert!(
            blocked.congestion.max_utilization() > open.congestion.max_utilization(),
            "derated capacity should raise utilization: {} vs {}",
            blocked.congestion.max_utilization(),
            open.congestion.max_utilization()
        );
    }
}

#[cfg(test)]
mod steiner_tests {
    use super::*;

    #[test]
    fn three_pin_steiner_beats_mst_on_an_l() {
        // Pins at the corners of an L: MST length 2·10 gcells; Steiner via
        // the median point also 20 — but for a T shape Steiner wins.
        let region = Rect::new(0.0, 0.0, 200.0, 200.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            ..Default::default()
        };
        // T shape: pins at (0,10), (20,10), (10,0) in gcells.
        let nets = vec![vec![(5.0, 105.0), (195.0, 105.0), (105.0, 5.0)]];
        let r = route_nets(&nets, region, &opts).expect("routable");
        // Steiner point (10,10): total = 10 + 9 + 10 = 29 edges = 290 µm.
        // An MST would pay 10 + (10+10) = ... ≥ 29; exact check:
        assert_eq!(r.wirelength, 290.0);
    }

    #[test]
    fn three_collinear_pins_unchanged() {
        let region = Rect::new(0.0, 0.0, 200.0, 200.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            ..Default::default()
        };
        let nets = vec![vec![(5.0, 5.0), (105.0, 5.0), (195.0, 5.0)]];
        let r = route_nets(&nets, region, &opts).expect("routable");
        assert_eq!(r.wirelength, 190.0);
    }
}
