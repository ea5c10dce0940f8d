//! Output checks, written independently of the code they check.

use cp_core::FlowReport;
use cp_netlist::floorplan::Rect;
use cp_netlist::{Netlist, PinRef};

/// The quality-of-results numbers every workload reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qor {
    /// Legalized HPWL, µm.
    pub hpwl: f64,
    /// Routed wirelength incl. clock tree, µm.
    pub rwl: f64,
    /// Worst negative slack, ps.
    pub wns: f64,
    /// Total negative slack, ps.
    pub tns: f64,
    /// Total power, W.
    pub power: f64,
    /// Clock skew, ps.
    pub skew: f64,
    /// Worst hold slack, ps.
    pub hold_wns: f64,
}

impl Qor {
    /// The QoR fields of a flow report.
    pub fn of(report: &FlowReport) -> Self {
        let p = &report.ppa;
        Self {
            hpwl: report.hpwl,
            rwl: p.rwl,
            wns: p.wns,
            tns: p.tns,
            power: p.power,
            skew: p.skew,
            hold_wns: p.hold_wns,
        }
    }

    fn fields(&self) -> [(&'static str, f64); 7] {
        [
            ("hpwl", self.hpwl),
            ("rwl", self.rwl),
            ("wns", self.wns),
            ("tns", self.tns),
            ("power", self.power),
            ("skew", self.skew),
            ("hold_wns", self.hold_wns),
        ]
    }

    /// Every field is finite.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.fields().iter().find(|(_, v)| !v.is_finite()) {
            Some((name, v)) => Err(format!("{name} is not finite ({v})")),
            None => Ok(()),
        }
    }

    /// Every field is bitwise equal to `reference`'s.
    pub fn check_bitwise(&self, reference: &Self) -> Result<(), String> {
        for ((name, a), (_, b)) in self.fields().iter().zip(reference.fields()) {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{name} {a} differs from reference {b}"));
            }
        }
        Ok(())
    }
}

/// Unweighted HPWL of every non-clock net, from pin positions: a cell pin
/// sits at its cell's position, a port pin at its port's. Summed serially
/// straight from the netlist, sharing no code with the placer's HPWL.
pub fn independent_hpwl(
    netlist: &Netlist,
    cell_positions: &[(f64, f64)],
    port_positions: &[(f64, f64)],
) -> f64 {
    let pin = |p: &PinRef| match *p {
        PinRef::Cell { cell, .. } => cell_positions[cell.index()],
        PinRef::Port(port) => port_positions[port.index()],
    };
    let mut total = 0.0;
    for net in netlist.nets().iter().filter(|n| !n.is_clock) {
        let mut pins = net.driver.iter().chain(&net.sinks).map(pin);
        let Some(first) = pins.next() else { continue };
        let (mut lo, mut hi) = (first, first);
        for (x, y) in pins {
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
        }
        total += (hi.0 - lo.0) + (hi.1 - lo.1);
    }
    total
}

/// `a` and `b` agree to a relative 1e-9 (summation order differs between
/// independent HPWL sums).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The rows cells must sit on: rows of `height` stacked up from the core's
/// bottom edge.
#[derive(Debug, Clone, Copy)]
pub struct Rows {
    /// Placeable core.
    pub core: Rect,
    /// Row height, µm.
    pub height: f64,
}

const EPS: f64 = 1e-6;

/// Checks that lower-left `positions` of cells sized `sizes` (width,
/// height) are legal: inside the core, starting on a row boundary, clear
/// of every blockage, and overlapping no other cell on any row they span.
pub fn check_legal(
    rows: Rows,
    blockages: &[Rect],
    sizes: &[(f64, f64)],
    positions: &[(f64, f64)],
) -> Result<(), String> {
    if sizes.len() != positions.len() {
        return Err(format!(
            "{} positions for {} cells",
            positions.len(),
            sizes.len()
        ));
    }
    let core = rows.core;
    let row_count = (core.height() / rows.height).round() as usize;
    let mut per_row: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); row_count];
    for (i, (&(x, y), &(w, h))) in positions.iter().zip(sizes).enumerate() {
        if !(x.is_finite() && y.is_finite()) {
            return Err(format!("cell {i} at non-finite ({x}, {y})"));
        }
        if x < core.llx - EPS
            || x + w > core.urx + EPS
            || y < core.lly - EPS
            || y + h > core.ury + EPS
        {
            return Err(format!("cell {i} at ({x}, {y}) leaves the core"));
        }
        let offset = (y - core.lly) / rows.height;
        if (offset - offset.round()).abs() > EPS {
            return Err(format!("cell {i} at y={y} is off-row"));
        }
        if let Some(b) = blockages.iter().find(|b| {
            x < b.urx - EPS && x + w > b.llx + EPS && y < b.ury - EPS && y + h > b.lly + EPS
        }) {
            return Err(format!("cell {i} at ({x}, {y}) overlaps blockage {b:?}"));
        }
        let first = offset.round() as usize;
        let spanned = ((h / rows.height) - EPS).ceil().max(1.0) as usize;
        for row in per_row.iter_mut().skip(first).take(spanned) {
            row.push((x, x + w, i));
        }
    }
    for (r, row) in per_row.iter_mut().enumerate() {
        row.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(w) = row.windows(2).find(|w| w[0].1 > w[1].0 + EPS) {
            return Err(format!(
                "cells {} and {} overlap on row {r}",
                w[0].2, w[1].2
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::{HierTree, Library, NetlistBuilder, PortDir};

    /// a ── u0 ── u1 ── y, with u2 also driven by u0.
    fn three_cells() -> Netlist {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").expect("INV_X1 in library");
        let mut b = NetlistBuilder::new("three", lib);
        let a = b.add_port("a", PortDir::Input);
        let y = b.add_port("y", PortDir::Output);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        let u1 = b.add_cell("u1", inv, HierTree::ROOT);
        let u2 = b.add_cell("u2", inv, HierTree::ROOT);
        let cell = |cell| PinRef::Cell { cell, pin: 0 };
        b.add_net("na", Some(PinRef::Port(a)), vec![cell(u0)]);
        b.add_net("n0", Some(cell(u0)), vec![cell(u1), cell(u2)]);
        b.add_net("ny", Some(cell(u1)), vec![PinRef::Port(y)]);
        b.finish().expect("valid netlist")
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let n = three_cells();
        let cells = [(1.0, 1.0), (4.0, 2.0), (2.0, 5.0)];
        let ports = [(0.0, 0.0), (10.0, 2.0)];
        // na: a(0,0)-u0(1,1)            -> 1 + 1 = 2
        // n0: u0(1,1) u1(4,2) u2(2,5)   -> 3 + 4 = 7
        // ny: u1(4,2)-y(10,2)           -> 6 + 0 = 6
        assert_eq!(independent_hpwl(&n, &cells, &ports), 15.0);
    }

    fn rows() -> Rows {
        Rows {
            core: Rect::new(0.0, 0.0, 10.0, 4.0),
            height: 2.0,
        }
    }

    #[test]
    fn legal_placement_passes() {
        let sizes = [(2.0, 2.0), (3.0, 2.0), (2.0, 2.0)];
        let positions = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)];
        assert_eq!(check_legal(rows(), &[], &sizes, &positions), Ok(()));
    }

    #[test]
    fn overlapping_cells_are_rejected() {
        let sizes = [(2.0, 2.0), (3.0, 2.0)];
        let positions = [(0.0, 0.0), (1.5, 0.0)];
        let err = check_legal(rows(), &[], &sizes, &positions).expect_err("overlap");
        assert!(err.contains("overlap on row 0"), "{err}");
    }

    #[test]
    fn off_row_outside_core_and_blocked_cells_are_rejected() {
        let sizes = [(2.0, 2.0)];
        assert!(check_legal(rows(), &[], &sizes, &[(0.0, 0.5)]).is_err());
        assert!(check_legal(rows(), &[], &sizes, &[(9.0, 0.0)]).is_err());
        let blockage = [Rect::new(0.0, 0.0, 3.0, 2.0)];
        assert!(check_legal(rows(), &blockage, &sizes, &[(1.0, 0.0)]).is_err());
        assert!(check_legal(rows(), &blockage, &sizes, &[(3.0, 0.0)]).is_ok());
    }

    #[test]
    fn qor_bitwise_and_finite_checks() {
        let q = Qor {
            hpwl: 1.0,
            rwl: 2.0,
            wns: -3.0,
            tns: -4.0,
            power: 0.5,
            skew: 1.0,
            hold_wns: 2.0,
        };
        assert_eq!(q.check_finite(), Ok(()));
        assert_eq!(q.check_bitwise(&q), Ok(()));
        let drifted = Qor {
            rwl: 2.0 + f64::EPSILON * 2.0,
            ..q
        };
        assert!(drifted.check_bitwise(&q).is_err());
        let broken = Qor { tns: f64::NAN, ..q };
        assert!(broken.check_finite().is_err());
    }
}
