//! The two workloads, their whole-flow calls, and the same flows
//! recomposed from public calls so each layer can be timed from outside.

use crate::check::{check_legal, close, independent_hpwl, Qor, Rows};
use crate::stats::median;
use cp_core::cluster::{ppa_aware_clustering, ClusteringResult};
use cp_core::flow::{run_flow_with_assignment_cached, ShapeMode};
use cp_core::stages;
use cp_core::vpr::subnetlist::SubnetlistCache;
use cp_core::vpr::{best_shape, evaluate_shape};
use cp_core::{run_default_flow, run_flow, FlowError, FlowOptions, FlowReport};
use cp_netlist::clustered::ClusteredNetlist;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::{ClusterShape, Constraints, Floorplan, Netlist, ValidationError};
use cp_place::hpwl::raw_hpwl;
use cp_place::{
    legalize, refine, synthesize_clock_tree, DetailedOptions, GlobalPlacer, PlacementProblem,
};
use cp_route::route_placed_netlist;
use cp_timing::{power_report, propagate_activity, Sta, WireModel};
use cp_trace::TraceReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads in the `cp_parallel` pool for every workload.
pub const POOL_THREADS: usize = 2;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload: a design, a flow and its options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The flat default flow on Jpeg; placer-bound.
    FlatJpeg,
    /// The clustered flow with exact V-P&R shaping on Aes; shaping-bound.
    VprAes,
}

/// A generated design.
pub struct Design {
    /// The netlist.
    pub netlist: Netlist,
    /// Its timing constraints.
    pub constraints: Constraints,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Self; 2] = [Self::FlatJpeg, Self::VprAes];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FlatJpeg => "flat-jpeg",
            Self::VprAes => "vpr-aes",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The design profile it generates, at scale 1.0.
    pub fn profile(self) -> DesignProfile {
        match self {
            Self::FlatJpeg => DesignProfile::Jpeg,
            Self::VprAes => DesignProfile::Aes,
        }
    }

    /// The flow options it runs with.
    pub fn options(self) -> FlowOptions {
        match self {
            Self::FlatJpeg => FlowOptions::default(),
            Self::VprAes => FlowOptions::fast().shape_mode(ShapeMode::Vpr),
        }
    }

    /// Designs a timed run spreads its flow calls over. Designs from
    /// different seeds differ in runtime and QoR; averaging a few per run
    /// keeps a run's figures steady from one seed to the next.
    pub fn designs_per_run(self) -> usize {
        match self {
            Self::FlatJpeg => 4,
            Self::VprAes => 8,
        }
    }

    /// Generator seed of a run's `index`-th design: runs with different
    /// seeds never share a design.
    pub fn design_seed(seed: u64, index: usize) -> u64 {
        seed.wrapping_mul(16).wrapping_add(index as u64)
    }

    /// Generates and validates the design for generator seed `seed`.
    pub fn generate(self, seed: u64) -> Result<Design, ValidationError> {
        let (netlist, constraints) = GeneratorConfig::from_profile(self.profile())
            .scale(1.0)
            .seed(seed)
            .generate_with_constraints();
        netlist.validate()?;
        constraints.validate()?;
        Ok(Design {
            netlist,
            constraints,
        })
    }

    /// One complete flow call, as a user makes it.
    pub fn run_whole(self, d: &Design, options: &FlowOptions) -> Result<FlowReport, FlowError> {
        match self {
            Self::FlatJpeg => run_default_flow(&d.netlist, &d.constraints, options),
            Self::VprAes => run_flow(&d.netlist, &d.constraints, options),
        }
    }
}

/// Checks the shaping work of an exact V-P&R flow: every shaped cluster
/// ran all candidates.
pub fn check_exact_evals(report: &FlowReport) -> Result<(), String> {
    let s = report.shaping;
    let per_cluster = ClusterShape::candidates().len();
    if s.clusters_shaped == 0 || s.exact_evals != per_cluster * s.clusters_shaped {
        return Err(format!(
            "exact_evals {} != {per_cluster} x clusters_shaped {}",
            s.exact_evals, s.clusters_shaped
        ));
    }
    Ok(())
}

/// Wall times of the public calls a recomposed flow makes, each also
/// wrapped in a trace span of the same name.
#[derive(Default)]
struct Calls {
    seconds: BTreeMap<&'static str, f64>,
}

impl Calls {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = cp_trace::span(name);
        let t = Instant::now();
        let r = f();
        *self.seconds.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        r
    }

    fn get(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        self.seconds.values().sum()
    }
}

/// A flow recomposed from public calls.
pub struct Recomposed {
    /// Its QoR.
    pub qor: Qor,
    /// The clustered flow's report (`None` for the flat flow, which has
    /// no single report).
    pub report: Option<FlowReport>,
    /// The clustering it ran (`None` for the flat flow).
    pub clustering: Option<ClusteringResult>,
    /// Per-layer values it measured.
    pub layers: Layers,
    /// Output checks only the recomposition can make: `(name, outcome)`.
    pub checks: Vec<(&'static str, Result<(), String>)>,
}

/// The flat default flow, call by call, in `run_default_flow`'s order.
/// Each call is timed; placement legality and HPWL are checked
/// independently.
///
/// # Errors
///
/// The first failing call's error.
pub fn flat_recomposed(d: &Design, opts: &FlowOptions) -> Result<Recomposed, FlowError> {
    let (n, c) = (&d.netlist, &d.constraints);
    let root = cp_trace::span("bench.flow.flat");
    let start = Instant::now();
    let mut calls = Calls::default();
    let fp = calls.time(
        "bench.floorplan",
        || -> Result<Floorplan, ValidationError> {
            let fp = Floorplan::try_for_netlist(n, opts.utilization, opts.aspect_ratio)?
                .try_with_macro_blockages(opts.macro_blockages.0, opts.macro_blockages.1)?;
            fp.validate_capacity(n)?;
            Ok(fp)
        },
    )?;
    let problem = calls.time("bench.place.problem", || {
        PlacementProblem::from_netlist(n, &fp)
    });
    let mut placed = calls.time("bench.place.global", || {
        GlobalPlacer::new(opts.placer).place(&problem)
    })?;
    calls.time("bench.place.legalize", || {
        legalize(&problem, &fp, &mut placed.positions)
    })?;
    calls.time("bench.place.refine", || {
        refine(
            &problem,
            &fp,
            &mut placed.positions,
            &DetailedOptions::default(),
        )
    });
    let hpwl = calls.time("bench.place.hpwl", || raw_hpwl(&problem, &placed.positions));
    let mut pins = placed.positions.clone();
    pins.extend_from_slice(&fp.port_positions);
    let tree = calls.time("bench.place.cts", || {
        synthesize_clock_tree(n, &pins, &opts.cts)
    })?;
    let routed = calls.time("bench.route", || {
        route_placed_netlist(n, &pins, &fp, &opts.router)
    })?;
    let wire = WireModel::Routed(&pins, routed.detour_factor());
    let timing = calls.time("bench.timing.sta", || {
        Sta::new(n, c).map(|sta| sta.run_with_clock(&wire, Some(&tree.arrival)))
    })?;
    let activity = calls.time("bench.timing.activity", || propagate_activity(n, c));
    let power = calls.time("bench.timing.power", || {
        power_report(n, c, &activity, &wire)
    });
    let wall = start.elapsed().as_secs_f64();
    drop(cp_trace::take_report(root));

    let qor = Qor {
        hpwl,
        rwl: routed.wirelength + tree.wirelength,
        wns: timing.wns,
        tns: timing.tns,
        power: power.total(),
        skew: tree.skew,
        hold_wns: timing.hold_wns,
    };
    let independent = independent_hpwl(n, &placed.positions, &fp.port_positions);
    let hpwl_check = if close(independent, hpwl) {
        Ok(())
    } else {
        Err(format!(
            "independent HPWL {independent} != flow HPWL {hpwl}"
        ))
    };
    let sizes: Vec<(f64, f64)> = problem
        .movable
        .iter()
        .map(|o| (o.width, o.height))
        .collect();
    let rows = Rows {
        core: fp.core,
        height: fp.row_height,
    };
    let legal_check = check_legal(rows, &fp.blockages, &sizes, &placed.positions);
    let layers = Layers::from([
        ("place.global_s", calls.get("bench.place.global")),
        ("place.iterations", placed.iterations as f64),
        ("place.overflow", placed.overflow),
        ("place.legalize_s", calls.get("bench.place.legalize")),
        ("place.refine_s", calls.get("bench.place.refine")),
        ("place.cts_s", calls.get("bench.place.cts")),
        ("route.s", calls.get("bench.route")),
        ("route.mazed_segments", routed.mazed_segments as f64),
        (
            "route.overflow_edges",
            routed.congestion.overflow_edges() as f64,
        ),
        ("route.detour", routed.detour_factor()),
        ("timing.sta_s", calls.get("bench.timing.sta")),
        ("timing.activity_s", calls.get("bench.timing.activity")),
        ("timing.power_s", calls.get("bench.timing.power")),
        ("flow.covered_frac", calls.total() / wall),
    ]);
    Ok(Recomposed {
        qor,
        report: None,
        clustering: None,
        layers,
        checks: vec![("independent hpwl", hpwl_check), ("legality", legal_check)],
    })
}

/// Seconds of spans named `name` that run inside a span named `ancestor`.
fn seconds_within(trace: &TraceReport, ancestor: &str, name: &str) -> f64 {
    let by_id: BTreeMap<u64, _> = trace.spans.iter().map(|s| (s.id, s)).collect();
    let inside = |mut id: u64| {
        while let Some(s) = by_id.get(&id) {
            if s.name == ancestor {
                return true;
            }
            id = s.parent;
        }
        false
    };
    trace
        .spans_named(name)
        .filter(|s| inside(s.parent))
        .map(|s| s.seconds())
        .sum()
}

/// The clustered flow as `ppa_aware_clustering` followed by
/// `run_flow_with_assignment_cached` on its assignment. The stage split
/// comes from the report's timings and, when tracing is on, from the
/// spans the flow records.
///
/// # Errors
///
/// The first failing call's error.
pub fn clustered_recomposed(d: &Design, opts: &FlowOptions) -> Result<Recomposed, FlowError> {
    let (n, c) = (&d.netlist, &d.constraints);
    let root = cp_trace::span("bench.flow.clustered");
    let start = Instant::now();
    let mut calls = Calls::default();
    let clustering = calls.time("bench.cluster", || {
        ppa_aware_clustering(n, c, &opts.clustering)
    })?;
    let report = calls.time("bench.flow", || {
        run_flow_with_assignment_cached(
            n,
            c,
            &clustering.assignment,
            clustering.runtime,
            opts,
            &mut SubnetlistCache::new(),
        )
    })?;
    let wall = start.elapsed().as_secs_f64();
    drop(cp_trace::take_report(root));

    let t = &report.timings;
    let stage = |name| t.get(name).unwrap_or(0.0);
    let mut layers = Layers::from([
        ("cluster.s", calls.get("bench.cluster")),
        ("cluster.count", clustering.cluster_count as f64),
        ("vpr.s", stage(stages::SHAPING)),
        ("vpr.evals", report.shaping.exact_evals as f64),
        ("place.cluster_s", stage(stages::CLUSTER_PLACEMENT)),
        ("place.global_s", stage(stages::FLAT_PLACEMENT)),
        (
            "flow.covered_frac",
            (calls.get("bench.cluster") + t.total() - stage(stages::CLUSTERING)) / wall,
        ),
    ]);
    if let Some(trace) = &report.trace {
        let within = |ancestor, name| seconds_within(trace, ancestor, name);
        layers.extend([
            (
                "place.legalize_s",
                within(stages::LEGALIZE_REFINE, "place.legalize"),
            ),
            (
                "place.refine_s",
                within(stages::LEGALIZE_REFINE, "place.refine"),
            ),
            ("route.s", within(stages::PPA, "route.global")),
            ("timing.sta_s", within(stages::PPA, "sta.run")),
        ]);
    }
    Ok(Recomposed {
        qor: Qor::of(&report),
        report: Some(report),
        clustering: Some(clustering),
        layers,
        checks: Vec::new(),
    })
}

/// Times V-P&R on the workload's own sub-netlists, extracted through a
/// `SubnetlistCache` as the flow extracts them, one thread at a time: the
/// median single `evaluate_shape` call, the slowest `best_shape` sweep,
/// and the parallel efficiency of the flow's shaping stage (`shaping_s`).
///
/// # Errors
///
/// The first failing extraction or evaluation.
pub fn vpr_layers(
    d: &Design,
    opts: &FlowOptions,
    assignment: &[u32],
    shaping_s: f64,
) -> Result<Layers, FlowError> {
    let mut cache = SubnetlistCache::new();
    let clustered = ClusteredNetlist::from_assignment(&d.netlist, assignment);
    let subs = clustered
        .shapeable_clusters(opts.vpr_min_instances)
        .into_iter()
        .map(|k| cache.get_or_extract(&d.netlist, clustered.cells(k)))
        .collect::<Result<Vec<_>, _>>()?;
    let (evals, sweeps) = cp_parallel::with_threads(1, || -> Result<_, FlowError> {
        let mut evals = Vec::with_capacity(subs.len());
        let mut sweeps = Vec::with_capacity(subs.len());
        for sub in &subs {
            let t = Instant::now();
            evaluate_shape(sub, ClusterShape::UNIFORM, &opts.vpr)?;
            evals.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            best_shape(sub, &opts.vpr)?;
            sweeps.push(t.elapsed().as_secs_f64());
        }
        Ok((evals, sweeps))
    })?;
    let serial: f64 = sweeps.iter().sum();
    Ok(Layers::from([
        ("vpr.eval_s", median(&evals).unwrap_or(0.0)),
        (
            "vpr.cluster_s_max",
            sweeps.iter().copied().fold(0.0, f64::max),
        ),
        (
            "vpr.parallel_eff",
            serial / (POOL_THREADS as f64 * shaping_s),
        ),
    ]))
}
