//! Flow benchmark: runs one workload for a fixed time, checks every
//! output, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <flat-jpeg|vpr-aes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole flow calls with tracing off and prints the
//! end-to-end metrics; `--trace 1` recomposes the flow from public calls
//! under tracing and prints the per-layer metrics. See `README.md`.

mod check;
mod flows;
mod stats;

use check::Qor;
use cp_core::FlowReport;
use cp_trace::Level;
use flows::{Design, Layers, Recomposed, Workload, POOL_THREADS};
use stats::{median, Effect};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Least number of times a run generates its designs; `setup_s`
/// reports the median.
const SETUP_REPS: usize = 5;

/// Every per-layer metric and its unit, in output order.
const LAYER_METRICS: [(&str, &str); 26] = [
    ("netlist.generate_s", "s"),
    ("cluster.s", "s"),
    ("cluster.count", "count"),
    ("vpr.s", "s"),
    ("vpr.evals", "count"),
    ("vpr.eval_s", "s"),
    ("vpr.cluster_s_max", "s"),
    ("vpr.parallel_eff", "ratio"),
    ("place.global_s", "s"),
    ("place.cluster_s", "s"),
    ("place.iterations", "count"),
    ("place.overflow", "ratio"),
    ("place.legalize_s", "s"),
    ("place.refine_s", "s"),
    ("place.cts_s", "s"),
    ("route.s", "s"),
    ("route.mazed_segments", "count"),
    ("route.overflow_edges", "count"),
    ("route.detour", "ratio"),
    ("timing.sta_s", "s"),
    ("timing.activity_s", "s"),
    ("timing.power_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.overhead_spread", "ratio"),
    ("trace.overhead_resolved", "bool"),
    ("flow.covered_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        bad(&format!("expected one of {}", names.join(", ")))
                    })?);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("expected positive seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Attempts and failures across flow calls and output checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

/// The first good report of a design: every later call on it must
/// reproduce it bitwise.
struct Reference(FlowReport);

impl Reference {
    /// Checks that hold for any report of the workload.
    fn valid(workload: Workload, report: &FlowReport) -> Result<(), String> {
        Qor::of(report).check_finite()?;
        if workload == Workload::VprAes {
            flows::check_exact_evals(report)?;
        }
        Ok(())
    }

    /// Checks `report` against the design's reference, or makes it the
    /// reference when the design has none yet.
    fn check_or_adopt(
        slot: &mut Option<Self>,
        workload: Workload,
        report: FlowReport,
    ) -> Result<(), String> {
        Self::valid(workload, &report)?;
        match slot {
            Some(r) => {
                Qor::of(&report).check_bitwise(&r.qor())?;
                if !report.deterministic_eq(&r.0) {
                    return Err("clusters, shaping counters or recoveries differ".into());
                }
            }
            None => *slot = Some(Self(report)),
        }
        Ok(())
    }

    fn qor(&self) -> Qor {
        Qor::of(&self.0)
    }
}

/// Generation and validation of a run's designs from their seeds, timed
/// each time. A timed run repeats it between its flow calls, so the
/// median samples the host over the whole run, as `flow_s` does.
struct Setup {
    workload: Workload,
    seeds: Vec<u64>,
    seconds: Vec<f64>,
}

impl Setup {
    fn generate(&mut self) -> Result<Vec<Design>, String> {
        let t = Instant::now();
        let designs: Result<Vec<_>, _> = self
            .seeds
            .iter()
            .map(|&s| self.workload.generate(s))
            .collect();
        self.seconds.push(t.elapsed().as_secs_f64());
        designs.map_err(|e| e.to_string())
    }

    /// Generates the designs again, timed, and drops them.
    fn repeat(&mut self, tally: &mut Tally) {
        tally.record("generate", self.generate().map(drop));
    }
}

/// Runs the workload's recomposed flow, records its checks, and checks
/// that it reproduces the whole flow's QoR bitwise.
fn recompose(
    workload: Workload,
    d: &Design,
    reference: &Reference,
    tally: &mut Tally,
) -> Option<Recomposed> {
    let opts = workload.options();
    let run = match workload {
        Workload::FlatJpeg => flows::flat_recomposed(d, &opts),
        Workload::VprAes => flows::clustered_recomposed(d, &opts),
    };
    let rec = match run {
        Ok(rec) => rec,
        Err(e) => {
            tally.record("recomposed flow", Err(e.to_string()));
            return None;
        }
    };
    for (name, outcome) in &rec.checks {
        tally.record(name, outcome.clone());
    }
    let same = rec
        .qor
        .check_bitwise(&reference.qor())
        .and_then(|()| match &rec.report {
            Some(r) if !r.deterministic_eq(&reference.0) => {
                Err("clusters, shaping counters or recoveries differ".into())
            }
            _ => Ok(()),
        });
    tally.record("recomposed flow reproduces the whole flow", same);
    Some(rec)
}

/// `true` while another step of typical length `steps` (median so far)
/// still ends within `seconds` of `start`.
fn time_left(start: Instant, steps: &[f64], seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + median(steps).unwrap_or(0.0) < seconds
}

/// Times whole flow calls with tracing off, rotating over the designs,
/// until every design ran once and another call would end past
/// `seconds`. After each call the designs are generated again for
/// `setup`. Returns the times of the calls that passed their checks.
fn timed_calls(
    args: &Args,
    designs: &[Design],
    references: &mut [Option<Reference>],
    setup: &mut Setup,
    tally: &mut Tally,
) -> Vec<f64> {
    let opts = args.workload.options();
    let mut times = Vec::new();
    let start = Instant::now();
    let mut calls = 0;
    while calls < designs.len() || time_left(start, &times, args.seconds) {
        let k = calls % designs.len();
        calls += 1;
        if cp_trace::level() != Level::Off {
            tally.record("timed call", Err("tracing is on".into()));
            continue;
        }
        let t = Instant::now();
        let outcome = args.workload.run_whole(&designs[k], &opts);
        let dt = t.elapsed().as_secs_f64();
        let checked = outcome
            .map_err(|e| e.to_string())
            .and_then(|r| Reference::check_or_adopt(&mut references[k], args.workload, r));
        if checked.is_ok() {
            times.push(dt);
        }
        tally.record("timed call", checked);
        setup.repeat(tally);
    }
    times
}

/// Paired whole-flow calls, untraced and traced in alternating order,
/// until another pair would end past `seconds`: the per-pair overhead of
/// tracing.
fn tracing_overhead(
    args: &Args,
    d: &Design,
    reference: &mut Option<Reference>,
    tally: &mut Tally,
) -> Effect {
    let opts = args.workload.options();
    let mut overheads = Vec::new();
    let mut pairs_s = Vec::new();
    let start = Instant::now();
    while overheads.is_empty() || time_left(start, &pairs_s, args.seconds) {
        let traced_first = overheads.len() % 2 == 1;
        let mut secs = [0.0; 2];
        let mut ok = true;
        for traced in [traced_first, !traced_first] {
            cp_trace::set_level(if traced { Level::Spans } else { Level::Off });
            let t = Instant::now();
            let outcome = args.workload.run_whole(d, &opts);
            secs[usize::from(traced)] = t.elapsed().as_secs_f64();
            cp_trace::set_level(Level::Off);
            cp_trace::clear();
            let checked = outcome
                .map_err(|e| e.to_string())
                .and_then(|r| Reference::check_or_adopt(reference, args.workload, r));
            ok &= checked.is_ok();
            tally.record("overhead call", checked);
        }
        if !ok {
            break;
        }
        overheads.push(secs[1] / secs[0] - 1.0);
        pairs_s.push(secs[0] + secs[1]);
    }
    Effect::from_samples(&overheads).unwrap_or(Effect {
        value: 0.0,
        spread: 0.0,
        pairs: 0,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc`'s answer, when the command exists.
fn nproc() -> Option<u64> {
    let out = std::process::Command::new("nproc").output().ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a non-finite value already failed
        // its check.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn run(args: &Args) -> (Tally, Vec<(&'static str, f64, &'static str)>) {
    let mut tally = Tally::default();
    let wl = args.workload;
    let opts = wl.options();
    // The traced run splits one design's flow into layers.
    let count = if args.trace { 1 } else { wl.designs_per_run() };
    let seeds: Vec<u64> = (0..count)
        .map(|i| Workload::design_seed(args.seed, i))
        .collect();

    // Set-up: the pool spawns its workers on the first parallel call,
    // then the designs are generated and validated from the seed.
    let t = Instant::now();
    cp_parallel::par_for(POOL_THREADS, &|_| {});
    let pool_s = t.elapsed().as_secs_f64();
    let mut setup = Setup {
        workload: wl,
        seeds: seeds.clone(),
        seconds: Vec::new(),
    };
    let designs = match setup.generate() {
        Ok(designs) => designs,
        Err(e) => {
            tally.record("generate", Err(e));
            return (tally, Vec::new());
        }
    };
    if args.trace {
        while setup.seconds.len() < SETUP_REPS {
            setup.repeat(&mut tally);
        }
    }
    let list = |f: &dyn Fn(&Design) -> usize| {
        let v: Vec<String> = designs.iter().map(|d| f(d).to_string()).collect();
        format!("[{}]", v.join(", "))
    };
    println!(
        "{{\"host\": {{\"nproc\": {}, \"detected_cores\": {}, \"pool_threads\": {}}}, \
         \"input\": {{\"workload\": \"{}\", \"design\": \"{}\", \"scale\": 1.0, \"seed\": {}, \
         \"design_seeds\": {:?}, \"cells\": {}, \"nets\": {}}}}}",
        nproc().map_or("null".to_string(), |n| n.to_string()),
        cp_parallel::detected_cores(),
        cp_parallel::current_threads(),
        wl.name(),
        wl.profile().name(),
        args.seed,
        seeds,
        list(&|d| d.netlist.cell_count()),
        list(&|d| d.netlist.net_count()),
    );

    // Warm-up: one untimed, untraced whole flow call on the first design.
    // It settles lazy set-up and is the reference for that design.
    let mut references: Vec<Option<Reference>> = designs.iter().map(|_| None).collect();
    let warm = wl.run_whole(&designs[0], &opts).map_err(|e| e.to_string());
    tally.record(
        "warm-up call",
        warm.and_then(|r| Reference::check_or_adopt(&mut references[0], wl, r)),
    );

    if !args.trace {
        let times = timed_calls(args, &designs, &mut references, &mut setup, &mut tally);
        while setup.seconds.len() < SETUP_REPS {
            setup.repeat(&mut tally);
        }
        let generate_s = median(&setup.seconds).unwrap_or(0.0);
        // Untimed: the flow recomposed from public calls must reproduce
        // the whole flow on the first design.
        if let Some(reference) = &references[0] {
            recompose(wl, &designs[0], reference, &mut tally);
        }
        let refs: Vec<Qor> = references.iter().flatten().map(Reference::qor).collect();
        let (Some(flow_s), true) = (median(&times), refs.len() == designs.len()) else {
            tally.record("timed calls", Err("a design has no good call".into()));
            return (tally, Vec::new());
        };
        let Some(rss) = peak_rss_mb() else {
            tally.record("peak rss", Err("no VmHWM in /proc/self/status".into()));
            return (tally, Vec::new());
        };
        let mean = |f: fn(&Qor) -> f64| refs.iter().map(f).sum::<f64>() / refs.len() as f64;
        let metrics = vec![
            ("flow_s", flow_s, "s"),
            ("setup_s", pool_s + generate_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("hpwl", mean(|q| q.hpwl), "um"),
            ("rwl", mean(|q| q.rwl), "um"),
            ("wns", mean(|q| q.wns), "ps"),
            ("tns", mean(|q| q.tns), "ps"),
            ("power", mean(|q| q.power), "W"),
        ];
        eprintln!("{}: call times {times:?}", wl.name());
        return (tally, metrics);
    }

    let (d, reference) = (&designs[0], &mut references[0]);
    let overhead = tracing_overhead(args, d, reference, &mut tally);
    let resolved = overhead.resolved();
    eprintln!(
        "trace.overhead_frac {:+.4} over {} pairs, quartile spread {:.4}: {}",
        overhead.value,
        overhead.pairs,
        overhead.spread,
        if resolved { "resolved" } else { "unresolved" }
    );

    let Some(reference) = reference.as_ref() else {
        return (tally, Vec::new());
    };
    cp_trace::set_level(Level::Spans);
    let traced = recompose(wl, d, reference, &mut tally);
    cp_trace::set_level(Level::Off);
    cp_trace::clear();
    let Some(traced) = traced else {
        return (tally, Vec::new());
    };
    let mut layers: Layers = traced.layers;
    layers.insert("netlist.generate_s", median(&setup.seconds).unwrap_or(0.0));
    layers.insert("trace.overhead_frac", overhead.value);
    layers.insert("trace.overhead_spread", overhead.spread);
    layers.insert("trace.overhead_resolved", f64::from(u8::from(resolved)));
    if let (Workload::VprAes, Some(clustering)) = (wl, &traced.clustering) {
        let shaping_s = layers.get("vpr.s").copied().unwrap_or(0.0);
        match flows::vpr_layers(d, &opts, &clustering.assignment, shaping_s) {
            Ok(vpr) => {
                tally.record("vpr layer probes", Ok(()));
                layers.extend(vpr);
            }
            Err(e) => tally.record("vpr layer probes", Err(e.to_string())),
        }
    }
    // A layer the workload's flow never enters reads 0.
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    (tally, metrics)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    cp_trace::set_level(Level::Off);
    let (tally, metrics) = cp_parallel::with_threads(POOL_THREADS, || run(&args));
    let correct = tally.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
