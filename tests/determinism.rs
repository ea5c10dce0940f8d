//! Whole-pipeline determinism: identical seeds must reproduce identical
//! netlists, clusterings, placements and PPA reports across runs.

use cp_core::baselines::leiden_assignment;
use cp_core::cluster::{ppa_aware_clustering, ClusteringOptions};
use cp_core::flow::{run_default_flow, run_flow, FlowOptions};
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::verilog;

fn opts() -> FlowOptions {
    FlowOptions {
        clustering: ClusteringOptions {
            avg_cluster_size: 50,
            path_count: 1000,
            ..Default::default()
        },
        vpr_min_instances: 60,
        ..Default::default()
    }
}

#[test]
fn generator_is_bit_identical() {
    let make = || {
        GeneratorConfig::from_profile(DesignProfile::Ariane)
            .scale(1.0 / 256.0)
            .seed(5)
            .generate()
    };
    let (a, b) = (make(), make());
    assert_eq!(verilog::write(&a), verilog::write(&b));
}

#[test]
fn clustering_is_reproducible() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(6)
        .generate_with_constraints();
    let o = ClusteringOptions {
        avg_cluster_size: 40,
        ..Default::default()
    };
    assert_eq!(
        ppa_aware_clustering(&n, &c, &o)
            .expect("clustering runs")
            .assignment,
        ppa_aware_clustering(&n, &c, &o)
            .expect("clustering runs")
            .assignment
    );
}

#[test]
fn community_baselines_are_reproducible() {
    let n = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(6)
        .generate();
    assert_eq!(leiden_assignment(&n, 9).0, leiden_assignment(&n, 9).0);
}

#[test]
fn full_flow_ppa_is_reproducible() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(8)
        .generate_with_constraints();
    let a = run_flow(&n, &c, &opts()).expect("flow runs");
    let b = run_flow(&n, &c, &opts()).expect("flow runs");
    assert_eq!(a.hpwl, b.hpwl);
    assert_eq!(a.cluster_count, b.cluster_count);
    assert_eq!(a.ppa, b.ppa);
}

#[test]
fn different_seeds_change_the_design() {
    let a = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(1)
        .generate();
    let b = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(1.0 / 128.0)
        .seed(2)
        .generate();
    assert_ne!(verilog::write(&a), verilog::write(&b));
}

/// The flat default flow (the reference every paper table normalizes to)
/// is pinned bit for bit: identical at 1/2/4 threads, and equal to QoR
/// figures captured before the fast placer kernels (SELL SpMV, presorted
/// fork-join spreading) landed — those kernels must change no output bit.
#[test]
fn flat_default_flow_is_pinned_across_threads() {
    let (n, c) = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.1)
        .seed(3)
        .generate_with_constraints();
    let run = |threads: usize| {
        cp_parallel::with_threads(threads, || {
            run_default_flow(&n, &c, &FlowOptions::default()).expect("flat flow runs")
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        assert!(
            base.deterministic_eq(&run(threads)),
            "flat flow differs at {threads} threads"
        );
    }
    let got = [
        base.hpwl.to_bits(),
        base.ppa.rwl.to_bits(),
        base.ppa.wns.to_bits(),
        base.ppa.tns.to_bits(),
        base.ppa.power.to_bits(),
    ];
    assert_eq!(got, FLAT_JPEG_PIN);
}

/// `[hpwl, rwl, wns, tns, power]` bits of the pinned flat flow.
const FLAT_JPEG_PIN: [u64; 5] = [
    0x40fb_af59_a338_b2b1,
    0x4100_d18f_1c89_9ce9,
    0xc09b_4197_5a4a_d7e3,
    0xc105_49c6_0a42_86ac,
    0x3f96_81a8_f677_d892,
];
