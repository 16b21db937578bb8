//! Pinned branch & bound outputs: node counts and solution cost bits on
//! seeded instances per processor preset, for the cold search, the warm
//! (seeded) search and a node-budgeted one.
//!
//! The literals were recorded before the prune test learned to stop early
//! (`bounds::relaxed_cost_reaches`). Any change to how the bound is
//! computed or compared must keep them: a moved node count here is a moved
//! `engine.resolve_nodes` / `core.bb_nodes_n20` in the benchmark. A
//! dormant-disable XScale (`IdleMode::AlwaysOn`) gives the same rows as
//! `xscale_levels` at these loads, so it is covered by the
//! `relaxed_cost_reaches` property in `properties.rs` instead.

use dvs_power::presets::{cubic_ideal, xscale_ideal, xscale_levels, xscale_measured};
use dvs_power::Processor;
use reject_sched::algorithms::BranchBound;
use reject_sched::anytime::{BudgetedPolicy, SolveBudget};
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::WorkloadSpec;

/// `(preset, seed, cold nodes, cold cost bits, warm nodes, warm cost bits,
/// cost bits under a 12-node budget)`; the warm search is seeded with the
/// cold optimum.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("cubic_ideal", 0, 1, 0x408b008084257a92, 1, 0x408b008084257a92, 0x408b008084257a92),
    ("cubic_ideal", 1, 57, 0x409b5bde3c44cc90, 13, 0x409b5bde3c44cc90, 0x409b6886928206f6),
    ("cubic_ideal", 2, 21, 0x40a30ad4b731fd58, 21, 0x40a30ad4b731fd58, 0x40a30ad4b731fd58),
    ("cubic_ideal", 3, 38, 0x40ae3b367a2ce215, 27, 0x40ae3b367a2ce215, 0x40ae3f2e993cf501),
    ("cubic_ideal", 4, 59, 0x40909d50bd741b00, 25, 0x40909d50bd741b00, 0x4090c0299f4a35a1),
    ("cubic_ideal", 5, 21, 0x409a7a44eb0d3adf, 21, 0x409a7a44eb0d3adf, 0x409a7a44eb0d3adf),
    ("cubic_ideal", 6, 12, 0x40a40084d19615dd, 12, 0x40a40084d19615dd, 0x40a40084d19615dd),
    ("cubic_ideal", 7, 32, 0x40b132be4cff9f25, 32, 0x40b132be4cff9f25, 0x40b132be4cff9f25),
    ("xscale_ideal", 0, 37, 0x4090204e97ce4204, 37, 0x4090204e97ce4204, 0x4090204e97ce4204),
    ("xscale_ideal", 1, 49, 0x409e96e0ed41b6d9, 33, 0x409e96e0ed41b6d9, 0x409e9a73d76931b6),
    ("xscale_ideal", 2, 196, 0x40a52af880a9245c, 49, 0x40a52af880a9245c, 0x40a5565b583a5770),
    ("xscale_ideal", 3, 14, 0x40aff09aa0738f64, 14, 0x40aff09aa0738f64, 0x40aff09aa0738f64),
    ("xscale_ideal", 4, 83, 0x40945dbea4dce397, 59, 0x40945dbea4dce397, 0x409470f7d44bd532),
    ("xscale_ideal", 5, 23, 0x409e1e9f27d1f680, 23, 0x409e1e9f27d1f680, 0x409e1e9f27d1f680),
    ("xscale_ideal", 6, 72, 0x40a5e232e9640e3a, 17, 0x40a5e232e9640e3a, 0x40a5f079e9498078),
    ("xscale_ideal", 7, 53, 0x40b24b0eeffd282d, 11, 0x40b24b0eeffd282d, 0x40b24c61b0aa84fd),
    ("xscale_levels", 0, 1, 0x4090746dbef893a4, 1, 0x4090746dbef893a4, 0x4090746dbef893a4),
    ("xscale_levels", 1, 63, 0x409eb7ca792b03ca, 63, 0x409eb7ca792b03ca, 0x409eb7ca792b03ca),
    ("xscale_levels", 2, 298, 0x40a5583091d4ae8b, 63, 0x40a5583091d4ae8b, 0x40a58b2984881e22),
    ("xscale_levels", 3, 23, 0x40b00b0ab532c80d, 23, 0x40b00b0ab532c80d, 0x40b00b0ab532c80d),
    ("xscale_levels", 4, 127, 0x40946d4b16d92a9a, 85, 0x40946d4b16d92a9a, 0x4094b1c7804c1146),
    ("xscale_levels", 5, 49, 0x409e3efe5878d08d, 49, 0x409e3efe5878d08d, 0x409e3efe5878d08d),
    ("xscale_levels", 6, 138, 0x40a5f6778a497ace, 46, 0x40a5f6778a497ace, 0x40a61c7ccd733ef8),
    ("xscale_levels", 7, 53, 0x40b26a0bb1f38706, 11, 0x40b26a0bb1f38706, 0x40b26aebb5273d31),
    ("xscale_table", 0, 1, 0x409054859371da59, 1, 0x409054859371da59, 0x409054859371da59),
    ("xscale_table", 1, 63, 0x409e96db4893e0b8, 63, 0x409e96db4893e0b8, 0x409e96db4893e0b8),
    ("xscale_table", 2, 298, 0x40a55800b3f0e323, 63, 0x40a55800b3f0e323, 0x40a5c2695ee9474a),
    ("xscale_table", 3, 42, 0x40b00c073fc6d3f0, 42, 0x40b00c073fc6d3f0, 0x40b00c073fc6d3f0),
    ("xscale_table", 4, 125, 0x40945260f980f97a, 85, 0x40945260f980f97a, 0x409490ca3ff28538),
    ("xscale_table", 5, 57, 0x409e1dc47f132118, 53, 0x409e1dc47f132118, 0x409e1dd2eab4f888),
    ("xscale_table", 6, 127, 0x40a5e5d4f55b55b6, 48, 0x40a5e5d4f55b55b6, 0x40a60cc24cdc18d7),
    ("xscale_table", 7, 70, 0x40b26e6e94896b91, 59, 0x40b26e6e94896b91, 0x40b28171876640d8),
];

fn preset(name: &str) -> Processor {
    match name {
        "cubic_ideal" => cubic_ideal(),
        "xscale_ideal" => xscale_ideal(),
        "xscale_levels" => xscale_levels(),
        "xscale_table" => xscale_measured(),
        _ => unreachable!("unknown preset {name}"),
    }
}

#[test]
fn branch_bound_nodes_and_costs_are_pinned() {
    for &(name, seed, cold_nodes, cold_bits, warm_nodes, warm_bits, cut_bits) in PINS {
        let load = [1.3, 1.8, 2.4, 3.2][seed as usize % 4];
        let tasks = WorkloadSpec::new(16, load).seed(seed).generate().unwrap();
        let inst = Instance::new(tasks, preset(name)).unwrap();
        let bb = BranchBound::default();
        let cold = bb.solve_within(&inst, &SolveBudget::unlimited()).unwrap();
        let warm = bb
            .solve_within_seeded(&inst, &SolveBudget::unlimited(), &cold.solution)
            .unwrap();
        let cut = bb.solve_within(&inst, &SolveBudget::nodes(12)).unwrap();
        let got = (
            cold.nodes_used,
            cold.solution.cost().to_bits(),
            warm.nodes_used,
            warm.solution.cost().to_bits(),
            cut.solution.cost().to_bits(),
        );
        let want = (cold_nodes, cold_bits, warm_nodes, warm_bits, cut_bits);
        assert_eq!(got, want, "{name} seed {seed}");
        assert_eq!(bb.solve(&inst).unwrap().cost().to_bits(), cold_bits);
    }
}
