//! Regenerates the paper's table3 from the simulator.
//!
//! Usage: `cargo run --release -p wp-experiments --bin table3
//! [--quick] [--ops N] [--seed N] [--threads N] [--json]`

fn main() {
    wp_experiments::runner::artefact_main("table3");
}
