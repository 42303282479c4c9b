//! Regenerates the paper's table4 from the simulator.
//!
//! Usage: `cargo run --release -p wp-experiments --bin table4
//! [--quick] [--ops N] [--seed N] [--threads N] [--json]`

fn main() {
    wp_experiments::runner::artefact_main("table4");
}
