//! Regenerates the paper's fig10 from the simulator.
//!
//! Usage: `cargo run --release -p wp-experiments --bin fig10
//! [--quick] [--ops N] [--seed N] [--threads N] [--json]`

fn main() {
    wp_experiments::runner::artefact_main("fig10");
}
