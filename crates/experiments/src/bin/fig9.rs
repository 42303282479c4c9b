//! Regenerates the paper's fig9 from the simulator.
//!
//! Usage: `cargo run --release -p wp-experiments --bin fig9
//! [--quick] [--ops N] [--seed N] [--threads N] [--json]`

fn main() {
    wp_experiments::runner::artefact_main("fig9");
}
