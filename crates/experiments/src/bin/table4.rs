//! Regenerates the paper's table4 from the simulator.
//!
//! Usage: `cargo run --release -p wp-experiments --bin table4
//! [--quick] [--ops N] [--seed N] [--threads N] [--json]`

use wp_experiments::table4;

fn main() {
    wp_experiments::runner::artefact_main(table4::plan, table4::from_matrix, |result| {
        result.to_table()
    });
}
