//! Table 3 — relative cache energy of each access type.
//!
//! The paper's Table 3 lists, for the 16 KB 4-way L1 and a 0.25 µm process,
//! the energy of every access type relative to a parallel read. This module
//! regenerates the table from the analytic energy model.

use serde::Serialize;
use wp_cache::L1Config;
use wp_energy::{CacheEnergyModel, RelativeEnergyTable};

use crate::engine::{SimMatrix, SimPlan};
use crate::report::TextTable;
use crate::runner::RunOptions;

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table3Row {
    /// Description of the access type.
    pub component: String,
    /// Energy relative to a parallel read, as measured by our model.
    pub measured: f64,
    /// The value the paper reports (None for rows the paper does not list,
    /// e.g. the mispredicted access).
    pub paper: Option<f64>,
}

/// The regenerated Table 3.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table3Result {
    /// Rows in the paper's order.
    pub rows: Vec<Table3Row>,
}

/// Paper reference values for Table 3.
const PAPER_ROWS: [(&str, f64); 5] = [
    ("Parallel access cache read (4 ways read)", 1.00),
    (
        "Sequential-access, way-predicted, or direct-mapping access (1 way read)",
        0.21,
    ),
    ("Cache write", 0.24),
    ("Tag array energy (also included in all above rows)", 0.06),
    ("1024 entry x 4 bit prediction table read/write", 0.007),
];

/// The simulation points Table 3 needs: none — the table is analytic.
pub fn plan(_options: &RunOptions) -> SimPlan {
    SimPlan::new()
}

/// Renders Table 3. The matrix and [`RunOptions`] are unused (analytic
/// result), accepted for interface uniformity with the simulated figures.
pub fn from_matrix(_matrix: &SimMatrix, _options: &RunOptions) -> Table3Result {
    let geometry = L1Config::paper_dcache()
        .geometry()
        .expect("the paper's L1 geometry is valid");
    let model = CacheEnergyModel::new(geometry);
    let table = RelativeEnergyTable::from_model(&model);
    let measured = [
        table.parallel_read,
        table.single_way_read,
        table.write,
        table.tag_array,
        table.prediction_table,
    ];
    let mut rows: Vec<Table3Row> = PAPER_ROWS
        .iter()
        .zip(measured.iter())
        .map(|(&(component, paper), &value)| Table3Row {
            component: component.to_string(),
            measured: value,
            paper: Some(paper),
        })
        .collect();
    rows.push(Table3Row {
        component: "Mispredicted access (2 ways read)".to_string(),
        measured: table.mispredicted_read,
        paper: None,
    });
    Table3Result { rows }
}

impl Table3Result {
    /// Renders the table as text.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new(vec!["Energy component", "measured", "paper"]);
        for row in &self.rows {
            table.add_row(vec![
                row.component.clone(),
                format!("{:.3}", row.measured),
                row.paper.map_or("-".to_string(), |p| format!("{p:.3}")),
            ]);
        }
        format!(
            "Table 3: cache energy relative to a parallel read\n{}",
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_within_tolerance() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        for row in &result.rows {
            if let Some(paper) = row.paper {
                let tolerance = if paper < 0.05 { 0.005 } else { 0.025 };
                assert!(
                    (row.measured - paper).abs() < tolerance,
                    "{}: measured {} vs paper {}",
                    row.component,
                    row.measured,
                    paper
                );
            }
        }
    }

    #[test]
    fn renders_all_rows() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let text = result.to_table();
        assert!(text.contains("Cache write"));
        assert!(text.contains("Mispredicted"));
        assert_eq!(result.rows.len(), 6);
    }
}
