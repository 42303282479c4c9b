//! The fetch model reads one i-cache block per access (one i-cache block
//! per cycle, `fetch_width` instructions from it), so straight-line code
//! costs one i-cache fetch per i-cache block it spans — whatever the
//! d-cache's block size. Every executor must agree: the scalar processor,
//! the lane runner (whose i-side varies per lane), and the oracle.

use wpsdm::cache::{DCachePolicy, ICachePolicy, L1Config};
use wpsdm::cpu::{run_lane_batch, CpuConfig, LaneMember, Processor};
use wpsdm::oracle::OracleProcessor;
use wpsdm::workloads::{IterBlockSource, MicroOp, OpKind};

/// Bytes of straight-line code: 64 four-byte integer ops from `0x1000`.
const CODE_BYTES: u64 = 256;

fn straight_line() -> Vec<MicroOp> {
    (0..CODE_BYTES / 4)
        .map(|i| MicroOp::independent(0x1000 + 4 * i, OpKind::IntAlu))
        .collect()
}

fn l1(base: L1Config, block_bytes: usize) -> L1Config {
    L1Config {
        block_bytes,
        ..base
    }
}

#[test]
fn every_executor_fetches_one_icache_block_per_access() {
    let cpu = CpuConfig::default();
    let dpolicy = DCachePolicy::Parallel;
    let ipolicy = ICachePolicy::Parallel;
    for (i_block, d_block) in [(64, 16), (16, 64), (32, 32)] {
        let l1d = l1(L1Config::paper_dcache(), d_block);
        let l1i = l1(L1Config::paper_icache(), i_block);
        let context = format!("{i_block} B i-blocks, {d_block} B d-blocks");

        let scalar = Processor::with_l1(cpu, l1d, dpolicy, l1i, ipolicy)
            .expect("valid configuration")
            .run(straight_line());
        let oracle = OracleProcessor::with_l1(cpu, l1d, dpolicy, l1i, ipolicy)
            .expect("valid configuration")
            .run(straight_line());
        // The second lane fetches d-block-sized i-blocks, so a lane runner
        // that shared one fetch block across lanes would miscount one of
        // them whenever the two sizes differ.
        let members = [
            LaneMember {
                cpu,
                l1d,
                l1i,
                ipolicy,
            },
            LaneMember {
                cpu,
                l1d,
                l1i: l1(L1Config::paper_icache(), d_block),
                ipolicy,
            },
        ];
        let laned = run_lane_batch(
            dpolicy,
            &members,
            &mut IterBlockSource(straight_line().into_iter()),
        )
        .expect("valid batch");

        let expected = CODE_BYTES / i_block as u64;
        assert_eq!(scalar.icache.fetches, expected, "scalar, {context}");
        assert_eq!(oracle.icache.fetches, expected, "oracle, {context}");
        assert_eq!(laned[0].icache.fetches, expected, "lane 0, {context}");
        assert_eq!(
            laned[1].icache.fetches,
            CODE_BYTES / d_block as u64,
            "lane 1, {context}"
        );
    }
}
