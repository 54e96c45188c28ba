//! A miniature variability study: the paper's campaign in one command.
//!
//! Builds the quick-scale campaign context and prints the core exhibits:
//! the CoV-by-type tables (who varies, and how much), the normality
//! census (how often "mean +/- t-interval" would have been wrong), and
//! the CONFIRM repetition summary.
//!
//! Run with: `cargo run --release --example variability_study`

use taming_variability::analysis::experiments::cov::overall_cov;
use taming_variability::analysis::{find, Context, Scale};
use taming_variability::workloads::BenchmarkId;

fn main() {
    println!("building the quick-scale campaign ...\n");
    let ctx = Context::new(Scale::Quick, 7);
    println!(
        "fleet: {} machines across {} types; dataset: {} measurements\n",
        ctx.cluster.machines().len(),
        ctx.cluster.types().len(),
        ctx.records_len()
    );

    // The cross-family headline: disks dwarf everything else.
    println!("median within-machine CoV by subsystem family:");
    for bench in [
        BenchmarkId::MemTriad,
        BenchmarkId::MemLatency,
        BenchmarkId::DiskSeqRead,
        BenchmarkId::DiskRandRead,
        BenchmarkId::NetLatency,
        BenchmarkId::NetBandwidth,
    ] {
        println!(
            "  {:16} {:6.2} %",
            bench.label(),
            overall_cov(&ctx, bench) * 100.0
        );
    }
    println!();

    // The full disk table (F4), the normality census (F6), and the
    // repetition summary (T4).
    for id in ["F4", "F6", "T4"] {
        let experiment = find(id).expect("registered experiment");
        for artifact in experiment
            .run(&ctx)
            .unwrap_or_else(|e| panic!("{id} runs on the quick campaign: {e}"))
        {
            println!("{}", artifact.render());
        }
    }

    println!(
        "reading guide: HDD types dominate every variability column; most latency \
         and disk sample sets fail Shapiro-Wilk; and the repetition counts a +/-1% \
         result needs range from 10 (network bandwidth) to more than the whole pool \
         (random disk I/O)."
    );
}
