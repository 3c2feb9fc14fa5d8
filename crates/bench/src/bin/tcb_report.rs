//! Reproduces the §V trusted-computing-base accounting: lines of code inside vs outside
//! the enclave, and the reduction achieved by partitioning instead of a libOS approach.

use plinius_bench::tcb_report;
use std::path::PathBuf;

fn main() {
    // The accounting has no scale knob; parsing still validates the command line.
    plinius_bench::cli::init(0);
    let crates_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let report = tcb_report(&crates_dir);
    println!("TCB accounting (non-empty lines of Rust)");
    println!("  Trusted (in-enclave) components:");
    for (name, loc) in &report.trusted {
        println!("    {:<12} {:>8}", name, loc);
    }
    println!("  Untrusted components:");
    for (name, loc) in &report.untrusted {
        println!("    {:<12} {:>8}", name, loc);
    }
    println!("  total trusted LoC:   {:>8}", report.trusted_loc());
    println!("  total untrusted LoC: {:>8}", report.untrusted_loc());
    println!(
        "  TCB reduction vs running everything inside the enclave: {:.1}%",
        report.tcb_reduction_pct()
    );
}
