//! Reproduces the §2 comparison (Figures 2, 3 and 5): execution schedules and
//! expected speedups of TLS, TLS with value prediction, and Spice.
fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cmp = spice_bench::experiments::schedules(small).expect("schedules");
    println!("Section 2 timing model for the otter loop (measured on the simulator):");
    println!(
        "  t1 (synchronized traversal) = {:.1} cycles/iteration",
        cmp.model.t1
    );
    println!(
        "  t2 (remaining computation)  = {:.1} cycles/iteration",
        cmp.model.t2
    );
    println!("  t3 (inter-core forwarding)  = {:.1} cycles", cmp.model.t3);
    println!();
    for (kind, rows) in &cmp.schedules {
        let title = match kind {
            spice_core::baseline::ScheduleKind::Tls => "Figure 2 — TLS (no value speculation)",
            spice_core::baseline::ScheduleKind::TlsValuePrediction => {
                "Figure 3 — TLS with value prediction"
            }
            spice_core::baseline::ScheduleKind::Spice => "Figure 5 — Spice (chunked execution)",
        };
        println!("{title}");
        for r in rows {
            println!("  {r}");
        }
        println!();
    }
    println!("Expected / measured speedups (2 threads):");
    println!("  TLS (no value speculation): {:.2}x", cmp.tls_speedup);
    println!(
        "  TLS + stride value prediction (accuracy {:.1}%): {:.2}x",
        cmp.stride_accuracy * 100.0,
        cmp.tls_vp_speedup
    );
    println!(
        "  Spice expected (boundary survival {:.1}%): {:.2}x",
        cmp.spice_survival * 100.0,
        cmp.spice_expected_speedup
    );
    println!(
        "  Spice measured on the simulator: {:.2}x",
        cmp.spice_measured_speedup
    );
}
