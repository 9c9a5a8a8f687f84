//! The machines a verdict check runs on: a verdict is a function of the
//! program and its plan, so it must not move with the machine's latencies.

use spice_sim::MachineConfig;

/// At `threads` cores: the reduced test machine, the Table 1 machine, the
/// Table 1 machine with its inter-core latency raised from 16 to 64 cycles,
/// and the reduced machine with its inter-core latency raised from 4 to 256
/// and to 1024 cycles, so a released worker starts long after the main
/// thread has begun memoizing into the rows that worker was handed.
pub fn verdict_machines(threads: usize) -> [(&'static str, MachineConfig); 5] {
    let table1 = MachineConfig::itanium2_cmp();
    let slow = MachineConfig {
        inter_core_latency: 64,
        ..table1.clone()
    };
    let tiny_at = |inter_core_latency| MachineConfig {
        inter_core_latency,
        ..MachineConfig::test_tiny(threads)
    };
    [
        ("test_tiny", MachineConfig::test_tiny(threads)),
        ("itanium2_cmp", table1),
        ("itanium2_cmp at latency 64", slow),
        ("test_tiny at latency 256", tiny_at(256)),
        ("test_tiny at latency 1024", tiny_at(1024)),
    ]
}
