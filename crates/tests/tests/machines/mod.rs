//! The machines a verdict check runs on: a verdict is a function of the
//! program and its plan, so it must not move with the machine's latencies.

use spice_sim::MachineConfig;

/// At `threads` cores: the reduced test machine, the Table 1 machine, and
/// the Table 1 machine with its inter-core latency raised from 16 to 64
/// cycles.
pub fn verdict_machines(threads: usize) -> [(&'static str, MachineConfig); 3] {
    let table1 = MachineConfig::itanium2_cmp();
    let slow = MachineConfig {
        inter_core_latency: 64,
        ..table1.clone()
    };
    [
        ("test_tiny", MachineConfig::test_tiny(threads)),
        ("itanium2_cmp", table1),
        ("itanium2_cmp at latency 64", slow),
    ]
}
