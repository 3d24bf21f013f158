//! Output checks and the paper's quality aggregate, shared by the workloads.

use vcsched_arch::MachineConfig;
use vcsched_ir::{Schedule, Superblock};

/// `a` and `b` agree to floating-point noise.
fn same_awct(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

/// Re-validates a returned schedule with the simulator and recomputes its
/// AWCT from the schedule; both must match the reported `awct`.
pub fn schedule_ok(
    machine: &MachineConfig,
    block: &Superblock,
    schedule: &Schedule,
    awct: f64,
) -> bool {
    vcsched_sim::validate(block, machine, schedule)
        .is_ok_and(|report| same_awct(report.awct, awct) && same_awct(schedule.awct(block), awct))
}

/// The paper's quality metric: weighted mean AWCT `Σ AWCT·T / Σ T` over
/// `(block, AWCT)` pairs.
pub fn weighted_awct<'a>(answers: impl IntoIterator<Item = (&'a Superblock, f64)>) -> f64 {
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (block, awct) in answers {
        weighted += awct * block.weight() as f64;
        weight += block.weight() as f64;
    }
    weighted / weight
}
