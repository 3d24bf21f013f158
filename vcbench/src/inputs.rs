//! Seeded inputs: size-stratified corpora, the open-loop arrival trace
//! and the requests built from them. Everything here is a pure function
//! of the `--seed` value.

use vcsched_ir::Superblock;
use vcsched_service::{Request, ScheduleMode};
use vcsched_workload::{
    benchmarks, generate_block, live_in_placement, synthesize_trace, ArrivalProfile, InputSet,
    TraceEvent, TraceOptions,
};

/// Machine preset every workload schedules for (the paper's 2-cluster
/// machine).
pub const MACHINE: &str = "2c";

/// Number of block-size strata.
pub const STRATA: usize = 11;

/// Upper edges (inclusive, in instructions) of the block-size strata.
const SIZE_EDGES: [usize; STRATA] = [8, 12, 16, 24, 32, 40, 48, 56, 64, 80, usize::MAX];

/// Share of each size stratum, in parts per 10,000, among the blocks the
/// SpecInt95 and MediaBench generators emit: the mean over seeds 1–60 and
/// 424242 of a pool of [`POOL_PER_GENERATOR`] blocks per generator from
/// [`FIRST_INDEX`] on. Corpora keep these shares exactly (proportional
/// stratification), so every seed has the generators' own size mix, and
/// since VC's cost grows with block size, fixing the mix keeps the
/// seed-to-seed spread down.
const POOL_SHARE: [usize; STRATA] = [1199, 1577, 1822, 2511, 1356, 673, 365, 202, 112, 107, 76];

/// Blocks of the batch-cold corpus.
pub const BATCH_BLOCKS: usize = 1020;

/// Distinct blocks of serve-hot's request set.
pub const HOT_BLOCKS: usize = 416;

/// Blocks per size stratum of a `total`-block corpus: [`POOL_SHARE`] of
/// `total`, rounded by largest remainder so the quotas sum to `total`.
pub fn quota(total: usize) -> [usize; STRATA] {
    let parts: usize = POOL_SHARE.iter().sum();
    let mut quota = POOL_SHARE.map(|share| share * total / parts);
    let mut by_remainder: Vec<usize> = (0..quota.len()).collect();
    by_remainder.sort_by_key(|&k| std::cmp::Reverse(POOL_SHARE[k] * total % parts));
    let short = total - quota.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        quota[k] += 1;
    }
    quota
}

/// First block index drawn from each benchmark's corpus. Execution
/// weights fall Zipf-like with the index, so starting deep in the corpus
/// keeps the weights within a small factor of each other and no single
/// block dominates the weighted AWCT.
const FIRST_INDEX: u64 = 1000;

/// serve-online's request rate, per wall second. Each seed's trace is
/// stretched or squeezed to this mean rate over the run, so the offered
/// load (and the throughput it pins) does not drift from seed to seed;
/// the bursts within it still vary.
pub const ONLINE_RATE: f64 = 30.0;

/// serve-online's deadline scale: wall milliseconds per trace millisecond
/// of deadline slack.
pub const DEADLINE_SCALE: f64 = 0.1;

/// Arrivals per trace second (the trace generator's default density).
const TRACE_EVENTS_PER_S: f64 = 2.0;

/// Mean deadline slack of the trace, in trace milliseconds.
const TRACE_MEAN_SLACK_MS: u64 = 400;

/// The size stratum of a block of `len` instructions.
pub fn stratum(len: usize) -> usize {
    SIZE_EDGES
        .iter()
        .position(|&edge| len <= edge)
        .expect("the last edge is unbounded")
}

/// Blocks each generator contributes to the pool a corpus is drawn from.
/// Every seed generates the whole pool, so generation (set-up) work does
/// not depend on how soon the rare large strata fill.
const POOL_PER_GENERATOR: u64 = 600;

/// Draws a corpus with exactly `quota[k]` blocks in size stratum `k`: the
/// first blocks of each stratum met while generating a pool of
/// [`POOL_PER_GENERATOR`] blocks from each SpecInt95 and MediaBench
/// generator, round-robin from [`FIRST_INDEX`] on.
pub fn corpus(seed: u64, quota: &[usize; STRATA]) -> Result<Vec<Superblock>, String> {
    let specs = benchmarks();
    let mut left = *quota;
    let mut blocks = Vec::with_capacity(quota.iter().sum());
    for index in FIRST_INDEX..FIRST_INDEX + POOL_PER_GENERATOR {
        for spec in &specs {
            let block = generate_block(spec, seed, index, InputSet::Ref);
            let k = stratum(block.len());
            if left[k] > 0 {
                left[k] -= 1;
                blocks.push(block);
            }
        }
    }
    match left.iter().position(|&n| n > 0) {
        Some(k) => Err(format!(
            "seed {seed}: the generator pool is {} blocks short in size stratum {k}",
            left[k]
        )),
        None => Ok(blocks),
    }
}

/// Live-in placement seed of the `i`-th input of a run.
pub fn placement_seed(seed: u64, i: usize) -> u64 {
    seed.rotate_left(29) ^ 0x5EED_B10C ^ i as u64
}

/// The live-in placement the engine and the service derive from
/// [`placement_seed`]; the layer replays hand it to each policy.
pub fn homes(block: &Superblock, seed: u64, i: usize) -> Vec<vcsched_arch::ClusterId> {
    live_in_placement(block, machine().cluster_count(), placement_seed(seed, i))
}

/// One open-loop request of serve-online.
pub struct Arrival {
    pub event: TraceEvent,
    /// When it is due, from the start of the run.
    pub due: std::time::Duration,
    /// Its deadline slack, in wall milliseconds.
    pub deadline_ms: u64,
}

/// serve-online's requests for a run of `seconds` wall seconds: a seeded
/// `poisson-burst` trace of [`ONLINE_RATE`] × `seconds` events whose
/// arrival times are scaled to span the run, with blocks drawn from
/// [`FIRST_INDEX`] on.
pub fn arrivals(seed: u64, seconds: u64) -> Vec<Arrival> {
    let n = (ONLINE_RATE * seconds as f64).round().max(1.0) as usize;
    let events = synthesize_trace(&TraceOptions {
        profile: ArrivalProfile::PoissonBurst,
        events: n,
        seed,
        horizon_ms: (n as f64 / TRACE_EVENTS_PER_S * 1e3) as u64,
        mean_slack_ms: TRACE_MEAN_SLACK_MS,
    });
    // The last event falls due one mean gap before the run ends.
    let span_ms = events.last().map_or(1, |e| e.arrival_ms.max(1)) as f64;
    let scale = seconds as f64 * 1e3 * (1.0 - 1.0 / n as f64) / span_ms;
    events
        .into_iter()
        .map(|mut event| {
            event.index += FIRST_INDEX;
            Arrival {
                due: std::time::Duration::from_secs_f64(event.arrival_ms as f64 * scale / 1e3),
                deadline_ms: ((event.slack_ms() as f64 * DEADLINE_SCALE).round() as u64).max(1),
                event,
            }
        })
        .collect()
}

/// A full-portfolio `schedule` request for input `i` of a run.
pub fn schedule_request(
    block: &Superblock,
    seed: u64,
    i: usize,
    steps: u64,
    return_schedule: bool,
    deadline: Option<(u64, u8)>,
) -> Request {
    Request::Schedule {
        block: block.clone(),
        machine: MACHINE.to_owned(),
        policies: None,
        mode: Some(ScheduleMode::Portfolio),
        steps: Some(steps),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(placement_seed(seed, i)),
        return_schedule,
        deadline_ms: deadline.map(|(ms, _)| ms),
        priority: deadline.map(|(_, p)| p),
    }
}

/// The machine of [`MACHINE`].
pub fn machine() -> vcsched_arch::MachineConfig {
    vcsched_service::machine_by_name(MACHINE).expect("preset exists")
}
