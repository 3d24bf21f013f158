//! `batch-cold`: the paper's offline compile scenario.
//!
//! A seeded, size-stratified corpus is compiled block by block through
//! `run_batch_with_cache` (full portfolio, one job) on a fresh in-memory
//! cache per pass, so every block is a miss. VC gets the paper's "1 s"
//! budget (`STEPS_1S`): under the "1 min" budget a pass of a corpus large
//! enough to hold the seed-to-seed spread down would take minutes (see
//! README.md). Passes repeat while the run's time allows, each after a
//! set-up of its own, so set-ups are spread over the run like the passes;
//! each block's latency is its median over the passes.

use std::time::{Duration, Instant};

use vcsched_engine::{run_batch_with_cache, BatchConfig, BatchResult, PolicySet, ScheduleCache};
use vcsched_engine::{BlockOutcome, STEPS_1S};
use vcsched_ir::Superblock;
use vcsched_service::{Response, ScheduleReply};

use crate::checks::{schedule_ok, weighted_awct};
use crate::layers::{self, Layers, Replay};
use crate::spans::Tracer;
use crate::stats::{median, quantile, share};
use crate::{inputs, EndToEnd, Run, LIMIT_MS, MIB};

struct Pass {
    latency_ms: Vec<f64>,
    /// Peak live heap above the level at the block's start.
    heap_bytes: Vec<usize>,
    outcomes: Vec<Option<BlockOutcome>>,
}

impl Pass {
    fn new(blocks: usize) -> Pass {
        Pass {
            latency_ms: Vec::with_capacity(blocks),
            heap_bytes: Vec::with_capacity(blocks),
            outcomes: Vec::with_capacity(blocks),
        }
    }
}

/// Compiles block `i` as a one-block batch and appends the result to `pass`.
fn compile(
    config: &BatchConfig,
    seed: u64,
    i: usize,
    block: &Superblock,
    cache: &ScheduleCache,
    tracer: Option<&Tracer>,
    pass: &mut Pass,
) {
    // The engine seeds block `i` of a batch with `placement_seed ^ i`; a
    // one-block batch is block 0, so its seed is set directly.
    let config = BatchConfig {
        placement_seed: inputs::placement_seed(seed, i),
        ..config.clone()
    };
    let base = crate::alloc::live_bytes();
    crate::alloc::reset_peak();
    let start = Instant::now();
    let result = run_batch_with_cache(&config, std::slice::from_ref(block), cache, start);
    let end = Instant::now();
    if let Some(tracer) = tracer {
        tracer.record("engine.run_batch", start, end, None, i as u64);
    }
    pass.latency_ms.push((end - start).as_secs_f64() * 1e3);
    pass.heap_bytes
        .push(crate::alloc::peak_bytes().saturating_sub(base));
    pass.outcomes.push(result.ok().and_then(
        |BatchResult {
             lines, outcomes, ..
         }| {
            let cold = lines.len() == 1 && !lines[0].cached;
            outcomes.into_iter().next().filter(|_| cold)
        },
    ));
}

/// Set-up: generates the corpus and appends the time it took to
/// `setup_s`. A repeat must return the `first` corpus again.
fn set_up(
    seed: u64,
    setup_s: &mut Vec<f64>,
    first: Option<&[Superblock]>,
) -> Result<Vec<Superblock>, String> {
    let start = Instant::now();
    let corpus = inputs::corpus(seed, &inputs::quota(inputs::BATCH_BLOCKS))?;
    setup_s.push(start.elapsed().as_secs_f64());
    match first {
        Some(first) if corpus != first => Err("corpus generation is not deterministic".to_owned()),
        _ => Ok(corpus),
    }
}

/// `peak_heap_mb`: the mean over the size strata of the median per-block
/// peak heap growth in each. Each stratum counts alike, so the largest
/// blocks, whose VC trail is what grows, weigh as much as the many small
/// ones; medians within a stratum keep the trail vector's power-of-two
/// jumps on single blocks from swinging the figure between seeds (see
/// README.md).
fn heap_by_size(blocks: &[Superblock], heap_bytes: &[usize]) -> f64 {
    let mut strata = vec![Vec::new(); inputs::STRATA];
    for (block, &bytes) in blocks.iter().zip(heap_bytes) {
        strata[inputs::stratum(block.len())].push(bytes as f64 / MIB);
    }
    strata.iter().map(|s| median(s)).sum::<f64>() / strata.len() as f64
}

fn fresh_cache(blocks: &[Superblock]) -> ScheduleCache {
    ScheduleCache::in_memory(2 * blocks.len().max(1))
}

/// Compiles every block once on a fresh cache.
fn pass(config: &BatchConfig, seed: u64, blocks: &[Superblock]) -> Pass {
    let cache = fresh_cache(blocks);
    let mut pass = Pass::new(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        compile(config, seed, i, block, &cache, None, &mut pass);
    }
    pass
}

/// Compiles every block twice, untraced and traced, on two fresh caches,
/// alternating which goes first; pairing per block keeps host speed
/// drift out of the tracing overhead.
fn paired_pass(
    config: &BatchConfig,
    seed: u64,
    blocks: &[Superblock],
    tracer: &Tracer,
) -> [Pass; 2] {
    let caches = [fresh_cache(blocks), fresh_cache(blocks)];
    let mut passes = [Pass::new(blocks.len()), Pass::new(blocks.len())];
    for (i, block) in blocks.iter().enumerate() {
        for k in [i % 2, 1 - i % 2] {
            let traced = (k == 1).then_some(tracer);
            compile(config, seed, i, block, &caches[k], traced, &mut passes[k]);
        }
    }
    passes
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Result<Run, String> {
    let machine = inputs::machine();
    let mut setup_s = Vec::new();
    let blocks = set_up(seed, &mut setup_s, None)?;
    let config = BatchConfig {
        machine: machine.clone(),
        jobs: 1,
        policies: PolicySet::full(),
        max_dp_steps: STEPS_1S,
        ..BatchConfig::default()
    };

    // Passes repeat while the run's time allows another one; a traced run
    // makes one untraced and one traced pass, paired block by block.
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes = match tracer {
        Some(tracer) => paired_pass(&config, seed, &blocks, tracer).into(),
        None => vec![pass(&config, seed, &blocks)],
    };
    if tracer.is_none() {
        let longest = |passes: &[Pass]| {
            passes
                .iter()
                .map(|p| Duration::from_secs_f64(p.latency_ms.iter().sum::<f64>() / 1e3))
                .max()
                .unwrap_or_default()
        };
        while start.elapsed() + longest(&passes) <= budget {
            set_up(seed, &mut setup_s, Some(&blocks))?;
            passes.push(pass(&config, seed, &blocks));
        }
    }

    // Checks: every schedule re-validates, and every pass returns the
    // first pass's answer for each block.
    let (mut attempted, mut failed, mut ontime) = (0u64, 0u64, 0u64);
    let mut block_ms = vec![Vec::new(); blocks.len()];
    for p in &passes {
        for (i, (outcome, &ms)) in p.outcomes.iter().zip(&p.latency_ms).enumerate() {
            attempted += 1;
            let reference = passes[0].outcomes[i].as_ref();
            let ok = outcome.as_ref().is_some_and(|o| {
                schedule_ok(&machine, &blocks[i], &o.schedule, o.awct)
                    && reference.is_some_and(|r| r.winner == o.winner && r.awct == o.awct)
            });
            if ok {
                block_ms[i].push(ms);
                ontime += u64::from(ms <= LIMIT_MS);
            } else {
                failed += 1;
            }
        }
    }
    let per_block_ms: Vec<f64> = block_ms.iter().map(|v| median(v)).collect();
    let answers: Vec<&BlockOutcome> = passes[0].outcomes.iter().flatten().collect();
    let end_to_end = EndToEnd {
        throughput_per_s: blocks.len() as f64 / (per_block_ms.iter().sum::<f64>() / 1e3),
        p50_ms: quantile(&per_block_ms, 0.5),
        p90_ms: quantile(&per_block_ms, 0.9),
        ontime_share: share(ontime, attempted),
        ok_share: share(attempted - failed, attempted),
        awct_cycles: weighted_awct(
            blocks
                .iter()
                .zip(&passes[0].outcomes)
                .filter_map(|(block, o)| Some((block, o.as_ref()?.awct))),
        ),
        vc_decided_share: share(
            answers.iter().filter(|o| !o.vc_timed_out).count() as u64,
            blocks.len() as u64,
        ),
        peak_heap_mb: heap_by_size(&blocks, &passes[0].heap_bytes),
        setup_s: median(&setup_s),
    };

    let mut layers = Layers {
        gen_ms: median(&setup_s) * 1e3,
        ..Layers::default()
    };
    if let Some(tracer) = tracer {
        let total = |p: &Pass| p.latency_ms.iter().sum::<f64>();
        layers.trace_overhead_share = total(&passes[1]) / total(&passes[0]) - 1.0;
        let items: Vec<Replay<'_>> = blocks
            .iter()
            .enumerate()
            .map(|(i, block)| Replay {
                block,
                homes: inputs::homes(block, seed, i),
                steps: STEPS_1S,
            })
            .collect();
        failed += layers::replay_solvers(tracer, &machine, &items, &mut layers);
        failed += layers::probe_engine(tracer, &machine, &items, &mut layers);
        let (requests, replies): (Vec<_>, Vec<_>) = blocks
            .iter()
            .enumerate()
            .filter_map(|(i, block)| {
                let o = passes[0].outcomes[i].as_ref()?;
                let request = inputs::schedule_request(block, seed, i, STEPS_1S, false, None);
                Some((request, reply_of(o)))
            })
            .unzip();
        failed += layers::probe_service(tracer, &requests, &replies, &mut layers)?;
    }
    Ok(Run {
        attempted,
        failed,
        end_to_end,
        layers,
    })
}

/// The `schedule` reply the service would send for `outcome` (cold,
/// without the schedule body).
fn reply_of(outcome: &BlockOutcome) -> Response {
    Response::Schedule(ScheduleReply {
        winner: outcome.winner.clone(),
        awct: outcome.awct,
        vc_steps: outcome.vc_steps,
        vc_timed_out: outcome.vc_timed_out,
        cached: false,
        copies: outcome.schedule.copy_count(),
        policies: outcome.policy_stats.clone(),
        schedule: None,
        deadline_fired: outcome.deadline_fired(),
    })
}
