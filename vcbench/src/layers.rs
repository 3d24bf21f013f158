//! Per-layer timings, taken from outside each layer: the traced run
//! replays a workload's own inputs through each layer's public calls
//! inside spans, and turns the spans into per-layer numbers.

use std::sync::Arc;

use serde::Deserialize;

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_engine::{
    cache, schedule_block_with, solve_one, CacheEntry, PolicyBudget, PolicyFallback, PolicyOptions,
    PolicyRegistry, PolicySet, ScheduleCache, SubmitPool, STEPS_1S,
};
use vcsched_ir::Superblock;
use vcsched_service::protocol::{request_line, request_value, response_line, response_value};
use vcsched_service::{frame, serve, Client, Request, Response, ServiceConfig};

use crate::spans::Tracer;
use crate::stats::{median, share};
use crate::Metric;

/// Every per-layer metric, in `BENCHMARK.json` order. A workload leaves
/// at 0 what its inputs never exercise (e.g. shedding in batch-cold).
#[derive(Debug, Default)]
pub struct Layers {
    pub vc_ms_per_block: f64,
    pub vc_steps_per_block: f64,
    pub vc_ns_per_step_small: f64,
    pub vc_ns_per_step_large: f64,
    pub vc_exhausted_share: f64,
    pub cars_us_per_block: f64,
    pub uas_us_per_block: f64,
    pub two_phase_us_per_block: f64,
    pub validate_us: f64,
    pub race_overhead_us: f64,
    pub solve_hit_us: f64,
    pub cache_get_us: f64,
    pub pool_rtt_us: f64,
    pub json_decode_us: f64,
    pub frame_decode_us: f64,
    pub encode_us: f64,
    pub allocs_per_request: f64,
    pub ping_rtt_us: f64,
    pub shed_share: f64,
    pub deadline_fired_share: f64,
    pub gen_late_ms_p90: f64,
    pub gen_ms: f64,
    pub trace_overhead_share: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("core.vc_ms_per_block", self.vc_ms_per_block, "ms"),
            Metric::new("core.vc_steps_per_block", self.vc_steps_per_block, "steps"),
            Metric::new("core.vc_ns_per_step.small", self.vc_ns_per_step_small, "ns"),
            Metric::new("core.vc_ns_per_step.large", self.vc_ns_per_step_large, "ns"),
            Metric::new("core.vc_exhausted_share", self.vc_exhausted_share, "share"),
            Metric::new("cars.us_per_block", self.cars_us_per_block, "us"),
            Metric::new("baselines.uas_us_per_block", self.uas_us_per_block, "us"),
            Metric::new(
                "baselines.two_phase_us_per_block",
                self.two_phase_us_per_block,
                "us",
            ),
            Metric::new("sim.validate_us", self.validate_us, "us"),
            Metric::new("engine.race_overhead_us", self.race_overhead_us, "us"),
            Metric::new("engine.solve_hit_us", self.solve_hit_us, "us"),
            Metric::new("engine.cache_get_us", self.cache_get_us, "us"),
            Metric::new("engine.pool_rtt_us", self.pool_rtt_us, "us"),
            Metric::new("service.json_decode_us", self.json_decode_us, "us"),
            Metric::new("service.frame_decode_us", self.frame_decode_us, "us"),
            Metric::new("service.encode_us", self.encode_us, "us"),
            Metric::new(
                "service.allocs_per_request",
                self.allocs_per_request,
                "count",
            ),
            Metric::new("service.ping_rtt_us", self.ping_rtt_us, "us"),
            Metric::new("service.shed_share", self.shed_share, "share"),
            Metric::new(
                "engine.deadline_fired_share",
                self.deadline_fired_share,
                "share",
            ),
            Metric::new("gen.late_ms_p90", self.gen_late_ms_p90, "ms"),
            Metric::new("workload.gen_ms", self.gen_ms, "ms"),
            Metric::new(
                "bench.trace_overhead_share",
                self.trace_overhead_share,
                "share",
            ),
        ]
    }
}

/// One block to replay through the solver layers, with the live-in
/// placement and VC step budget its workload used.
pub struct Replay<'a> {
    pub block: &'a Superblock,
    pub homes: Vec<ClusterId>,
    pub steps: u64,
}

/// Repeats of each cheap call, so each timing is a median of several.
const PROBE_REPEATS: usize = 5;
/// Round trips timed for the pool and ping probes.
const RTT_PROBES: usize = 200;
/// Inputs the engine and service probes use at most (evenly spread).
pub const PROBE_INPUTS: usize = 32;

fn us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Up to `n` items spread evenly over `items`.
fn spread<T>(items: &[T], n: usize) -> impl Iterator<Item = (usize, &T)> {
    let step = items.len().div_ceil(n.max(1)).max(1);
    items.iter().enumerate().step_by(step)
}

/// Replays each block through the full race and through every portfolio
/// policy solo, validating each schedule. Returns the number of replays
/// whose race result failed validation.
pub fn replay_solvers(
    tracer: &Tracer,
    machine: &MachineConfig,
    items: &[Replay<'_>],
    layers: &mut Layers,
) -> u64 {
    let registry = PolicyRegistry::builtin();
    let mut failed = 0;
    let (mut steps, mut exhausted) = (0u64, 0u64);
    // (VC nanoseconds, VC steps) for small and large blocks.
    let (mut small, mut large) = ((0.0f64, 0u64), (0.0f64, 0u64));
    let mut race_overhead_ns = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let request = i as u64;
        let root = tracer.open("replay", None, request);
        let options = PolicyOptions {
            max_dp_steps: item.steps,
            policies: PolicySet::full(),
            ..PolicyOptions::default()
        };
        let race_start = std::time::Instant::now();
        let race = tracer.time("engine.race", Some(root), request, || {
            schedule_block_with(registry, item.block, machine, &item.homes, &options)
        });
        let race_ns = race_start.elapsed().as_nanos() as f64;
        if vcsched_sim::validate(item.block, machine, &race.schedule).is_err() {
            failed += 1;
        }
        // The race runs its single-pass policies side by side on scoped
        // threads, then the exhaustive ones (VC) on its own thread, so
        // its share of the solo times is the slowest single-pass policy
        // plus the exhaustive ones.
        let (mut single_pass_ns, mut exhaustive_ns) = (0.0f64, 0.0f64);
        for name in PolicySet::full().names() {
            let span = match name.as_str() {
                "vc" => "core.vc",
                "cars" => "cars.schedule",
                "uas" => "baselines.uas",
                _ => "baselines.two_phase",
            };
            let start = std::time::Instant::now();
            let (policy, outcome) = tracer.time(span, Some(root), request, || {
                let policy = registry
                    .create(name)
                    .expect("portfolio members are built in");
                let budget = PolicyBudget::steps(item.steps);
                let outcome = policy.schedule(item.block, machine, &item.homes, &budget);
                (policy, outcome)
            });
            let ns = start.elapsed().as_nanos() as f64;
            if policy.exhaustive() {
                exhaustive_ns += ns;
            } else {
                single_pass_ns = single_pass_ns.max(ns);
            }
            if name == "vc" {
                steps += outcome.steps;
                if matches!(
                    outcome.fallback,
                    PolicyFallback::Budget | PolicyFallback::Deadline
                ) {
                    exhausted += 1;
                }
                let len = item.block.len();
                if len <= 32 {
                    small = (small.0 + ns, small.1 + outcome.steps);
                } else if len >= 64 {
                    large = (large.0 + ns, large.1 + outcome.steps);
                }
            }
            if let Some(schedule) = &outcome.schedule {
                // A solo candidate may be invalid (the race drops those);
                // only its validation cost is of interest here.
                let _ = tracer.time("sim.validate", Some(root), request, || {
                    vcsched_sim::validate(item.block, machine, schedule)
                });
            }
        }
        race_overhead_ns.push(race_ns - single_pass_ns - exhaustive_ns);
        tracer.close(root);
    }
    let n = items.len().max(1) as f64;
    let per_step = |(ns, steps): (f64, u64)| if steps == 0 { 0.0 } else { ns / steps as f64 };
    layers.vc_ms_per_block = mean(&tracer.self_ns("core.vc")) / 1e6;
    layers.vc_steps_per_block = steps as f64 / n;
    layers.vc_ns_per_step_small = per_step(small);
    layers.vc_ns_per_step_large = per_step(large);
    layers.vc_exhausted_share = share(exhausted, items.len() as u64);
    layers.cars_us_per_block = mean(&tracer.self_ns("cars.schedule")) / 1e3;
    layers.uas_us_per_block = mean(&tracer.self_ns("baselines.uas")) / 1e3;
    layers.two_phase_us_per_block = mean(&tracer.self_ns("baselines.two_phase")) / 1e3;
    layers.validate_us = mean(&tracer.self_ns("sim.validate")) / 1e3;
    layers.race_overhead_us = mean(&race_overhead_ns) / 1e3;
    failed
}

/// Times the engine's cache-hit path and a bare cache lookup on up to
/// [`PROBE_INPUTS`] of `items`, and an idle pool round trip. Returns the
/// number of failed checks.
pub fn probe_engine(
    tracer: &Tracer,
    machine: &MachineConfig,
    items: &[Replay<'_>],
    layers: &mut Layers,
) -> u64 {
    let mut failed = 0;
    let options = PolicyOptions {
        max_dp_steps: STEPS_1S,
        policies: PolicySet::full(),
        ..PolicyOptions::default()
    };
    let solved = ScheduleCache::in_memory(1 << 12);
    let bare = ScheduleCache::in_memory(1 << 12);
    for (i, item) in spread(items, PROBE_INPUTS) {
        let request = i as u64;
        let (outcome, _) = solve_one(item.block, machine, &item.homes, &options, &solved);
        for _ in 0..PROBE_REPEATS {
            let (hit, cached) = tracer.time("engine.solve_hit", None, request, || {
                solve_one(item.block, machine, &item.homes, &options, &solved)
            });
            if !cached || hit != outcome {
                failed += 1;
            }
        }
        let tag = format!("{}#{i}", item.block.name());
        let (key, check) = (
            cache::fnv1a(tag.as_bytes()),
            cache::fnv1a_check(tag.as_bytes()),
        );
        bare.put(
            key,
            CacheEntry {
                key: format!("{key:016x}"),
                check: format!("{check:016x}"),
                winner: outcome.winner.clone(),
                awct: outcome.awct,
                vc_steps: outcome.vc_steps,
                vc_timed_out: outcome.vc_timed_out,
                schedule: outcome.schedule.clone(),
                stats: outcome.policy_stats.clone(),
            },
        );
        for _ in 0..PROBE_REPEATS {
            let entry = tracer.time("engine.cache_get", None, request, || bare.get(key, check));
            if entry.is_none_or(|e| e.awct.to_bits() != outcome.awct.to_bits()) {
                failed += 1;
            }
        }
    }
    layers.solve_hit_us = us(&tracer.self_ns("engine.solve_hit"));
    layers.cache_get_us = us(&tracer.self_ns("engine.cache_get"));

    let pool = SubmitPool::new(1, 64, Arc::new(ScheduleCache::in_memory(16)));
    for i in 0..RTT_PROBES {
        let answered = tracer.time("engine.pool_probe", None, i as u64, || {
            pool.probe(0).map_err(|e| format!("{e:?}"))?.wait()
        });
        failed += u64::from(answered.is_err());
    }
    pool.shutdown();
    layers.pool_rtt_us = us(&tracer.self_ns("engine.pool_probe"));
    failed
}

/// Times both wire decoders and the reply encoders on up to
/// [`PROBE_INPUTS`] of a workload's own requests and replies, counts
/// decode allocations, and times a ping round trip on an idle server.
/// Returns the number of failed checks.
pub fn probe_service(
    tracer: &Tracer,
    requests: &[Request],
    replies: &[Response],
    layers: &mut Layers,
) -> Result<u64, String> {
    let mut failed = 0;
    let mut allocs = 0u64;
    let mut probed = 0;
    for (i, request) in spread(requests, PROBE_INPUTS) {
        probed += 1;
        let id = i as u64;
        let line = request_line(request, None)?;
        let bytes = frame::encode_frame(&request_value(request, None));
        let json = |line: &str| serde_json::from_str::<Request>(line).map_err(|e| e.to_string());
        let binary = |bytes: &[u8]| {
            let (value, _) = frame::decode_frame(bytes, usize::MAX)?
                .ok_or_else(|| "truncated frame".to_owned())?;
            Request::from_value(&value).map_err(|e| e.to_string())
        };
        let before = crate::alloc::thread_allocs();
        let decoded = json(&line);
        let framed = binary(&bytes);
        allocs += crate::alloc::thread_allocs() - before;
        if decoded.as_ref() != Ok(request) || framed.as_ref() != Ok(request) {
            failed += 1;
        }
        for _ in 0..PROBE_REPEATS {
            let _ = tracer.time("service.json_decode", None, id, || json(&line));
            let _ = tracer.time("service.frame_decode", None, id, || binary(&bytes));
        }
    }
    for (i, reply) in spread(replies, PROBE_INPUTS) {
        for _ in 0..PROBE_REPEATS {
            tracer.time("service.encode", None, i as u64, || {
                (
                    response_line(reply, None),
                    frame::encode_frame(&response_value(reply, None)),
                )
            });
        }
    }
    layers.json_decode_us = us(&tracer.self_ns("service.json_decode"));
    layers.frame_decode_us = us(&tracer.self_ns("service.frame_decode"));
    layers.encode_us = us(&tracer.self_ns("service.encode"));
    // Each request is decoded once per wire.
    layers.allocs_per_request = allocs as f64 / (2 * probed).max(1) as f64;

    let server = serve(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    })?;
    let mut client = Client::connect(server.addr())?;
    for i in 0..RTT_PROBES {
        let pong = tracer.time("service.ping", None, i as u64, || {
            client.request(&Request::Ping {
                delay_ms: 0,
                priority: None,
            })
        });
        failed += u64::from(!matches!(pong, Ok(Response::Pong { .. })));
    }
    server.shutdown();
    server.join();
    layers.ping_rtt_us = us(&tracer.self_ns("service.ping"));
    Ok(failed)
}
