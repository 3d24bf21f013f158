//! The two service workloads, both against an in-process `serve`.
//!
//! * `serve-hot`: a closed loop of cache-hot `schedule` requests on two
//!   connections, one newline-JSON and one binary `vcsched-frame/v1`,
//!   each with its own client thread and one request outstanding. On
//!   the hit path decode, cache key and reactor hand-off are all the
//!   work; one connection per wire shows a gain on one wire that costs
//!   the other.
//! * `serve-online`: an open loop driven by a seeded `poisson-burst`
//!   trace against a cold cache: each event is sent at its time-scaled
//!   due time with its own deadline and priority, by one sender thread,
//!   while one reader thread collects the pipelined (id'd) replies.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::{Deserialize, Value};
use vcsched_arch::MachineConfig;
use vcsched_engine::{PolicyFallback, STEPS_1M, STEPS_1S};
use vcsched_ir::Superblock;
use vcsched_service::protocol::{envelope_id, request_line};
use vcsched_service::{
    serve, Client, Request, Response, ScheduleReply, ServerHandle, ServiceConfig,
};

use crate::checks::{schedule_ok, weighted_awct};
use crate::layers::{self, Layers, Replay, PROBE_INPUTS};
use crate::spans::Tracer;
use crate::stats::{median, quantile, share};
use crate::{inputs, EndToEnd, Run, LIMIT_MS, MIB, QUICK_SETUP_REPEATS, SETUP_REPEATS};

/// serve-hot's throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_secs(1);

/// How long serve-online waits for outstanding replies after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn start_server(jobs: usize) -> Result<ServerHandle, String> {
    serve(ServiceConfig {
        jobs,
        ..ServiceConfig::default()
    })
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// Checks a reply's schedule body (see [`schedule_ok`]).
fn reply_ok(machine: &MachineConfig, block: &Superblock, reply: &ScheduleReply) -> bool {
    reply
        .schedule
        .as_ref()
        .is_some_and(|s| schedule_ok(machine, block, s, reply.awct))
}

fn vc_decided(reply: &ScheduleReply) -> bool {
    reply
        .policies
        .iter()
        .any(|s| s.policy == "vc" && s.fallback == PolicyFallback::None)
}

/// serve-hot's distinct requests and the answers the warm-up checked.
struct HotSet {
    requests: Vec<Request>,
    /// `requests` as JSON lines, built once so the JSON client sends bytes.
    lines: Vec<String>,
    answers: Vec<ScheduleReply>,
}

/// One client thread's closed-loop results.
struct Loop {
    /// Completion instant, latency (ms) and whether the reply matched.
    samples: Vec<(Instant, f64, bool)>,
    shed: u64,
}

/// Sample slots reserved per second of a phase, before it starts, so the
/// benchmark's own bookkeeping does not show in the phase's peak heap.
const SAMPLES_PER_S: usize = 10_000;

/// Sends requests round-robin from `offset` on one connection, one at a
/// time, from `from` until `until`; each reply must equal the block's
/// warm-up answer. With a tracer, requests started in odd windows are
/// traced and those in even windows are not.
fn closed_loop(
    mut client: Client,
    set: &HotSet,
    offset: usize,
    (from, until): (Instant, Instant),
    mut out: Loop,
    tracer: Option<&Tracer>,
) -> Result<Loop, String> {
    let mut i = offset;
    while Instant::now() < until {
        let k = i % set.requests.len();
        let start = Instant::now();
        if client.is_binary() {
            client.send(&set.requests[k], None)?;
        } else {
            client.send_raw(&set.lines[k])?;
        }
        let (_, response) = client.recv()?;
        let end = Instant::now();
        if let Some(tracer) = tracer.filter(|_| window_of(from, start) % 2 == 1) {
            tracer.record("service.schedule", start, end, None, k as u64);
        }
        let answer = &set.answers[k];
        let ok = matches!(&response, Response::Schedule(r)
            if r.cached && r.winner == answer.winner && r.awct.to_bits() == answer.awct.to_bits());
        if let Response::Error {
            retry_after_ms: Some(_),
            ..
        } = response
        {
            out.shed += 1;
        }
        out.samples
            .push((end, (end - start).as_secs_f64() * 1e3, ok));
        i += 1;
    }
    Ok(out)
}

/// Runs the JSON and the binary connection side by side for `length`.
/// Returns the phase start, both loops' results and the peak heap (MiB)
/// above the level the phase started at.
fn hot_phase(
    server: &ServerHandle,
    set: &HotSet,
    length: Duration,
    tracer: Option<&Tracer>,
) -> Result<(Instant, Vec<Loop>, f64), String> {
    let reserve = || Loop {
        samples: Vec::with_capacity(SAMPLES_PER_S * length.as_secs().max(1) as usize),
        shed: 0,
    };
    let (json_out, binary_out) = (reserve(), reserve());
    let heap_base = crate::alloc::live_bytes();
    crate::alloc::reset_peak();
    let json = Client::connect(server.addr())?;
    let binary = Client::connect_binary(server.addr())?;
    let start = Instant::now();
    let until = start + length;
    let half = set.requests.len() / 2;
    let loops = std::thread::scope(|s| {
        let a = s.spawn(|| closed_loop(json, set, 0, (start, until), json_out, tracer));
        let b = s.spawn(|| closed_loop(binary, set, half, (start, until), binary_out, tracer));
        [a.join(), b.join()]
    });
    let peak_heap_mb = crate::alloc::peak_bytes().saturating_sub(heap_base) as f64 / MIB;
    let loops = loops
        .into_iter()
        .map(|r| r.map_err(|_| "client thread panicked".to_owned())?)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((start, loops, peak_heap_mb))
}

fn window_of(start: Instant, at: Instant) -> usize {
    ((at - start).as_secs_f64() / WINDOW.as_secs_f64()) as usize
}

/// Replies per second, and the latencies of the ok replies, in each whole
/// window of the phase.
fn windows(start: Instant, length: Duration, loops: &[Loop]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = (length.as_secs_f64() / WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut counts = vec![0u64; n];
    let mut latency = vec![Vec::new(); n];
    for (at, ms, ok) in loops.iter().flat_map(|l| &l.samples) {
        let w = window_of(start, *at);
        if w < n {
            counts[w] += 1;
            if *ok {
                latency[w].push(*ms);
            }
        }
    }
    let rates = counts
        .iter()
        .map(|&c| c as f64 / WINDOW.as_secs_f64())
        .collect();
    (rates, latency)
}

/// serve-hot's set-up: starts a server and solves every block once over
/// `warm`, checking each schedule, and appends the time it took to
/// `setup_s`. A repeat must give the `first` set-up's answers again.
fn warm_up(
    machine: &MachineConfig,
    blocks: &[Superblock],
    warm: &[Request],
    setup_s: &mut Vec<f64>,
    first: Option<&[ScheduleReply]>,
) -> Result<(ServerHandle, Vec<ScheduleReply>), String> {
    let start = Instant::now();
    let server = start_server(1)?;
    let mut client = Client::connect(server.addr())?;
    let mut answers = Vec::with_capacity(blocks.len());
    for (block, req) in blocks.iter().zip(warm) {
        match client.request(req)? {
            Response::Schedule(r) if reply_ok(machine, block, &r) => answers.push(r),
            other => {
                stop(server);
                return Err(format!("warm-up of {} failed: {other:?}", block.name()));
            }
        }
    }
    setup_s.push(start.elapsed().as_secs_f64());
    let same = |first: &[ScheduleReply]| {
        first
            .iter()
            .zip(&answers)
            .all(|(a, b)| a.winner == b.winner && a.awct.to_bits() == b.awct.to_bits())
    };
    if first.is_some_and(|first| !same(first)) {
        stop(server);
        return Err("warm-up answers differ between set-ups".to_owned());
    }
    Ok((server, answers))
}

pub fn hot(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Result<Run, String> {
    let machine = inputs::machine();
    let gen_start = Instant::now();
    let blocks = inputs::corpus(seed, &inputs::quota(inputs::HOT_BLOCKS))?;
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let request = |i: usize, with_schedule: bool| {
        inputs::schedule_request(&blocks[i], seed, i, STEPS_1S, with_schedule, None)
    };
    let warm: Vec<Request> = (0..blocks.len()).map(|i| request(i, true)).collect();
    let requests: Vec<Request> = (0..blocks.len()).map(|i| request(i, false)).collect();

    // Set-up: start the server and solve every block once. Half the
    // set-ups run before the measured loop and half after it, so their
    // median samples the host at both ends of the run.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (mut server, answers) = warm_up(&machine, &blocks, &warm, &mut setup_s, None)?;
    for _ in 1..SETUP_REPEATS / 2 {
        stop(server);
        (server, _) = warm_up(&machine, &blocks, &warm, &mut setup_s, Some(&answers))?;
    }
    let set = HotSet {
        lines: requests
            .iter()
            .map(|r| request_line(r, None))
            .collect::<Result<_, _>>()?,
        requests,
        answers,
    };

    // A traced run alternates untraced and traced windows, so host speed
    // drift stays out of the tracing overhead.
    let length = Duration::from_secs(seconds);
    let (start, loops, peak_heap_mb) = hot_phase(&server, &set, length, tracer)?;
    stop(server);
    while setup_s.len() < SETUP_REPEATS {
        let (server, _) = warm_up(&machine, &blocks, &warm, &mut setup_s, Some(&set.answers))?;
        stop(server);
    }
    // Per-window figures, then their median: a slow stretch of the host
    // moves fewer than half the windows and so not the result.
    let (rates, window_latency) = windows(start, length, &loops);
    let throughput = median(&rates);
    let window_quantile = |q: f64| -> f64 {
        let per_window: Vec<f64> = window_latency
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(l, q))
            .collect();
        median(&per_window)
    };
    let parity = |p: usize| -> Vec<f64> { rates.iter().skip(p).step_by(2).copied().collect() };
    let traced_overhead = median(&parity(0)) / median(&parity(1)) - 1.0;

    let samples: Vec<&(Instant, f64, bool)> = loops.iter().flat_map(|l| &l.samples).collect();
    let attempted = samples.len() as u64;
    let ok = samples.iter().filter(|s| s.2).count() as u64;
    let shed: u64 = loops.iter().map(|l| l.shed).sum();
    let ontime = samples.iter().filter(|s| s.2 && s.1 <= LIMIT_MS).count() as u64;
    let end_to_end = EndToEnd {
        throughput_per_s: throughput,
        p50_ms: window_quantile(0.5),
        p90_ms: window_quantile(0.9),
        ontime_share: share(ontime, attempted),
        ok_share: share(ok, attempted),
        // Over the distinct blocks: every reply was checked equal to its
        // block's warm-up answer.
        awct_cycles: weighted_awct(blocks.iter().zip(set.answers.iter().map(|a| a.awct))),
        vc_decided_share: share(
            set.answers.iter().filter(|a| vc_decided(a)).count() as u64,
            set.answers.len() as u64,
        ),
        peak_heap_mb,
        setup_s: median(&setup_s),
    };
    // A shed request is refused, not wrong: it counts against ok_share
    // and ontime_share but not as a failed check.
    let mut failed = attempted - ok - shed;
    let mut layers = Layers {
        gen_ms,
        shed_share: share(shed, attempted),
        ..Layers::default()
    };
    if let Some(tracer) = tracer {
        layers.trace_overhead_share = traced_overhead;
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
        let replies: Vec<Response> = set
            .answers
            .iter()
            .map(|a| {
                Response::Schedule(ScheduleReply {
                    cached: true,
                    schedule: None,
                    ..a.clone()
                })
            })
            .collect();
        failed += layers::probe_service(tracer, &set.requests, &replies, &mut layers)?;
    }
    Ok(Run {
        attempted,
        failed,
        end_to_end,
        layers,
    })
}

/// One prepared open-loop request.
struct Due {
    /// Offset of the due time from the trace start.
    at: Duration,
    /// The request's own deadline, in wall milliseconds.
    deadline_ms: u64,
    request: Request,
    /// `request` with its id, as sent.
    line: String,
}

/// A serve-online reply, checked by the reader thread as it arrived so
/// that only this summary stays in memory.
enum Answer {
    /// A schedule that passed every check.
    Ok {
        awct: f64,
        deadline_fired: bool,
        vc_decided: bool,
    },
    /// Refused with `retry_after_ms`: load shed, not a wrong answer.
    Shed,
    /// Anything else: an error or a schedule that failed a check.
    Bad,
}

/// What the open loop saw.
struct Sent {
    start: Instant,
    /// How late each send ran past its due time, in milliseconds.
    late_ms: Vec<f64>,
    /// Each request's checked reply and its arrival time, by request id.
    replies: Vec<Option<(Instant, Answer)>>,
    /// The full replies of the requests the traced run replays.
    kept: Vec<(usize, ScheduleReply)>,
}

/// Sends every request at its due time on one pipelined connection while
/// a reader thread collects and checks the replies by id, keeping the
/// full reply of each request `keep` selects.
fn open_loop(
    server: &ServerHandle,
    due: &[Due],
    blocks: &[Superblock],
    keep: impl Fn(usize) -> bool + Sync,
) -> Result<Sent, String> {
    let machine = inputs::machine();
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(DRAIN_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let reader = BufReader::new(stream);
    let n = due.len();
    // Reserved up front, so the phase's heap growth is the program's.
    let mut replies: Vec<Option<(Instant, Answer)>> = (0..n).map(|_| None).collect();
    let mut kept = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    let start = Instant::now();
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut seen = 0;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let Ok(value) = serde_json::from_str::<Value>(&line) else {
                    break;
                };
                let Some(id) = envelope_id(&value).ok().flatten().map(|id| id as usize) else {
                    break;
                };
                let Some(slot) = replies.get_mut(id) else {
                    break;
                };
                let answer = match Response::from_value(&value) {
                    Ok(Response::Schedule(r)) if reply_ok(&machine, &blocks[id], &r) => {
                        let answer = Answer::Ok {
                            awct: r.awct,
                            deadline_fired: r.deadline_fired,
                            vc_decided: vc_decided(&r),
                        };
                        if keep(id) {
                            kept.push((id, r));
                        }
                        answer
                    }
                    Ok(Response::Error {
                        retry_after_ms: Some(_),
                        ..
                    }) => Answer::Shed,
                    _ => Answer::Bad,
                };
                seen += usize::from(slot.is_none());
                *slot = Some((at, answer));
                if seen == n {
                    break;
                }
            }
        });
        for d in due {
            let when = start + d.at;
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            let sent = Instant::now();
            if writer.write_all(d.line.as_bytes()).is_err() {
                break;
            }
            late_ms.push((sent - when).as_secs_f64() * 1e3);
        }
        collector.join()
    });
    collected.map_err(|_| "reply reader panicked".to_owned())?;
    Ok(Sent {
        start,
        late_ms,
        replies,
        kept,
    })
}

/// serve-online's set-up: synthesizes the trace, builds every request
/// line and starts the server, appending the time it took to `setup_s`
/// and the trace's share of it to `gen_ms`. A repeat must build the
/// `first` set-up's lines again.
fn set_up_online(
    seed: u64,
    seconds: u64,
    setup_s: &mut Vec<f64>,
    gen_ms: &mut Vec<f64>,
    first: Option<&[Due]>,
) -> Result<(ServerHandle, Vec<Superblock>, Vec<Due>), String> {
    let start = Instant::now();
    let arrivals = inputs::arrivals(seed, seconds);
    let blocks: Vec<Superblock> = arrivals.iter().map(|a| a.event.block()).collect();
    gen_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let mut due = Vec::with_capacity(arrivals.len());
    for (i, (a, block)) in arrivals.iter().zip(&blocks).enumerate() {
        let request = inputs::schedule_request(
            block,
            seed,
            i,
            STEPS_1M,
            true,
            Some((a.deadline_ms, a.event.priority)),
        );
        due.push(Due {
            at: a.due,
            deadline_ms: a.deadline_ms,
            line: request_line(&request, Some(i as u64))? + "\n",
            request,
        });
    }
    let server = start_server(2)?;
    setup_s.push(start.elapsed().as_secs_f64());
    let same = |first: &[Due]| {
        first.len() == due.len()
            && first
                .iter()
                .zip(&due)
                .all(|(a, b)| a.at == b.at && a.line == b.line)
    };
    if first.is_some_and(|first| !same(first)) {
        stop(server);
        return Err("trace generation is not deterministic".to_owned());
    }
    Ok((server, blocks, due))
}

pub fn online(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Result<Run, String> {
    let machine = inputs::machine();
    // Half the set-ups run before the measured loop and half after it, so
    // their median samples the host at both ends of the run.
    let mut setup_s = Vec::with_capacity(QUICK_SETUP_REPEATS);
    let mut gen_ms = Vec::with_capacity(QUICK_SETUP_REPEATS);
    let (mut server, blocks, due) = set_up_online(seed, seconds, &mut setup_s, &mut gen_ms, None)?;
    for _ in 1..QUICK_SETUP_REPEATS / 2 {
        stop(server);
        (server, _, _) = set_up_online(seed, seconds, &mut setup_s, &mut gen_ms, Some(&due))?;
    }
    // Replays in a traced run use an even spread of the requests.
    let step = due.len().div_ceil(PROBE_INPUTS).max(1);
    let heap_base = crate::alloc::live_bytes();
    crate::alloc::reset_peak();
    let looped = open_loop(&server, &due, &blocks, |i| {
        tracer.is_some() && i % step == 0
    });
    let peak_heap_mb = crate::alloc::peak_bytes().saturating_sub(heap_base) as f64 / MIB;
    stop(server);
    let Sent {
        start,
        late_ms,
        replies,
        kept,
    } = looped?;
    while setup_s.len() < QUICK_SETUP_REPEATS {
        let (server, _, _) = set_up_online(seed, seconds, &mut setup_s, &mut gen_ms, Some(&due))?;
        stop(server);
    }

    let attempted = due.len() as u64;
    let (mut failed, mut shed, mut fired, mut decided, mut ontime) = (0u64, 0u64, 0, 0, 0);
    let mut ok = 0u64;
    let mut answered = Vec::with_capacity(due.len());
    let mut latency = Vec::with_capacity(due.len());
    let mut last = start;
    for (i, (d, reply)) in due.iter().zip(&replies).enumerate() {
        let when = start + d.at;
        match reply {
            Some((
                at,
                Answer::Ok {
                    awct,
                    deadline_fired,
                    vc_decided,
                },
            )) => {
                let ms = at.saturating_duration_since(when).as_secs_f64() * 1e3;
                if let Some(tracer) = tracer {
                    tracer.record("service.schedule", when, *at, None, i as u64);
                }
                latency.push(ms);
                ok += 1;
                ontime += u64::from(ms <= d.deadline_ms as f64);
                fired += u64::from(*deadline_fired);
                decided += u64::from(*vc_decided);
                answered.push((&blocks[i], *awct));
                last = last.max(*at);
            }
            Some((_, Answer::Shed)) => shed += 1,
            _ => failed += 1,
        }
    }
    let end_to_end = EndToEnd {
        // Pinned to the arrival rate by construction; reported because
        // every workload reports every end-to-end metric.
        throughput_per_s: ok as f64 / (last - start).as_secs_f64().max(1e-9),
        p50_ms: quantile(&latency, 0.5),
        p90_ms: quantile(&latency, 0.9),
        ontime_share: share(ontime, attempted),
        ok_share: share(ok, attempted),
        awct_cycles: weighted_awct(answered),
        vc_decided_share: share(decided, attempted),
        peak_heap_mb,
        setup_s: median(&setup_s),
    };
    let mut layers = Layers {
        gen_ms: median(&gen_ms),
        shed_share: share(shed, attempted),
        deadline_fired_share: share(fired, attempted),
        gen_late_ms_p90: quantile(&late_ms, 0.9),
        ..Layers::default()
    };
    if let Some(tracer) = tracer {
        // Replay a spread of answered blocks with the VC step budget each
        // actually spent, so the solo timings match the served work.
        let items: Vec<Replay<'_>> = kept
            .iter()
            .map(|(i, r)| Replay {
                block: &blocks[*i],
                homes: inputs::homes(&blocks[*i], seed, *i),
                steps: r.vc_steps.clamp(1, STEPS_1M),
            })
            .collect();
        failed += layers::replay_solvers(tracer, &machine, &items, &mut layers);
        failed += layers::probe_engine(tracer, &machine, &items, &mut layers);
        let (requests, replies): (Vec<Request>, Vec<Response>) = kept
            .into_iter()
            .map(|(i, r)| (due[i].request.clone(), Response::Schedule(r)))
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
