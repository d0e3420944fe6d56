//! `serve_poisson` and `serve_overload`: open-loop Poisson arrivals
//! against a split ResNet-18 (CIFAR proxy, width 0.25) behind
//! `scnn_serve::Server` with `ServerConfig::default()` (one replica,
//! `max_batch` 8, 2 ms interactive window, queue of 64).
//!
//! One generator (this thread) sends each request at its due time and one
//! collector thread waits for the replies. Every latency runs from the
//! request's due time, so a late generator shows up as latency and in
//! `gen.late_ms`. Engine timings come from [`Timed`], a pass-through
//! `scnn_serve::BatchRunner` around `Engine` that the server is started
//! with (`Server::start_with_runner`).

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scnn_core::{plan_split, SplitConfig};
use scnn_data::{SyntheticDataset, SyntheticSpec};
use scnn_graph::{Graph, NodeId, Op};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore};
use scnn_rng::{Rng, SplitRng};
use scnn_serve::{
    BatchPolicy, BatchRunner, BatchStats, Engine, ServeError, Server, ServerConfig, SloClass,
};
use scnn_tensor::{uniform, Tensor};

use crate::stats::{mean, median, ms, quantile};
use crate::trace::{Arg, Trace};
use crate::train::{layer_times, PlanShape, Seam};
use crate::{Args, Metrics, Outcome};

const WIDTH: f64 = 0.25;
const MODEL_SEED: u64 = 17;
const SETUP_REPEATS: usize = 9;
/// Distinct request tensors; each request carries one of them.
const POOL: usize = 48;
/// `serve_poisson`'s latency limit on p99 at a ladder rate.
const SLO_P99_MS: f64 = 150.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Poisson,
    Overload,
}

/// One fixed-rate phase of open-loop load.
struct Rung {
    name: &'static str,
    rate: f64,
    /// Share of the run's seconds.
    share: f64,
    /// Share of requests in the `Interactive` class; the rest are `Batch`.
    interactive: f64,
}

const LADDER: [Rung; 4] = [
    Rung {
        name: "lo",
        rate: 50.0,
        share: 0.4,
        interactive: 1.0,
    },
    Rung {
        name: "hi",
        rate: 120.0,
        share: 0.2,
        interactive: 1.0,
    },
    Rung {
        name: "knee",
        rate: 180.0,
        share: 0.25,
        interactive: 1.0,
    },
    Rung {
        name: "past",
        rate: 400.0,
        share: 0.15,
        interactive: 1.0,
    },
];

const OVERLOAD: [Rung; 1] = [Rung {
    name: "overload",
    rate: 700.0,
    share: 1.0,
    interactive: 0.75,
}];

/// One batch as the engine ran it.
#[derive(Clone, Copy)]
struct BatchRecord {
    start: Instant,
    end: Instant,
    size: usize,
    stats: BatchStats,
}

/// The pass-through runner: runs each batch on the engine unchanged and
/// records when it ran and the engine's memory accounting.
struct Timed {
    engine: Arc<Engine>,
    log: Mutex<Vec<BatchRecord>>,
}

impl Timed {
    fn new(engine: Arc<Engine>) -> Self {
        Timed {
            engine,
            log: Mutex::new(Vec::new()),
        }
    }

    fn run_batch(&self, requests: &[Tensor]) -> (Vec<Vec<f32>>, BatchStats) {
        let start = Instant::now();
        let (out, stats) = self.engine.run_batch(requests);
        let end = Instant::now();
        self.log
            .lock()
            .expect("batch log is never poisoned")
            .push(BatchRecord {
                start,
                end,
                size: requests.len(),
                stats,
            });
        (out, stats)
    }

    fn take(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.log.lock().expect("batch log is never poisoned"))
    }
}

impl BatchRunner for Timed {
    fn request_shape(&self) -> Vec<usize> {
        self.engine.request_shape().to_vec()
    }

    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>> {
        self.run_batch(requests).0
    }

    fn planned_bytes(&self) -> Option<(usize, usize)> {
        BatchRunner::planned_bytes(self.engine.as_ref())
    }
}

/// Snapshots the logits node's forward output: the training executor's
/// `Mode::Eval` answer for a request.
struct Capture {
    node: usize,
    bits: Option<Vec<f32>>,
}

impl BufferProvider for Capture {
    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        if node == self.node {
            self.bits = Some(out.as_slice().to_vec());
        }
        out
    }
}

struct Built {
    graph: Graph,
    params: ParamStore,
    bn: BnState,
    engine: Arc<Engine>,
    /// split, calibrate, engine, warm-up — in seconds.
    phases: [f64; 4],
}

fn build() -> Built {
    let t0 = Instant::now();
    let desc = resnet18(&ModelOptions::cifar().with_width(WIDTH));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet-18 splits")
        .lower(&desc, 1);
    let t1 = Instant::now();
    // One training step fills the BN running statistics and moves the
    // weights off their initial values; the engine then freezes both.
    let mut rng = SplitRng::seed_from_u64(MODEL_SEED);
    let mut params = ParamStore::init(&graph, &mut rng);
    let mut bn = BnState::new();
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let calib = uniform(
        &mut SplitRng::seed_from_u64(MODEL_SEED + 1),
        &dims,
        -1.0,
        1.0,
    );
    Executor::new().run(
        &graph,
        &mut params,
        &mut bn,
        &calib,
        &[3],
        Mode::Train,
        &mut rng,
    );
    let t2 = Instant::now();
    let engine = Arc::new(
        Engine::new(
            graph.clone(),
            Arc::new(params.clone()),
            Arc::new(bn.clone()),
        )
        .expect("inference plan lays out"),
    );
    let t3 = Instant::now();
    let max_batch = BatchPolicy::default().max_batch;
    for n in [1, max_batch] {
        engine.run_batch(&vec![calib.clone(); n]);
    }
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Built {
        phases: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
        graph,
        params,
        bn,
        engine,
    }
}

/// One scheduled request.
struct Arrival {
    /// Due time from the start of its rung.
    due: Duration,
    pool: usize,
    class: SloClass,
}

fn arrivals(rung: &Rung, seconds: f64, rng: &mut SplitRng) -> Vec<Arrival> {
    let span = seconds * rung.share;
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rung.rate;
        if t >= span {
            return out;
        }
        let pool = rng.gen_range(0..POOL);
        let class = if rng.gen::<f64>() < rung.interactive {
            SloClass::Interactive
        } else {
            SloClass::Batch
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            pool,
            class,
        });
    }
}

enum Verdict {
    /// Admitted; the collector has not reported yet.
    Pending,
    Done(Vec<f32>),
    Shed,
    Expired,
    Error(ServeError),
}

/// What happened to one request.
struct Sent {
    pool: usize,
    class: SloClass,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// Queue depth right after admission.
    depth: usize,
    reply: Option<Instant>,
    verdict: Verdict,
}

impl Sent {
    fn latency_ms(&self) -> Option<f64> {
        match (&self.verdict, self.reply) {
            (Verdict::Done(_), Some(r)) => Some(ms(r - self.due)),
            _ => None,
        }
    }
}

/// One rung as measured.
struct RungRun {
    sent: Vec<Sent>,
    batches: Vec<BatchRecord>,
    /// From the first due time to the last reply.
    wall: Duration,
    queue_depth_peak: usize,
    /// No replica died.
    healthy: bool,
}

/// Runs one rung against a fresh server and waits for every reply.
fn run_rung(engine: &Arc<Engine>, pool: &[Tensor], plan: &[Arrival]) -> RungRun {
    let runner = Arc::new(Timed::new(engine.clone()));
    let server = Server::start_with_runner(runner.clone(), ServerConfig::default())
        .expect("default config is legal");
    let (tx, rx) = channel::<(usize, scnn_serve::ResponseHandle)>();
    let mut sent: Vec<Sent> = Vec::with_capacity(plan.len());
    let start = Instant::now() + Duration::from_millis(20);
    let replies = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(id, handle)| {
                    let verdict = handle.recv();
                    (id, Instant::now(), verdict)
                })
                .collect::<Vec<_>>()
        });
        for (id, a) in plan.iter().enumerate() {
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let input = pool[a.pool].clone();
            let submit_start = Instant::now();
            let admitted = server.submit(input, a.class);
            let submit_end = Instant::now();
            let verdict = match admitted {
                Ok(handle) => {
                    tx.send((id, handle))
                        .expect("the collector outlives the generator");
                    Verdict::Pending
                }
                Err(ServeError::Overloaded) => Verdict::Shed,
                Err(e) => Verdict::Error(e),
            };
            sent.push(Sent {
                pool: a.pool,
                class: a.class,
                due,
                submit_start,
                submit_end,
                depth: server.queue_depth(),
                reply: None,
                verdict,
            });
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for (id, at, verdict) in replies {
        sent[id].reply = Some(at);
        sent[id].verdict = match verdict {
            Ok(logits) => Verdict::Done(logits),
            Err(ServeError::DeadlineExceeded) => Verdict::Expired,
            Err(e) => Verdict::Error(e),
        };
    }
    // A replica that died has already failed its requests with
    // `EngineDown`; `healthy` records it for the correctness check.
    let snapshot = server.shutdown();
    let last = sent
        .iter()
        .map(|s| s.reply.unwrap_or(s.submit_end))
        .max()
        .unwrap_or(start);
    RungRun {
        sent,
        batches: runner.take(),
        wall: last.saturating_duration_since(start),
        queue_depth_peak: snapshot.as_ref().map_or(0, |s| s.queue_depth_peak),
        healthy: snapshot.is_ok(),
    }
}

/// Per-rung summary.
struct RungStats {
    attempted: usize,
    completed: usize,
    shed: usize,
    expired: usize,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// p99 over every request sent; a request not served counts as
    /// missing the limit.
    p99_all_ms: f64,
    completed_rps: f64,
    goodput_rps: f64,
    backlog_growth: f64,
    meets_slo: bool,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    /// Per served request: (generator lateness + admission + queue wait +
    /// engine) over its latency.
    coverage: Vec<f64>,
    /// Request ids of each batch, in run order.
    members: Vec<Vec<usize>>,
}

fn summarize(r: &RungRun) -> RungStats {
    let policy = BatchPolicy::default();
    let lat: Vec<f64> = r.sent.iter().filter_map(Sent::latency_ms).collect();
    let all: Vec<f64> = r
        .sent
        .iter()
        .map(|s| s.latency_ms().unwrap_or(f64::INFINITY))
        .collect();
    let count = |f: fn(&Verdict) -> bool| r.sent.iter().filter(|s| f(&s.verdict)).count();
    let secs = r.wall.as_secs_f64();
    let goodput = r
        .sent
        .iter()
        .filter(|s| {
            s.latency_ms()
                .is_some_and(|l| l <= ms(policy.class(s.class).deadline))
        })
        .count();

    // Backlog: mean queue depth over the last quarter of the rung's
    // submissions against the first quarter.
    let q = (r.sent.len() / 4).max(1);
    let depth = |xs: &[Sent]| mean(&xs.iter().map(|s| s.depth as f64).collect::<Vec<_>>());
    let backlog_growth = if r.sent.len() >= 4 {
        depth(&r.sent[r.sent.len() - q..]) - depth(&r.sent[..q])
    } else {
        0.0
    };

    // The queue is FIFO and one replica drains it, so the served
    // requests, in submission order, fill the batches in run order.
    let served: Vec<usize> = (0..r.sent.len())
        .filter(|&i| matches!(r.sent[i].verdict, Verdict::Done(_)))
        .collect();
    let mut members = Vec::with_capacity(r.batches.len());
    let mut queue_wait_ms = Vec::with_capacity(served.len());
    let mut coverage = Vec::with_capacity(served.len());
    let mut next = 0;
    for b in &r.batches {
        let ids = served[next.min(served.len())..(next + b.size).min(served.len())].to_vec();
        next += b.size;
        for &i in &ids {
            let s = &r.sent[i];
            let wait = b.start.saturating_duration_since(s.submit_end);
            queue_wait_ms.push(ms(wait));
            if let Some(l) = s.latency_ms() {
                let parts = ms(s.submit_start.saturating_duration_since(s.due))
                    + ms(s.submit_end - s.submit_start)
                    + ms(wait)
                    + ms(b.end - b.start);
                coverage.push(parts / l);
            }
        }
        members.push(ids);
    }

    let p99_all = quantile(&all, 0.99);
    RungStats {
        attempted: r.sent.len(),
        completed: lat.len(),
        shed: count(|v| matches!(v, Verdict::Shed)),
        expired: count(|v| matches!(v, Verdict::Expired)),
        p50_ms: median(&lat),
        p90_ms: quantile(&lat, 0.9),
        p99_ms: quantile(&lat, 0.99),
        p99_all_ms: p99_all,
        completed_rps: lat.len() as f64 / secs,
        goodput_rps: goodput as f64 / secs,
        backlog_growth,
        meets_slo: p99_all <= SLO_P99_MS && backlog_growth <= policy.max_batch as f64,
        late_ms: r
            .sent
            .iter()
            .map(|s| ms(s.submit_start.saturating_duration_since(s.due)))
            .collect(),
        submit_us: r
            .sent
            .iter()
            .map(|s| ms(s.submit_end - s.submit_start) * 1e3)
            .collect(),
        queue_wait_ms,
        coverage,
        members,
    }
}

/// Adds one rung's request and batch spans to `trace`; request ids start
/// at `first_id`.
fn trace_rung(trace: &mut Trace, r: &RungRun, st: &RungStats, first_id: u64) {
    for (i, s) in r.sent.iter().enumerate() {
        let id = first_id + i as u64;
        let end = s.reply.unwrap_or(s.submit_end);
        let req = trace.push("request", s.due, end, None, id);
        trace.spans[req].lane = 10 + (id % 16) as u32;
        trace.arg(req, "class", Arg::Text(s.class.name()));
        let sub = trace.push(
            "admission.submit",
            s.submit_start,
            s.submit_end,
            Some(req),
            id,
        );
        trace.spans[sub].lane = 10 + (id % 16) as u32;
    }
    for (b, ids) in r.batches.iter().zip(&st.members) {
        let opened = ids
            .iter()
            .map(|&i| r.sent[i].submit_end)
            .min()
            .unwrap_or(b.start)
            .min(b.start);
        let first = ids.first().map_or(0, |&i| first_id + i as u64);
        let d = trace.push("dispatch.batch", opened, b.end, None, first);
        trace.spans[d].lane = 2;
        trace.arg(d, "size", Arg::Int(b.size as i64));
        trace.arg(
            d,
            "requests",
            Arg::Ids(ids.iter().map(|&i| first_id + i as u64).collect()),
        );
        let e = trace.push("engine.run_batch", b.start, b.end, Some(d), first);
        trace.spans[e].lane = 3;
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |ok: bool, what: &dyn Fn() -> String| {
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("{}: {}", args.workload, what());
        }
    };

    // Set-up, repeated; the last build is the one that serves.
    let mut phases: Vec<[f64; 4]> = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take()); // free the previous build before timing the next
        let b = build();
        phases.push(b.phases);
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up");
    let totals: Vec<f64> = phases.iter().map(|p| p.iter().sum()).collect();
    let phase = |k: usize| median(&phases.iter().map(|p| p[k] * 1e3).collect::<Vec<_>>());
    m.set("setup_s", median(&totals), "s");
    m.set("setup.split_ms", phase(0), "ms");
    m.set("setup.calibrate_ms", phase(1), "ms");
    m.set("setup.runtime_ms", phase(2), "ms");
    m.set("setup.warmup_ms", phase(3), "ms");
    let engine = b.engine.clone();
    let max_batch = BatchPolicy::default().max_batch;
    let pool_bytes = engine.plan().layout.device_general_bytes;
    m.set("hmms.planned_device_bytes", pool_bytes as f64, "bytes");

    // Inputs, all from the seed, before anything is timed: the request
    // tensors, then every rung's arrival times, pool indices and classes.
    let mut trace = args.trace.then(Trace::new);
    let dataset = SyntheticDataset::new(SyntheticSpec::cifar_like(args.seed));
    let mut data_rng = SplitRng::seed_from_u64(args.seed);
    let mut data_ms = Vec::with_capacity(POOL);
    let pool: Vec<Tensor> = (0..POOL)
        .map(|i| {
            let t = Instant::now();
            let (image, _) = dataset
                .batches(1, 1, &mut data_rng)
                .pop()
                .expect("one batch");
            if let Some(tr) = trace.as_mut() {
                tr.push("data.batch", t, Instant::now(), None, i as u64);
            }
            data_ms.push(ms(t.elapsed()));
            image
        })
        .collect();
    m.set("data.batch_ms", median(&data_ms), "ms");
    let ladder: &[Rung] = match kind {
        Kind::Poisson => &LADDER,
        Kind::Overload => &OVERLOAD,
    };
    // A traced run serves the ladder twice, untraced then traced, each
    // for half the time.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut arrival_rng = SplitRng::seed_from_u64(args.seed ^ 0x5eed_0a11_7e57_0001);
    let mut schedule = || -> Vec<Vec<Arrival>> {
        ladder
            .iter()
            .map(|r| arrivals(r, seconds, &mut arrival_rng))
            .collect()
    };
    let plans = schedule();
    let traced_plans = args.trace.then(&mut schedule);

    // Reference logits: a `Mode::Eval` pass of the training executor per
    // request tensor, seen through the executor seam when tracing.
    let logits_node = b
        .graph
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Op::SoftmaxCrossEntropy))
        .expect("the model ends in a loss node")
        .inputs[0]
        .0;
    let shape = PlanShape::new(&b.graph, engine.plan());
    let exec = Executor::new();
    let mut eval_rng = SplitRng::seed_from_u64(0);
    let reference: Vec<Vec<f32>> = pool
        .iter()
        .enumerate()
        .map(|(p, image)| {
            let mut cap = Capture {
                node: logits_node,
                bits: None,
            };
            let Built {
                graph, params, bn, ..
            } = &mut b;
            match trace.as_mut() {
                Some(tr) => {
                    let root = tr.begin("reference.eval", None, p as u64);
                    let mut seam = Seam::new(&mut cap, "provider.hook", &shape, tr, root, p as u64);
                    exec.run_with(
                        graph,
                        params,
                        bn,
                        image,
                        &[0],
                        Mode::Eval,
                        &mut eval_rng,
                        &mut seam,
                    );
                    tr.end(root);
                }
                None => {
                    exec.run_with(
                        graph,
                        params,
                        bn,
                        image,
                        &[0],
                        Mode::Eval,
                        &mut eval_rng,
                        &mut cap,
                    );
                }
            }
            cap.bits.expect("the eval pass computed the logits")
        })
        .collect();

    // The timing runner must hand back exactly what the bare engine does.
    let timed = Timed::new(engine.clone());
    for n in [1, 3, max_batch] {
        let idx: Vec<usize> = (0..n).map(|i| (7 * i + n) % POOL).collect();
        let reqs: Vec<Tensor> = idx.iter().map(|&i| pool[i].clone()).collect();
        let (bare, bare_stats) = engine.run_batch(&reqs);
        let (via, via_stats) = timed.run_batch(&reqs);
        let via_runner = BatchRunner::run(&timed, &reqs);
        let all_same = bare
            .iter()
            .zip(&via)
            .zip(&via_runner)
            .zip(&idx)
            .all(|(((a, b), c), &i)| {
                same_bits(a, b) && same_bits(a, c) && same_bits(a, &reference[i])
            });
        check(
            bare.len() == n && all_same && bare_stats == via_stats,
            &|| format!("the timing runner changed a batch of {n}"),
        );
        check(
            bare_stats.pool_high_water == n * pool_bytes
                && bare_stats.planned_pool_bytes == n * pool_bytes,
            &|| {
                format!(
                    "batch of {n}: pool high-water {} B, planned {} B",
                    bare_stats.pool_high_water,
                    n * pool_bytes
                )
            },
        );
    }

    // The timed runs.
    let run_ladder = |plans: &[Vec<Arrival>]| -> Vec<RungRun> {
        plans
            .iter()
            .map(|plan| run_rung(&engine, &pool, plan))
            .collect()
    };
    let untraced = run_ladder(&plans);
    let traced = traced_plans.as_deref().map(run_ladder);

    // Every served request must carry its reference logits, every batch
    // its planned pool, and nothing may fail but by admission policy.
    for run in std::iter::once(&untraced).chain(traced.as_ref()) {
        for r in run {
            for s in &r.sent {
                match &s.verdict {
                    Verdict::Done(logits) => check(same_bits(logits, &reference[s.pool]), &|| {
                        format!(
                            "logits for request tensor {} differ from the eval pass",
                            s.pool
                        )
                    }),
                    // Refused by admission policy: an SLO miss, not a failure.
                    Verdict::Shed | Verdict::Expired => check(true, &String::new),
                    Verdict::Pending => check(false, &|| "a request got no reply".into()),
                    Verdict::Error(e) => check(false, &|| format!("request failed: {e}")),
                }
            }
            for batch in &r.batches {
                let planned = batch.size * pool_bytes;
                check(
                    batch.stats.pool_high_water == planned
                        && batch.stats.planned_pool_bytes == planned,
                    &|| {
                        format!(
                            "batch of {}: pool high-water {} B vs planned {planned} B",
                            batch.size, batch.stats.pool_high_water
                        )
                    },
                );
            }
            let served = r
                .sent
                .iter()
                .filter(|s| matches!(s.verdict, Verdict::Done(_)))
                .count();
            let ran: usize = r.batches.iter().map(|x| x.size).sum();
            check(served == ran, &|| {
                format!("{served} requests served but {ran} ran")
            });
            check(r.healthy, &|| "a server replica died".into());
        }
    }

    // Report.
    let stats: Vec<RungStats> = untraced.iter().map(summarize).collect();
    let device_bytes = engine.device_bytes_at(max_batch);
    let resident = untraced
        .iter()
        .flat_map(|r| &r.batches)
        .map(|x| x.stats.resident_peak)
        .max()
        .unwrap_or(0);
    for ((rung, st), r) in ladder.iter().zip(&stats).zip(&untraced) {
        let n = rung.name;
        m.set(&format!("serve.rate.{n}"), rung.rate, "1/s");
        let busy: f64 = r.batches.iter().map(|x| ms(x.end - x.start)).sum();
        m.set(&format!("engine.busy_frac.{n}"), busy / ms(r.wall), "frac");
        m.set(
            &format!("serve.attempted.{n}"),
            st.attempted as f64,
            "count",
        );
        m.set(
            &format!("serve.completed.{n}"),
            st.completed as f64,
            "count",
        );
        m.set(&format!("serve.latency_p50_ms.{n}"), st.p50_ms, "ms");
        m.set(&format!("serve.latency_p90_ms.{n}"), st.p90_ms, "ms");
        m.set(&format!("serve.latency_p99_ms.{n}"), st.p99_ms, "ms");
        m.set(
            &format!("serve.latency_p99_all_ms.{n}"),
            st.p99_all_ms,
            "ms",
        );
        m.set(&format!("serve.completed_rps.{n}"), st.completed_rps, "1/s");
        m.set(
            &format!("serve.backlog_growth.{n}"),
            st.backlog_growth,
            "count",
        );
        m.set(
            &format!("serve.refused_frac.{n}"),
            1.0 - st.completed as f64 / st.attempted.max(1) as f64,
            "frac",
        );
        m.set(
            &format!("gen.late_ms.p99.{n}"),
            quantile(&st.late_ms, 0.99),
            "ms",
        );
        if kind == Kind::Poisson {
            m.set(
                &format!("serve.meets_slo.{n}"),
                st.meets_slo as u8 as f64,
                "bool",
            );
        }
    }
    m.set("serve.device_bytes", device_bytes as f64, "bytes");
    m.set("device_bytes", device_bytes as f64, "bytes");
    m.set("resident_peak_bytes", resident as f64, "bytes");
    // The rung whose latency is the workload's headline, and the rung
    // whose layers the traced run reports.
    let (headline, primary) = match kind {
        Kind::Poisson => (0, 1),
        Kind::Overload => (0, 0),
    };
    m.set("latency_p50_ms", stats[headline].p50_ms, "ms");
    match kind {
        Kind::Poisson => {
            // The highest rate that met the limit, as served.
            let best = ladder
                .iter()
                .zip(&stats)
                .filter(|(_, st)| st.meets_slo)
                .max_by(|a, b| a.0.rate.total_cmp(&b.0.rate))
                .map_or(0.0, |(_, st)| st.completed_rps);
            m.set("serve.max_rps_at_slo", best, "1/s");
            m.set("serve.slo_p99_ms", SLO_P99_MS, "ms");
            m.set("throughput_per_s", best, "1/s");
        }
        Kind::Overload => {
            let st = &stats[0];
            m.set("serve.goodput_rps", st.goodput_rps, "1/s");
            m.set("serve.admitted_p50_ms", st.p50_ms, "ms");
            m.set("serve.admitted_p90_ms", st.p90_ms, "ms");
            m.set("serve.admitted_p99_ms", st.p99_ms, "ms");
            m.set("throughput_per_s", st.goodput_rps, "1/s");
        }
    }

    if let (Some(tr), Some(traced)) = (trace.as_mut(), &traced) {
        let tstats: Vec<RungStats> = traced.iter().map(summarize).collect();
        let mut first_id = 0u64;
        for (r, st) in traced.iter().zip(&tstats) {
            trace_rung(tr, r, st, first_id);
            first_id += r.sent.len() as u64;
        }
        let lt = layer_times(tr, "reference.eval");
        m.set("executor.fwd_ms", median(&lt.fwd), "ms");
        m.set("executor.fwd_split_ms", median(&lt.fwd_split), "ms");
        m.set("executor.fwd_serial_ms", median(&lt.fwd_serial), "ms");

        let (r, st) = (&traced[primary], &tstats[primary]);
        let sizes: Vec<f64> = r.batches.iter().map(|x| x.size as f64).collect();
        let engine_ms: Vec<f64> = r.batches.iter().map(|x| ms(x.end - x.start)).collect();
        let busy: f64 = engine_ms.iter().sum();
        m.set("admission.submit_us.p50", median(&st.submit_us), "us");
        m.set(
            "admission.submit_us.p99",
            quantile(&st.submit_us, 0.99),
            "us",
        );
        m.set("admission.shed", st.shed as f64, "count");
        m.set("admission.expired", st.expired as f64, "count");
        m.set(
            "admission.queue_depth_peak",
            r.queue_depth_peak as f64,
            "count",
        );
        m.set("dispatch.batches", r.batches.len() as f64, "count");
        m.set("dispatch.batch_size.mean", mean(&sizes), "count");
        m.set(
            "dispatch.batch_fill",
            mean(&sizes) / max_batch as f64,
            "frac",
        );
        m.set(
            "dispatch.queue_wait_ms.p50",
            median(&st.queue_wait_ms),
            "ms",
        );
        m.set(
            "dispatch.queue_wait_ms.p99",
            quantile(&st.queue_wait_ms, 0.99),
            "ms",
        );
        m.set("engine.batch_ms.p50", median(&engine_ms), "ms");
        m.set(
            "engine.per_request_ms",
            busy / sizes.iter().sum::<f64>(),
            "ms",
        );
        m.set("engine.busy_frac", busy / ms(r.wall), "frac");
        m.set(
            "engine.pool_high_water_bytes",
            r.batches
                .iter()
                .map(|x| x.stats.pool_high_water)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        );
        m.set(
            "engine.resident_peak_bytes",
            r.batches
                .iter()
                .map(|x| x.stats.resident_peak)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        );
        m.set("gen.late_ms.p99", quantile(&st.late_ms, 0.99), "ms");
        m.set("gen.late_ms.max", quantile(&st.late_ms, 1.0), "ms");
        m.set("trace.request_coverage_frac", median(&st.coverage), "frac");
        m.set(
            "trace.overhead_frac",
            tstats[headline].p50_ms / stats[headline].p50_ms - 1.0,
            "frac",
        );
    }

    Outcome {
        metrics: m,
        attempted,
        failed,
        trace,
    }
}
