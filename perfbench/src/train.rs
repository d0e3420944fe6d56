//! `train_hmms`: the paper's system. A split ResNet-18 (CIFAR proxy,
//! width 0.5, batch 8, split depth 0.5 on a 2×2 grid) trains with SGD
//! under the default HMMS plan with the micro-batch schedule (workspace
//! overlapped into offload windows), executed by `scnn_runtime::PlanRuntime`.
//!
//! Per-layer timings come from [`Seam`], a pass-through
//! `scnn_nn::BufferProvider` wrapped around the runtime: the time the
//! executor spends between two hooks is executor work (a forward wave, one
//! node's backward), the time inside a hook is runtime work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use scnn_core::{conv_micro_workspace, plan_micro_schedule, plan_split, SplitConfig};
use scnn_data::{SyntheticDataset, SyntheticSpec};
use scnn_gpusim::{profile_graph, CostModel};
use scnn_graph::{Graph, NodeId, Op, Tape};
use scnn_hmms::{
    export_plan_with, plan_hmms, ExecPlan, LayoutOptions, MemEvent, PlannerOptions, TsoAssignment,
    TsoOptions,
};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore, Schedule, Sgd, VecProvider};
use scnn_rng::SplitRng;
use scnn_runtime::{PlanRuntime, StepStats};
use scnn_tensor::{uniform, Tensor};

use crate::stats::{median, ms, quantile};
use crate::trace::{Arg, Trace};
use crate::{Args, Metrics, Outcome};

const WIDTH: f64 = 0.5;
const BATCH: usize = 8;
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;
const WEIGHT_DECAY: f32 = 1e-4;
/// The model is part of the system under test, not of the input: its
/// initial weights do not depend on the workload seed.
const MODEL_SEED: u64 = 7;
const SETUP_REPEATS: usize = 5;
/// Steps re-run outside the timed region to prove the timed run correct.
const REFERENCE_STEPS: usize = 3;
/// A prefetch sync whose hook returned within this time did not wait.
const HIDDEN_SYNC: Duration = Duration::from_micros(100);

/// Everything the timed loop needs, built once per setup repetition.
struct Built {
    graph: Graph,
    rt: PlanRuntime,
    exec: Executor,
    params: ParamStore,
    planned_pool: usize,
    offloaded_tsos: usize,
    micro_convs: usize,
    /// split, profile, plan, runtime, warm-up — in seconds.
    phases: [f64; 5],
}

fn build() -> Built {
    let t0 = Instant::now();
    let desc = resnet18(&ModelOptions::cifar().with_width(WIDTH));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet-18 splits")
        .lower(&desc, BATCH);
    let t1 = Instant::now();
    let profile = profile_graph(&graph, &CostModel::default());
    let t2 = Instant::now();
    let tape = Tape::new(&graph);
    let schedule = plan_micro_schedule(&graph, &profile.workspace_bytes);
    let ws = conv_micro_workspace(&graph, &profile.workspace_bytes, &schedule);
    let tso = TsoAssignment::new(&graph, &ws, TsoOptions::default());
    let plan = plan_hmms(&graph, &tape, &tso, &profile, PlannerOptions::default());
    let micro_convs = schedule.len();
    let offloaded_tsos = plan.offloaded.len();
    // Workspace overlapped into offload windows, as the memory bench's
    // `hmms_micro` point runs it.
    let overlap = LayoutOptions {
        overlap_workspace: true,
    };
    let exec_plan = export_plan_with(&graph, &tape, &plan, &tso, overlap)
        .expect("hmms plan lays out")
        .with_micro_schedule(Arc::new(schedule));
    let t3 = Instant::now();
    let mut rt = PlanRuntime::new(&graph, exec_plan).expect("runtime builds");
    let exec = rt.executor();
    let params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(MODEL_SEED));
    let planned_pool = rt.plan().layout.device_general_bytes;
    let t4 = Instant::now();
    // Warm-up: one full step on a throwaway copy of the state, so pools,
    // scratch arenas and the transfer thread are live before timing.
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let images = uniform(&mut SplitRng::seed_from_u64(1), &dims, -1.0, 1.0);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    let mut state = State::fresh(&params);
    state.step(&exec, &graph, &images, &labels, &mut rt);
    let t5 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Built {
        phases: [
            secs(t0, t1),
            secs(t1, t2),
            secs(t2, t3),
            secs(t3, t4),
            secs(t4, t5),
        ],
        graph,
        rt,
        exec,
        params,
        planned_pool,
        offloaded_tsos,
        micro_convs,
    }
}

/// Mutable training state: weights, BN statistics, optimizer, RNG.
struct State {
    params: ParamStore,
    bn: BnState,
    sgd: Sgd,
    rng: SplitRng,
}

impl State {
    fn fresh(params: &ParamStore) -> State {
        let params = params.clone();
        let sgd = Sgd::new(&params, LR, MOMENTUM, WEIGHT_DECAY);
        State {
            params,
            bn: BnState::new(),
            sgd,
            rng: SplitRng::seed_from_u64(13),
        }
    }

    fn forward_backward(
        &mut self,
        exec: &Executor,
        graph: &Graph,
        images: &Tensor,
        labels: &[usize],
        provider: &mut dyn BufferProvider,
    ) -> f32 {
        exec.run_with(
            graph,
            &mut self.params,
            &mut self.bn,
            images,
            labels,
            Mode::Train,
            &mut self.rng,
            provider,
        )
        .loss
    }

    /// The optimizer's part of a step: update, then clear gradients.
    fn optimize(&mut self) {
        self.sgd.step(&mut self.params);
        self.params.zero_grads();
    }

    fn step(
        &mut self,
        exec: &Executor,
        graph: &Graph,
        images: &Tensor,
        labels: &[usize],
        provider: &mut dyn BufferProvider,
    ) -> f32 {
        let loss = self.forward_backward(exec, graph, images, labels, provider);
        self.optimize();
        loss
    }
}

/// What the plan does at each tape position, for classifying hooks.
pub(crate) struct PlanShape {
    forward_len: usize,
    /// Per tape position: (`before` events hold a sync, `after` events
    /// hold a sync, either holds a `PrefetchSync`).
    sync: Vec<(bool, bool, bool)>,
    wave_of: Vec<usize>,
    wave_segments: Vec<usize>,
    op: Vec<&'static str>,
}

impl PlanShape {
    pub(crate) fn new(graph: &Graph, plan: &ExecPlan) -> PlanShape {
        let is_sync = |e: &MemEvent| {
            matches!(
                e,
                MemEvent::OffloadSync { .. } | MemEvent::PrefetchSync { .. }
            )
        };
        let is_prefetch = |e: &MemEvent| matches!(e, MemEvent::PrefetchSync { .. });
        let sync = plan
            .steps
            .iter()
            .map(|s| {
                (
                    s.before.iter().any(is_sync),
                    s.after.iter().any(is_sync),
                    s.before.iter().chain(&s.after).any(is_prefetch),
                )
            })
            .collect();
        let schedule = Schedule::build(graph);
        let mut wave_of = vec![0; graph.len()];
        let mut wave_segments = Vec::with_capacity(schedule.waves.len());
        for (w, wave) in schedule.waves.iter().enumerate() {
            wave_segments.push(wave.len());
            for &seg in wave {
                for &node in &schedule.segments[seg] {
                    wave_of[node] = w;
                }
            }
        }
        let op = graph
            .nodes()
            .iter()
            .map(|n| match n.op {
                Op::Conv2d { .. } => "conv",
                Op::BatchNorm { .. } => "bn",
                _ => "other",
            })
            .collect();
        PlanShape {
            forward_len: plan.forward_len,
            sync,
            wave_of,
            wave_segments,
            op,
        }
    }
}

/// The pass-through provider: forwards every hook to `inner` unchanged
/// and records a span for each hook call (named `hook_span`) and for the
/// executor work between hooks, as children of the step span `parent`.
pub(crate) struct Seam<'a> {
    inner: &'a mut dyn BufferProvider,
    hook_span: &'static str,
    shape: &'a PlanShape,
    trace: &'a mut Trace,
    parent: usize,
    step: u64,
    /// End of the previous hook call.
    last: Instant,
    /// The next `adopt` opens a new forward wave.
    wave_open: bool,
    completed: Vec<bool>,
    /// Forward tape cursor, advanced exactly as `PlanRuntime` does.
    cursor: usize,
}

impl<'a> Seam<'a> {
    pub(crate) fn new(
        inner: &'a mut dyn BufferProvider,
        hook_span: &'static str,
        shape: &'a PlanShape,
        trace: &'a mut Trace,
        parent: usize,
        step: u64,
    ) -> Self {
        Seam {
            inner,
            hook_span,
            shape,
            trace,
            parent,
            step,
            last: Instant::now(),
            wave_open: true,
            completed: vec![false; shape.forward_len],
            cursor: 0,
        }
    }

    fn work(&mut self, name: &'static str, end: Instant) -> usize {
        self.trace
            .push(name, self.last, end, Some(self.parent), self.step)
    }

    fn hook(
        &mut self,
        kind: &'static str,
        node: usize,
        start: Instant,
        sync: bool,
        prefetch: bool,
    ) {
        let end = Instant::now();
        let s = self
            .trace
            .push(self.hook_span, start, end, Some(self.parent), self.step);
        self.trace.arg(s, "hook", Arg::Text(kind));
        self.trace.arg(s, "node", Arg::Int(node as i64));
        self.trace.arg(s, "sync", Arg::Int(sync as i64));
        self.trace.arg(s, "prefetch", Arg::Int(prefetch as i64));
        self.last = end;
    }
}

impl BufferProvider for Seam<'_> {
    fn begin_step(&mut self, n_nodes: usize) {
        let t = Instant::now();
        self.inner.begin_step(n_nodes);
        self.hook("begin_step", 0, t, false, false);
    }

    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        let t = Instant::now();
        if self.wave_open {
            let w = self.shape.wave_of[node];
            let s = self.work("executor.fwd.wave", t);
            self.trace.arg(s, "wave", Arg::Int(w as i64));
            self.trace
                .arg(s, "segments", Arg::Int(self.shape.wave_segments[w] as i64));
            self.wave_open = false;
        }
        let out = self.inner.adopt(node, out);
        self.hook("adopt", node, t, false, false);
        out
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let t = Instant::now();
        self.inner.forward_complete(node, outputs);
        self.completed[node] = true;
        let (mut sync, mut prefetch) = (false, false);
        while self.cursor < self.shape.forward_len && self.completed[self.cursor] {
            let (b, a, p) = self.shape.sync[self.cursor];
            sync |= b || a;
            prefetch |= p;
            self.cursor += 1;
        }
        self.hook("forward_complete", node, t, sync, prefetch);
        self.wave_open = true;
    }

    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let t = Instant::now();
        self.inner.before_backward(node, outputs);
        let (sync, _, prefetch) = self.shape.sync[2 * self.shape.forward_len - 1 - node];
        self.hook("before_backward", node, t, sync, prefetch);
    }

    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let t = Instant::now();
        let s = self.work("executor.bwd.node", t);
        self.trace.arg(s, "node", Arg::Int(node as i64));
        self.trace.arg(s, "op", Arg::Text(self.shape.op[node]));
        self.inner.after_backward(node, outputs);
        let (_, sync, prefetch) = self.shape.sync[2 * self.shape.forward_len - 1 - node];
        self.hook("after_backward", node, t, sync, prefetch);
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        let t = Instant::now();
        self.inner.end_step(outputs);
        self.hook("end_step", 0, t, false, false);
    }
}

/// One training run's record.
#[derive(Default)]
struct Run {
    losses: Vec<f32>,
    stats: Vec<StepStats>,
    step_ms: Vec<f64>,
    wall: Duration,
}

/// Trains from the initial weights on `batches` until `budget` elapses
/// (`None`: exactly `steps` steps), through the bare runtime or, with a
/// trace, through the [`Seam`].
fn train(
    b: &mut Built,
    shape: &PlanShape,
    batches: &[(Tensor, Vec<usize>)],
    budget: Option<Duration>,
    steps: usize,
    mut trace: Option<&mut Trace>,
) -> Run {
    let mut state = State::fresh(&b.params);
    let mut run = Run::default();
    let start = Instant::now();
    for i in 0.. {
        let done = match budget {
            Some(d) => start.elapsed() >= d,
            None => i >= steps,
        };
        if done {
            break;
        }
        let (images, labels) = &batches[i % batches.len()];
        let t0 = Instant::now();
        let loss = match trace.as_deref_mut() {
            None => {
                let loss = state.forward_backward(&b.exec, &b.graph, images, labels, &mut b.rt);
                state.optimize();
                loss
            }
            Some(tr) => {
                let id = i as u64;
                let step = tr.begin("train.step", None, id);
                let loss = {
                    let mut seam = Seam::new(&mut b.rt, "runtime.hook", shape, tr, step, id);
                    state.forward_backward(&b.exec, &b.graph, images, labels, &mut seam)
                };
                let o = tr.begin("optim.step", Some(step), id);
                state.optimize();
                tr.end(o);
                tr.end(step);
                loss
            }
        };
        run.step_ms.push(ms(t0.elapsed()));
        run.losses.push(loss);
        run.stats.push(b.rt.stats());
    }
    run.wall = start.elapsed();
    run
}

/// Losses of `steps` steps under the plain Vec-per-node provider.
fn vec_reference(b: &Built, batches: &[(Tensor, Vec<usize>)], steps: usize) -> Vec<f32> {
    let mut state = State::fresh(&b.params);
    (0..steps)
        .map(|i| {
            let (images, labels) = &batches[i % batches.len()];
            state.step(&b.exec, &b.graph, images, labels, &mut VecProvider)
        })
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-step sums of span self times by layer, from a traced run.
#[derive(Default)]
pub(crate) struct LayerTimes {
    pub fwd: Vec<f64>,
    pub fwd_split: Vec<f64>,
    pub fwd_serial: Vec<f64>,
    pub other: Vec<f64>,
    bwd: Vec<f64>,
    bwd_conv: Vec<f64>,
    bwd_bn: Vec<f64>,
    bwd_other: Vec<f64>,
    hook: Vec<f64>,
    sync_wait: Vec<f64>,
    optim: Vec<f64>,
    coverage: Vec<f64>,
    prefetch_syncs: usize,
    prefetch_hidden: usize,
}

/// Layer times of every span named `root` (one training step or one
/// forward pass) from its children's self times.
pub(crate) fn layer_times(trace: &Trace, root: &str) -> LayerTimes {
    let selft = trace.self_times();
    let steps: Vec<usize> = (0..trace.spans.len())
        .filter(|&i| trace.spans[i].name == root)
        .collect();
    let slot: std::collections::HashMap<usize, usize> =
        steps.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let n = steps.len();
    let mut lt = LayerTimes {
        fwd: vec![0.0; n],
        fwd_split: vec![0.0; n],
        fwd_serial: vec![0.0; n],
        bwd: vec![0.0; n],
        bwd_conv: vec![0.0; n],
        bwd_bn: vec![0.0; n],
        bwd_other: vec![0.0; n],
        other: steps.iter().map(|&i| ms(selft[i])).collect(),
        hook: vec![0.0; n],
        sync_wait: vec![0.0; n],
        optim: vec![0.0; n],
        coverage: vec![0.0; n],
        ..LayerTimes::default()
    };
    for (i, s) in trace.spans.iter().enumerate() {
        let Some(&k) = s.parent.and_then(|p| slot.get(&p)) else {
            continue;
        };
        let t = ms(selft[i]);
        match s.name {
            "executor.fwd.wave" => {
                lt.fwd[k] += t;
                if s.int("segments").unwrap_or(1) > 1 {
                    lt.fwd_split[k] += t;
                } else {
                    lt.fwd_serial[k] += t;
                }
            }
            "executor.bwd.node" => {
                lt.bwd[k] += t;
                match s.text("op") {
                    Some("conv") => lt.bwd_conv[k] += t,
                    Some("bn") => lt.bwd_bn[k] += t,
                    _ => lt.bwd_other[k] += t,
                }
            }
            "runtime.hook" | "provider.hook" => {
                lt.hook[k] += t;
                if s.int("sync") == Some(1) {
                    lt.sync_wait[k] += t;
                }
                if s.int("prefetch") == Some(1) {
                    lt.prefetch_syncs += 1;
                    if s.dur() < HIDDEN_SYNC {
                        lt.prefetch_hidden += 1;
                    }
                }
            }
            "optim.step" => lt.optim[k] += t,
            _ => {}
        }
    }
    for (k, &i) in steps.iter().enumerate() {
        let covered = lt.fwd[k] + lt.bwd[k] + lt.hook[k] + lt.optim[k];
        lt.coverage[k] = covered / ms(trace.spans[i].dur());
    }
    lt
}

pub fn run(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up, repeated; the last build is the one that trains.
    let mut phases: Vec<[f64; 5]> = Vec::new();
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
    m.set("setup.profile_ms", phase(1), "ms");
    m.set("setup.plan_ms", phase(2), "ms");
    m.set("setup.runtime_ms", phase(3), "ms");
    m.set("setup.warmup_ms", phase(4), "ms");
    m.set("hmms.planned_device_bytes", b.planned_pool as f64, "bytes");
    m.set("hmms.offloaded_tsos", b.offloaded_tsos as f64, "count");
    m.set("core.micro_batched_convs", b.micro_convs as f64, "count");
    let shape = PlanShape::new(&b.graph, b.rt.plan());

    // Inputs: every batch the run can use, generated from the seed
    // before anything is timed. A run that outpaces them cycles.
    let budget = Duration::from_secs_f64(args.seconds);
    let n_batches = (args.seconds * 4.0).ceil() as usize + REFERENCE_STEPS;
    let dataset = SyntheticDataset::new(SyntheticSpec::cifar_like(args.seed));
    let mut data_rng = SplitRng::seed_from_u64(args.seed);
    let mut trace = args.trace.then(Trace::new);
    let mut data_ms = Vec::with_capacity(n_batches);
    let batches: Vec<(Tensor, Vec<usize>)> = (0..n_batches)
        .map(|i| {
            let t = Instant::now();
            let batch = dataset
                .batches(1, BATCH, &mut data_rng)
                .pop()
                .expect("one batch");
            if let Some(tr) = trace.as_mut() {
                tr.push("data.batch", t, Instant::now(), None, i as u64);
            }
            data_ms.push(ms(t.elapsed()));
            batch
        })
        .collect();
    m.set("data.batch_ms", median(&data_ms), "ms");

    // Correctness references, outside the timed region: the plain
    // Vec-per-node provider, and the runtime seen through the seam.
    let reference = vec_reference(&b, &batches, REFERENCE_STEPS);
    let mut probe = Trace::new();
    let seam_run = train(
        &mut b,
        &shape,
        &batches,
        None,
        REFERENCE_STEPS,
        Some(&mut probe),
    );

    // The timed run. A traced run first trains untraced for half the
    // time, then traced for the other half, from the same start.
    let (timed, traced) = if args.trace {
        let half = budget / 2;
        let plain = train(&mut b, &shape, &batches, Some(half), 0, None);
        let traced = train(&mut b, &shape, &batches, Some(half), 0, trace.as_mut());
        (plain, Some(traced))
    } else {
        (train(&mut b, &shape, &batches, Some(budget), 0, None), None)
    };

    // Every step must keep the planned pool, and each loss must match
    // the references bit for bit.
    let mut check = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("train_hmms: {what}");
        }
    };
    let k = REFERENCE_STEPS.min(timed.losses.len());
    check(
        same_bits(&seam_run.losses, &reference),
        "runtime losses differ from the Vec-per-node reference",
    );
    check(
        same_bits(&timed.losses[..k], &seam_run.losses[..k])
            && timed.stats[..k] == seam_run.stats[..k],
        "the seam changed losses or step statistics",
    );
    if let Some(tr) = &traced {
        let k = tr.losses.len().min(timed.losses.len());
        check(
            same_bits(&tr.losses[..k], &timed.losses[..k]) && tr.stats[..k] == timed.stats[..k],
            "the traced run diverged from the untraced run",
        );
    }
    for run in std::iter::once(&timed).chain(&traced) {
        for (i, (s, loss)) in run.stats.iter().zip(&run.losses).enumerate() {
            check(
                s.plan_device_peak_bytes == b.planned_pool && loss.is_finite(),
                &format!(
                    "step {i}: pool high-water {} B vs planned {} B, loss {loss}",
                    s.plan_device_peak_bytes, b.planned_pool
                ),
            );
        }
    }

    let steps = timed.step_ms.len() as f64;
    let samples_per_s = steps * BATCH as f64 / timed.wall.as_secs_f64();
    let p50 = median(&timed.step_ms);
    let resident = timed
        .stats
        .iter()
        .map(|s| s.resident_peak_bytes)
        .max()
        .unwrap_or(0);
    let last = timed.stats.last().copied().unwrap_or_default();
    m.set("train.steps", steps, "count");
    m.set("train.samples_per_s", samples_per_s, "1/s");
    m.set("train.step_ms.p50", p50, "ms");
    m.set("train.step_ms.p90", quantile(&timed.step_ms, 0.9), "ms");
    m.set(
        "train.device_pool_bytes",
        last.plan_device_peak_bytes as f64,
        "bytes",
    );
    m.set("train.resident_peak_bytes", resident as f64, "bytes");
    m.set(
        "train.first_loss",
        *timed.losses.first().unwrap_or(&f32::NAN) as f64,
        "nats",
    );
    m.set(
        "train.final_loss",
        *timed.losses.last().unwrap_or(&f32::NAN) as f64,
        "nats",
    );
    m.set("latency_p50_ms", p50, "ms");
    m.set("throughput_per_s", samples_per_s, "1/s");
    m.set("device_bytes", last.plan_device_peak_bytes as f64, "bytes");
    m.set("resident_peak_bytes", resident as f64, "bytes");
    m.set("runtime.offloads", last.offloads as f64, "count");
    m.set("runtime.prefetches", last.prefetches as f64, "count");
    m.set("runtime.host_bytes", last.host_bytes as f64, "bytes");
    m.set(
        "runtime.scratch_peak_bytes",
        timed
            .stats
            .iter()
            .map(|s| s.scratch_peak_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );

    if let (Some(tr), Some(traced)) = (&trace, &traced) {
        let lt = layer_times(tr, "train.step");
        m.set("executor.fwd_ms", median(&lt.fwd), "ms");
        m.set("executor.fwd_split_ms", median(&lt.fwd_split), "ms");
        m.set("executor.fwd_serial_ms", median(&lt.fwd_serial), "ms");
        m.set("executor.bwd_ms", median(&lt.bwd), "ms");
        m.set("executor.bwd_conv_ms", median(&lt.bwd_conv), "ms");
        m.set("executor.bwd_bn_ms", median(&lt.bwd_bn), "ms");
        m.set("executor.bwd_other_ms", median(&lt.bwd_other), "ms");
        m.set("executor.other_ms", median(&lt.other), "ms");
        m.set("optim.step_ms", median(&lt.optim), "ms");
        m.set("runtime.hook_ms", median(&lt.hook), "ms");
        m.set("runtime.sync_wait_ms", median(&lt.sync_wait), "ms");
        m.set(
            "runtime.prefetch_hidden_frac",
            if lt.prefetch_syncs == 0 {
                1.0
            } else {
                lt.prefetch_hidden as f64 / lt.prefetch_syncs as f64
            },
            "frac",
        );
        m.set("trace.step_coverage_frac", median(&lt.coverage), "frac");
        m.set(
            "trace.overhead_frac",
            median(&traced.step_ms) / p50 - 1.0,
            "frac",
        );
        m.set("train.traced_steps", traced.step_ms.len() as f64, "count");
    }

    Outcome {
        metrics: m,
        attempted,
        failed,
        trace,
    }
}
