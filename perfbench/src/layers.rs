//! The traced pass: per-layer metrics for one workload.
//!
//! Three parts, all on the workload's own seeded inputs:
//!
//! 1. the closed loop with tracing off, for the per-job wall time and the
//!    baseline throughput of `trace.overhead_frac`;
//! 2. the same loop with [`ServiceConfig::tracer`](tracto_serve::ServiceConfig)
//!    enabled, for the service's own counts (`TractoService::metrics` and
//!    counted trace events);
//! 3. a single-threaded replay of the first jobs through the public
//!    function of each layer, every call wrapped in a `tracto-trace` span
//!    carrying the job index. Spans stay in a [`RingSink`] and are written
//!    to `.bench_work/trace-<workload>-<seed>.jsonl` when the pass ends.
//!
//! A layer the workload never reaches (journal, checkpoints, protocol,
//! socket and disk tier outside `socket_mix`) reports 0.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tracto::diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto::diffusion::{BallSticksPosterior, PriorConfig};
use tracto::gpu_sim::{DeviceConfig, Gpu, MultiGpu};
use tracto::mcmc::checkpoint::CheckpointStore;
use tracto::mcmc::voxelwise::default_proposal_scales;
use tracto::mcmc::{
    BallSticksCacheBuffers, CachedBallSticks, IncrementalTarget, MhSampler, SampleVolumes,
};
use tracto::phantom::Dataset;
use tracto::pipeline::PipelineConfig;
use tracto::rng::HybridTaus;
use tracto::run_mcmc_gpu;
use tracto::tracking::probabilistic::seeds_from_mask;
use tracto::tracking::{GpuTracker, SegmentationStrategy};
use tracto_proto::{
    lengths_digest, placement_key, Event as WireEvent, JobState, Outcome, Request, Response,
};
use tracto_serve::{
    materialize_dataset, run_batch, sample_key, BatchJob, DiskSampleCache, HashRing, JobJournal,
    JobSpec, MetricsSnapshot, SampleKey, Work,
};
use tracto_trace::{Event, JsonlSink, RingSink, TraceSink, Tracer};

use crate::closed_loop::{run_closed_loop, LoopStats, Phase, Settled};
use crate::host;
use crate::report::{Report, PER_LAYER};
use crate::schedule::{Job, Schedule, Workload};
use crate::workloads::setup;

/// Events the traced service run keeps (older ones are counted, then dropped).
const SERVICE_RING: usize = 4096;

/// Jobs replayed through the layer functions.
const REPLAY_JOBS: usize = 8;

/// Voxels the MH loop timing runs on, and timing passes (median taken).
const MH_VOXELS: usize = 16;
const MH_PASSES: usize = 5;

/// A ring that also counts every event by name and sums its `bytes` field,
/// so counts survive the ring dropping old events.
struct CountingRing {
    ring: RingSink,
    counts: Mutex<HashMap<&'static str, (u64, u64)>>,
}

impl TraceSink for CountingRing {
    fn record(&self, event: Event) {
        let bytes = event.field_u64("bytes").unwrap_or(0);
        let mut counts = self.counts.lock().expect("counting sink poisoned");
        let entry = counts.entry(event.name).or_default();
        entry.0 += 1;
        entry.1 += bytes;
        drop(counts);
        self.ring.record(event);
    }
}

impl CountingRing {
    fn count(&self, name: &str) -> (u64, u64) {
        self.counts
            .lock()
            .expect("counting sink poisoned")
            .get(name)
            .copied()
            .unwrap_or((0, 0))
    }
}

/// What one closed-loop run of the service measured.
struct ServiceRun {
    stats: LoopStats,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Placement keys estimated during set-up.
    setup_keys: BTreeSet<u64>,
    /// Socket frames the client saw during the timed phase (0 in process).
    frames: u64,
    /// Journal records appended during the timed phase.
    journal_records: u64,
    /// Median `RemoteService::ping` round trip in microseconds.
    rtt_us: f64,
}

impl ServiceRun {
    fn jobs_per_s(&self) -> f64 {
        self.stats.window_completions() as f64 / self.stats.window_s
    }

    fn failures(&self) -> usize {
        self.stats.records.len() - self.stats.completions()
    }

    fn delta(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        (f(&self.after) - f(&self.before)) as f64
    }

    /// Distinct sample-cache identities the timed phase introduced.
    fn new_keys(&self) -> usize {
        let keys: BTreeSet<u64> = self
            .stats
            .records
            .iter()
            .map(|r| placement_key(&r.job.spec))
            .collect();
        keys.difference(&self.setup_keys).count()
    }

    /// Distinct dataset recipes the timed phase introduced.
    fn new_recipes(&self, setup: &[Job]) -> usize {
        let seen: BTreeSet<String> = setup.iter().map(|j| j.spec.dataset.canonical()).collect();
        let timed: BTreeSet<String> = self
            .stats
            .records
            .iter()
            .map(|r| r.job.spec.dataset.canonical())
            .collect();
        timed.difference(&seen).count()
    }
}

fn count_lines(path: &Path) -> u64 {
    std::fs::read_to_string(path).map_or(0, |t| t.lines().count() as u64)
}

/// One closed-loop run of `seconds` with `tracer` on the service.
fn service_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tracer: Tracer,
) -> Result<ServiceRun, String> {
    let mut schedule = Schedule::new(workload, seed);
    let (mut env, _) = setup(workload, &schedule, dir, 1, &tracer)?;
    let setup_keys = schedule
        .setup_jobs(0)
        .iter()
        .map(|j| placement_key(&j.spec))
        .collect();
    let journal = env.dir.join("state").join("journal.jsonl");
    let lines0 = count_lines(&journal);
    let frames0 = env
        .socket
        .as_ref()
        .map_or(0, |s| s.call_frames + s.event_frames);
    let before = env.service.metrics();
    let phase = Phase {
        window: workload.window(),
        seconds,
        min_jobs: 1,
    };
    let stats = env.with_backend(|b| run_closed_loop(b, &mut schedule, phase))?;
    let after = env.service.metrics();
    let journal_records = count_lines(&journal).saturating_sub(lines0);
    let mut frames = 0;
    let mut rtt_us = 0.0;
    if let Some(socket) = env.socket.as_mut() {
        frames = socket.call_frames + socket.event_frames - frames0;
        let mut rtts = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            socket.control().ping().map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        rtt_us = crate::stats::median(&rtts).unwrap_or(0.0);
    }
    env.stop();
    Ok(ServiceRun {
        stats,
        before,
        after,
        setup_keys,
        frames,
        journal_records,
        rtt_us,
    })
}

/// Span durations by name, in seconds.
fn durations(spans: &RingSink) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for e in spans.events() {
        if let Some(ns) = e.field_u64("duration_ns") {
            out.entry(e.name).or_default().push(ns as f64 * 1e-9);
        }
    }
    out
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run `f` inside a span named `name` carrying `job`.
fn span<R>(tracer: &Tracer, name: &'static str, job: usize, f: impl FnOnce() -> R) -> R {
    let span = tracer.span_with(name, &[("job", job.into())]);
    let r = f();
    span.end_with(&[]);
    r
}

/// What the replay measured beyond span durations.
#[derive(Default)]
struct Replay {
    hashed_bytes: Vec<f64>,
    voxel_loops: Vec<f64>,
    estimation_sim_s: Vec<f64>,
    lane_steps: Vec<f64>,
    tracking_sim_s: Vec<f64>,
    core_busy_frac: f64,
    batch_matches_solo: bool,
    /// Summed solo tracking wall of the jobs merged into the replay batch.
    batched_solo_s: f64,
    loop_plain_us: f64,
    loop_cached_us: f64,
    codec_us_per_kib: f64,
    route_ns: f64,
}

/// Time plain and cached MH loops on the first WM voxels of `ds`.
fn mh_loops(ds: &Dataset, chain_loops: u32) -> (f64, f64) {
    let prior = PriorConfig::default();
    let voxels: Vec<Vec<f64>> = ds
        .wm_mask
        .indices()
        .into_iter()
        .take(MH_VOXELS)
        .map(|i| ds.dwi.voxel_at(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    let adapt = tracto::mcmc::AdaptScheme::paper_default;
    let mut plain = Vec::new();
    let mut cached = Vec::new();
    for _ in 0..MH_PASSES {
        let (mut tp, mut tc) = (0.0, 0.0);
        for (v, signal) in voxels.iter().enumerate() {
            let posterior = BallSticksPosterior::new(&ds.acq, signal, prior);
            let init = posterior.initial_params();
            let scales = default_proposal_scales(init.s0);
            let target = |p: &[f64; NUM_PARAMETERS]| {
                posterior.log_posterior(&BallSticksParams::from_array(*p))
            };
            let mut s = MhSampler::new(&target, init.to_array(), scales, adapt());
            let mut rng = HybridTaus::seed_stream(7, v as u64);
            let t = Instant::now();
            for _ in 0..chain_loops {
                s.step_loop(&target, &mut rng);
            }
            tp += t.elapsed().as_secs_f64();
            std::hint::black_box(s.params());
            let mut s = MhSampler::new(&target, init.to_array(), scales, adapt());
            let mut buf = BallSticksCacheBuffers::new();
            let mut c = CachedBallSticks::new(&posterior, &mut buf);
            c.init(s.params());
            let mut rng = HybridTaus::seed_stream(7, v as u64);
            let t = Instant::now();
            for _ in 0..chain_loops {
                s.step_loop_incremental(&mut c, &mut rng);
            }
            tc += t.elapsed().as_secs_f64();
            std::hint::black_box(s.params());
        }
        let loops = (voxels.len().max(1) as u32 * chain_loops) as f64;
        plain.push(tp / loops * 1e6);
        cached.push(tc / loops * 1e6);
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    (med(&plain), med(&cached))
}

fn track_config(job: &Job) -> Result<PipelineConfig, String> {
    match JobSpec::from_wire(&job.spec)
        .map_err(|e| e.to_string())?
        .work
    {
        Work::Track { config, .. } => Ok(config),
        Work::Estimate { .. } => Err("not a track job".into()),
    }
}

/// Replay `jobs` through each layer's public function under `tracer`.
#[allow(clippy::too_many_arguments)]
fn replay(
    workload: Workload,
    jobs: &[Job],
    tracer: &Tracer,
    device: &DeviceConfig,
    strategy: &SegmentationStrategy,
    window: usize,
    dir: &Path,
    ckpt_bytes: usize,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let durable = workload == Workload::SocketMix;
    let prior = PriorConfig::default();
    let mut datasets: HashMap<String, Arc<Dataset>> = HashMap::new();
    let mut samples: HashMap<SampleKey, Arc<SampleVolumes>> = HashMap::new();
    let disk = if durable {
        Some(DiskSampleCache::open(&dir.join("disk")).map_err(|e| e.to_string())?)
    } else {
        None
    };
    // Step 1 per distinct recipe and key, as a cold service would run it.
    let mut keys = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let recipe = job.spec.dataset.canonical();
        if !datasets.contains_key(&recipe) {
            let ds = span(tracer, "phantom.build", i, || {
                materialize_dataset(&job.spec.dataset)
            })
            .map_err(|e| e.to_string())?;
            datasets.insert(recipe.clone(), Arc::new(ds));
        }
        let ds = Arc::clone(&datasets[&recipe]);
        let chain = JobSpec::from_wire(&job.spec).map_err(|e| e.to_string())?;
        let (chain, seed) = match chain.work {
            Work::Track { config, .. } => (config.chain, config.seed),
            Work::Estimate { chain, seed, .. } => (chain, seed),
        };
        let key = span(tracer, "cache.key", i, || {
            sample_key(&ds, &prior, &chain, seed)
        });
        out.hashed_bytes.push((ds.dwi.as_slice().len() * 4) as f64);
        keys.push(key);
        if samples.contains_key(&key) {
            continue;
        }
        let mut gpu = Gpu::new(device.clone());
        let report = span(tracer, "estimation.run", i, || {
            run_mcmc_gpu(&mut gpu, &ds.acq, &ds.dwi, &ds.wm_mask, prior, chain, seed)
        });
        out.voxel_loops
            .push(report.voxels as f64 * f64::from(chain.num_loops()));
        out.estimation_sim_s.push(report.ledger.total_s());
        if let Some(disk) = &disk {
            span(tracer, "cache.disk_put", i, || {
                disk.put(key, &report.samples)
            })
            .map_err(|e| e.to_string())?;
            let back =
                span(tracer, "cache.disk_get", i, || disk.get(key)).map_err(|e| e.to_string())?;
            if !back.is_some_and(|b| crate::check::same_samples(&b, &report.samples)) {
                return Err("disk tier returned different samples".into());
            }
        }
        samples.insert(key, Arc::new(report.samples));
    }
    let first = datasets
        .get(&jobs[0].spec.dataset.canonical())
        .ok_or("no dataset")?;
    let loops =
        jobs[0].spec.chain.burnin + jobs[0].spec.chain.samples * jobs[0].spec.chain.interval;
    (out.loop_plain_us, out.loop_cached_us) = mh_loops(first, loops);

    // Step 2 solo, then the same jobs merged into one batch.
    let tracks: Vec<(usize, &Job)> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.is_track())
        .collect();
    let mut batch_jobs = Vec::new();
    let mut solo_digests = Vec::new();
    // Solo wall of the jobs that also ride in the batch.
    let mut batched_solo_wall = 0.0;
    let (mut cpu, mut wall) = (0.0, 0.0);
    // Repeat the solo block until CPU time clears the 10 ms tick resolution.
    let mut rounds = 0;
    while rounds == 0 || (wall < 0.3 && rounds < 50) {
        let (cpu0, t0) = (host::process_cpu_s(), Instant::now());
        for &(i, job) in &tracks {
            let config = track_config(job)?;
            let ds = &datasets[&job.spec.dataset.canonical()];
            let stack = &samples[&keys[i]];
            let tracker = GpuTracker {
                samples: stack,
                params: config.tracking,
                seeds: seeds_from_mask(&ds.truth.fiber_mask()),
                mask: None,
                strategy: strategy.clone(),
                ordering: config.ordering,
                jitter: config.jitter,
                run_seed: config.seed,
                record_visits: config.record_connectivity,
            };
            let mut gpu = Gpu::new(device.clone());
            let t = Instant::now();
            let report = if rounds == 0 {
                span(tracer, "tracking.run", i, || tracker.run(&mut gpu))
            } else {
                tracker.run(&mut gpu)
            };
            if rounds == 0 {
                out.lane_steps.push(report.total_steps as f64);
                out.tracking_sim_s.push(report.ledger.total_s());
                solo_digests.push(lengths_digest(&report.lengths_by_sample));
                if batch_jobs.len() < window {
                    batched_solo_wall += t.elapsed().as_secs_f64();
                    batch_jobs.push(BatchJob {
                        samples: Arc::clone(stack),
                        params: config.tracking,
                        seeds: tracker.seeds.clone(),
                        mask: None,
                        jitter: config.jitter,
                        run_seed: config.seed,
                        record_visits: config.record_connectivity,
                    });
                }
            }
        }
        cpu += host::process_cpu_s() - cpu0;
        wall += t0.elapsed().as_secs_f64();
        rounds += 1;
    }
    out.core_busy_frac = cpu / (wall * host::nproc() as f64);
    let mut multi = MultiGpu::new(device.clone(), 1);
    let batch = span(tracer, "batch.run", 0, || {
        run_batch(&mut multi, &batch_jobs, strategy)
    })
    .map_err(|e| e.to_string())?;
    out.batch_matches_solo = batch
        .per_job
        .iter()
        .zip(&solo_digests)
        .all(|(b, &s)| lengths_digest(&b.lengths_by_sample) == s);
    out.batched_solo_s = batched_solo_wall;

    if durable {
        let store = CheckpointStore::open(&dir.join("ckpt")).map_err(|e| e.to_string())?;
        let payload = vec![0x5a_u8; ckpt_bytes.max(1)];
        for i in 0..5 {
            span(tracer, "checkpoint.save", i, || {
                store.save("replay", &payload)
            })
            .map_err(|e| e.to_string())?;
        }
        let (journal, _) = JobJournal::open(&dir.join("journal"), Tracer::disabled())
            .map_err(|e| e.to_string())?;
        for (i, job) in jobs.iter().enumerate() {
            let id = i as u64 + 1;
            span(tracer, "journal.record", i, || {
                journal.submitted(id, &job.spec)
            });
            span(tracer, "journal.record", i, || journal.admitted(id));
            span(tracer, "journal.record", i, || journal.completed(id));
        }
        // Frame codec: every submit request and its terminal event.
        let (mut bytes, mut secs) = (0usize, 0.0);
        for (i, job) in jobs.iter().enumerate() {
            let request = Request::Submit(Box::new(job.spec.clone()));
            let event = Response::Event(WireEvent {
                seq: i as u64,
                job: i as u64,
                kind: "completed".into(),
                state: JobState::Done(Outcome::Track {
                    total_steps: 1 << 20,
                    streamlines: 1 << 10,
                    lengths_digest: solo_digests.first().copied().unwrap_or(0),
                    cache_hit: true,
                    batch_jobs: window as u64,
                    batch_lanes: 1 << 12,
                }),
            });
            let t = Instant::now();
            for _ in 0..200 {
                let a = request.encode();
                let b = event.encode();
                bytes += a.len() + b.len();
                std::hint::black_box(Request::decode(&a).map_err(|e| e.to_string())?);
                std::hint::black_box(Response::decode(&b).map_err(|e| e.to_string())?);
            }
            secs += t.elapsed().as_secs_f64();
        }
        out.codec_us_per_kib = secs * 1e6 / (bytes as f64 / 1024.0);
    }

    // Fleet placement of the same specs on a three-member ring.
    let ring = HashRing::new(&["a".to_string(), "b".to_string(), "c".to_string()]);
    let alive = [true; 3];
    let placement: Vec<u64> = jobs.iter().map(|j| placement_key(&j.spec)).collect();
    let reps = 20_000;
    let t = Instant::now();
    for _ in 0..reps {
        for &k in &placement {
            std::hint::black_box(ring.route(std::hint::black_box(k), &alive));
        }
    }
    out.route_ns = t.elapsed().as_secs_f64() * 1e9 / (reps * placement.len()) as f64;
    Ok(out)
}

/// The first `n` jobs of `workload`'s schedule for `seed`.
fn first_jobs(workload: Workload, seed: u64, n: usize) -> Vec<Job> {
    let mut schedule = Schedule::new(workload, seed);
    let mut jobs = Vec::new();
    while jobs.len() < n {
        jobs.extend(schedule.next_arrival().jobs);
    }
    jobs.truncate(n);
    jobs
}

/// The traced pass for `workload`: see the module docs.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let half = seconds / 2.0;
    let off = service_run(workload, seed, half, &work.join("off"), Tracer::disabled())?;
    let sink = Arc::new(CountingRing {
        ring: RingSink::new(SERVICE_RING),
        counts: Mutex::new(HashMap::new()),
    });
    let on = service_run(
        workload,
        seed,
        half,
        &work.join("on"),
        Tracer::shared(sink.clone()),
    )?;

    let spans = Arc::new(RingSink::new(1 << 16));
    let tracer = Tracer::shared(spans.clone());
    let jobs = first_jobs(workload, seed, REPLAY_JOBS);
    let config = crate::workloads::service_config(workload, &work.join("cfg"), Tracer::disabled());
    let (saves, saved_bytes) = sink.count("ckpt.save");
    let ckpt_bytes = saved_bytes.checked_div(saves).unwrap_or(0) as usize;
    let replay = replay(
        workload,
        &jobs,
        &tracer,
        &config.device,
        &config.strategy,
        workload.window(),
        &work.join("replay"),
        ckpt_bytes,
    )?;
    let trace_path =
        Path::new(".bench_work").join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Ok(file) = JsonlSink::create(&trace_path) {
        for event in spans.events() {
            file.record(event);
        }
        file.flush();
    }

    let d = durations(&spans);
    let ms = |name: &str| mean(d.get(name).map_or(&[][..], Vec::as_slice)) * 1e3;
    let total = |name: &str| d.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    // `a / b`, or 0 when the layer never ran (`b == 0`).
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Per-job self time each layer accounts for (spans are flat, so a
    // span's self time is its duration), against the untraced per-job wall.
    let off_done = off.stats.completions().max(1) as f64;
    let setup_jobs = Schedule::new(workload, seed).setup_jobs(0);
    let off_tracks = off
        .stats
        .records
        .iter()
        .filter(|r| r.job.is_track())
        .count() as f64;
    let shares = [
        (
            "phantom",
            off.new_recipes(&setup_jobs) as f64 / off_done * ms("phantom.build"),
        ),
        ("cache", ms("cache.key")),
        (
            "estimation",
            off.delta(|m| m.estimations_run) / off_done * ms("estimation.run"),
        ),
        ("tracking", off_tracks / off_done * ms("tracking.run")),
    ];
    let per_job_layers_ms: f64 = shares.iter().map(|(_, v)| v).sum();
    let latencies: Vec<f64> = off.stats.records.iter().map(|r| r.latency_ms).collect();
    let per_job_wall_ms = mean(&latencies);
    eprintln!(
        "{}: per-job layer self time {:.1} ms of {:.1} ms wall: {}",
        workload.name(),
        per_job_layers_ms,
        per_job_wall_ms,
        shares
            .iter()
            .map(|(n, v)| format!("{n} {:.0}%", 100.0 * ratio(*v, per_job_layers_ms)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let misses = on.delta(|m| m.cache.misses);
    let on_tracks = on
        .stats
        .records
        .iter()
        .filter(|r| r.job.is_track() && !matches!(r.settled, Settled::Failed(_)))
        .count() as f64;
    let submitted = on.stats.submitted as f64;
    let values: BTreeMap<&'static str, f64> = [
        ("phantom.build_ms", ms("phantom.build")),
        ("cache.key_ms", ms("cache.key")),
        (
            "cache.key_ns_per_byte",
            ratio(ms("cache.key") * 1e6, mean(&replay.hashed_bytes)),
        ),
        (
            "cache.hit_frac",
            ratio(
                on.delta(|m| m.cache.hits),
                on.delta(|m| m.cache.hits) + misses,
            ),
        ),
        (
            "cache.disk_hit_frac",
            ratio(sink.count("serve.disk_cache_hit").0 as f64, misses),
        ),
        ("cache.disk_put_ms", ms("cache.disk_put")),
        ("cache.disk_get_ms", ms("cache.disk_get")),
        ("mcmc.loop_cached_us", replay.loop_cached_us),
        ("mcmc.loop_plain_us", replay.loop_plain_us),
        ("estimation.wall_s", ms("estimation.run") / 1e3),
        (
            "estimation.us_per_voxel_loop",
            ratio(ms("estimation.run") * 1e3, mean(&replay.voxel_loops)),
        ),
        ("estimation.sim_s", mean(&replay.estimation_sim_s)),
        (
            "estimation.runs_per_key",
            ratio(on.delta(|m| m.estimations_run), on.new_keys() as f64),
        ),
        (
            "gpu_sim.launches_per_job",
            ratio(on.delta(|m| m.launches), on_tracks),
        ),
        (
            "gpu_sim.wavefront_util",
            on.after.mean_wavefront_utilization,
        ),
        (
            "tracking.ns_per_lane_step",
            ratio(total("tracking.run") * 1e9, replay.lane_steps.iter().sum()),
        ),
        ("tracking.lane_steps_per_job", mean(&replay.lane_steps)),
        ("tracking.sim_s", mean(&replay.tracking_sim_s)),
        ("tracking.core_busy_frac", replay.core_busy_frac),
        (
            "batch.occupancy",
            ratio(on.delta(|m| m.batch_jobs), on.delta(|m| m.batches)),
        ),
        (
            "batch.merge_overhead_frac",
            ratio(
                total("batch.run") - replay.batched_solo_s,
                replay.batched_solo_s,
            ),
        ),
        (
            "service.unattributed_frac",
            ratio(per_job_wall_ms - per_job_layers_ms, per_job_wall_ms),
        ),
        ("journal.record_us", ms("journal.record") * 1e3),
        (
            "journal.records_per_job",
            ratio(on.journal_records as f64, submitted),
        ),
        ("checkpoint.save_ms", ms("checkpoint.save")),
        ("proto.codec_us_per_kib", replay.codec_us_per_kib),
        ("proto.frames_per_job", ratio(on.frames as f64, submitted)),
        ("socket.rtt_us", on.rtt_us),
        ("fleet.route_ns", replay.route_ns),
        (
            "trace.overhead_frac",
            1.0 - ratio(on.jobs_per_s(), off.jobs_per_s()),
        ),
    ]
    .into_iter()
    .collect();
    let failed = off.failures() + on.failures();
    let correct = failed == 0 && replay.batch_matches_solo;
    if !replay.batch_matches_solo {
        eprintln!("check: batched replay differs from solo tracking");
    }
    Ok(Report::new(
        &PER_LAYER,
        values,
        correct,
        off.stats.submitted + on.stats.submitted,
        failed,
    ))
}
