//! End-to-end runs: set up a service, drive the timed closed loop with
//! tracing off, check the outputs, and report the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tracto::diffusion::PriorConfig;
use tracto::mcmc::SampleVolumes;
use tracto_proto::{Endpoint, JobKind};
use tracto_serve::{
    materialize_dataset, sample_key, DiskSampleCache, JobOutput, JobSpec, MetricsSnapshot,
    ServiceConfig, SocketServer, TractoService, Work,
};
use tracto_trace::Tracer;

use crate::check::{same_samples, sample_track_jobs, solo_track_digest, verify, Verdict};
use crate::closed_loop::{
    run_closed_loop, run_to_completion, Backend, InProcess, LoopStats, Phase, Settled, Socket,
};
use crate::host;
use crate::report::{Report, END_TO_END};
use crate::schedule::{Job, Schedule, Workload};
use crate::stats;

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: u64 = 5;

/// Specs re-run solo by the output check.
const REFERENCE_SPECS: usize = 2;

/// `socket_mix` in-memory cache bound: 12 of its sample stacks (six f32
/// fields × 5 samples × a 13×8×8 grid), well below the keys a run
/// introduces, so some repeats are served from the disk tier.
const SOCKET_CACHE_BYTES: u64 = 12 * 6 * 4 * 5 * 13 * 8 * 8;

/// `socket_mix` persists an MCMC checkpoint every this many segments.
const SOCKET_CHECKPOINT_EVERY: u32 = 2;

/// The service configuration of `workload`, with state under `dir`.
pub fn service_config(workload: Workload, dir: &Path, tracer: Tracer) -> ServiceConfig {
    let mut config = ServiceConfig {
        tracer,
        ..ServiceConfig::default()
    };
    if workload == Workload::SocketMix {
        config.state_dir = Some(dir.join("state"));
        config.checkpoint_every = SOCKET_CHECKPOINT_EVERY;
        config.disk_cache = Some(dir.join("disk"));
        config.cache_bytes = SOCKET_CACHE_BYTES;
    }
    config
}

/// A running service (and, for `socket_mix`, its socket server and the two
/// client connections), set up and warmed.
pub struct Env {
    /// The service under test.
    pub service: Arc<TractoService>,
    server: Option<SocketServer>,
    /// The two client connections (`socket_mix` only).
    pub socket: Option<Socket>,
    /// Where state, disk cache and socket live.
    pub dir: PathBuf,
    /// Sample stacks returned by in-process set-up estimations.
    pub setup_samples: Vec<(Job, Arc<SampleVolumes>)>,
}

impl Env {
    /// Start the service for `workload` under `dir` and run set-up round
    /// `round` of `schedule`.
    pub fn start(
        workload: Workload,
        schedule: &Schedule,
        dir: &Path,
        round: u64,
        tracer: Tracer,
    ) -> Result<Env, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let config = service_config(workload, dir, tracer);
        let service = Arc::new(TractoService::start(config));
        let mut env = Env {
            service,
            server: None,
            socket: None,
            dir: dir.to_path_buf(),
            setup_samples: Vec::new(),
        };
        let jobs = schedule.setup_jobs(round);
        if workload.connections() > 0 {
            let endpoint = Endpoint::Unix(dir.join("s.sock"));
            let server = SocketServer::bind(Arc::clone(&env.service), &endpoint)
                .map_err(|e| e.to_string())?;
            env.server = Some(server);
            let mut socket = Socket::connect(&endpoint)?;
            for settled in run_to_completion(&mut socket, &jobs)? {
                if let Settled::Failed(why) = settled {
                    return Err(format!("set-up job failed: {why}"));
                }
            }
            env.socket = Some(socket);
        } else {
            let tickets: Vec<_> = jobs
                .iter()
                .map(|j| JobSpec::from_wire(&j.spec).map(|s| env.service.submit(s)))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            for (job, ticket) in jobs.iter().zip(tickets) {
                match ticket.wait() {
                    Ok(JobOutput::Estimate(e)) => env.setup_samples.push((job.clone(), e.samples)),
                    Ok(JobOutput::Track(_)) => {}
                    Err(e) => return Err(format!("set-up job failed: {e:?}")),
                }
            }
        }
        Ok(env)
    }

    /// Run `f` against this environment's path to the service.
    pub fn with_backend<R>(&mut self, f: impl FnOnce(&mut dyn Backend) -> R) -> R {
        match &mut self.socket {
            Some(socket) => f(socket),
            None => f(&mut InProcess::new(&self.service)),
        }
    }

    /// Close the connections, stop the server and shut the service down.
    pub fn stop(self) -> MetricsSnapshot {
        drop(self.socket);
        if let Some(server) = self.server {
            server.stop();
        }
        match Arc::try_unwrap(self.service) {
            Ok(service) => service.shutdown(),
            Err(shared) => shared.metrics(),
        }
    }
}

/// Start a fresh environment `rounds` times (stopping all but the last),
/// returning the last and the median start-up time.
pub fn setup(
    workload: Workload,
    schedule: &Schedule,
    work: &Path,
    rounds: u64,
    tracer: &Tracer,
) -> Result<(Env, f64), String> {
    let mut times = Vec::new();
    let mut env: Option<Env> = None;
    for round in 0..rounds {
        if let Some(previous) = env.take() {
            previous.stop();
        }
        let t = Instant::now();
        env = Some(Env::start(
            workload,
            schedule,
            &work.join(format!("r{round}")),
            round,
            tracer.clone(),
        )?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).ok_or("no set-up round ran")?;
    Ok((env.expect("at least one round"), median))
}

/// Service-side samples of the key `job` estimates under: from an
/// in-process set-up estimation, or else from the `socket_mix` disk tier.
fn service_samples(
    job: &Job,
    setup: &[(Job, Arc<SampleVolumes>)],
    dir: &Path,
) -> Option<SampleVolumes> {
    let same_key = |j: &Job| {
        j.spec.dataset == job.spec.dataset
            && j.spec.seed == job.spec.seed
            && j.spec.chain == job.spec.chain
    };
    if let Some((_, s)) = setup.iter().find(|(j, _)| same_key(j)) {
        return Some((**s).clone());
    }
    let disk = DiskSampleCache::open(&dir.join("disk")).ok()?;
    let dataset = materialize_dataset(&job.spec.dataset).ok()?;
    let Work::Track { config, .. } = JobSpec::from_wire(&job.spec).ok()?.work else {
        return None;
    };
    let key = sample_key(
        &dataset,
        &PriorConfig::default(),
        &config.chain,
        config.seed,
    );
    disk.get(key).ok().flatten()
}

/// Re-run a seeded sample of the phase's track specs solo and verify every
/// settled job against them.
pub fn check_outputs(
    stats: &LoopStats,
    setup_samples: &[(Job, Arc<SampleVolumes>)],
    dir: &Path,
    device: &tracto::gpu_sim::DeviceConfig,
    seed: u64,
) -> Verdict {
    let mut references = BTreeMap::new();
    let mut bad_estimates = Vec::new();
    let mut problems = Vec::new();
    for job in sample_track_jobs(&stats.records, REFERENCE_SPECS, seed) {
        match solo_track_digest(&job, device) {
            Ok((digest, samples)) => {
                references.insert(job.class(), digest);
                let mut estimate = job.clone();
                estimate.spec.kind = JobKind::Estimate;
                let estimated_here = stats
                    .records
                    .iter()
                    .any(|r| r.job.class() == estimate.class())
                    || setup_samples
                        .iter()
                        .any(|(j, _)| j.class() == estimate.class());
                if estimated_here {
                    match service_samples(&job, setup_samples, dir) {
                        Some(s) if same_samples(&s, &samples) => {}
                        Some(_) => bad_estimates.push(estimate.class()),
                        None => problems
                            .push(format!("no service-side samples for {}", estimate.class())),
                    }
                }
            }
            Err(e) => problems.push(format!("solo reference failed: {e}")),
        }
    }
    let mut verdict = verify(&stats.records, &references, &bad_estimates);
    verdict.problems.extend(problems);
    verdict
}

/// One end-to-end run of `workload`: `SETUP_ROUNDS` set-ups, a timed phase
/// of at least `seconds`, then the output check.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut schedule = Schedule::new(workload, seed);
    let (mut env, setup_s) = setup(workload, &schedule, work, SETUP_ROUNDS, &Tracer::disabled())?;
    let device = env.service.config().device.clone();
    let phase = Phase {
        window: workload.window(),
        seconds,
        min_jobs: stats::min_samples_for_p90(),
    };
    let before = env.service.metrics();
    let cpu0 = host::process_cpu_s();
    let loop_stats = env.with_backend(|b| run_closed_loop(b, &mut schedule, phase))?;
    let cpu_s = host::process_cpu_s() - cpu0;
    let after = env.service.metrics();
    let peak_rss = host::peak_rss_mib();
    let dir = env.dir.clone();
    let setup_samples = std::mem::take(&mut env.setup_samples);
    env.stop();

    let verdict = check_outputs(&loop_stats, &setup_samples, &dir, &device, seed);
    for problem in &verdict.problems {
        eprintln!("check: {problem}");
    }
    let latencies = loop_stats.window_latencies_ms();
    let completed = loop_stats.completions().max(1) as f64;
    let sim_s = (after.estimation_sim_s - before.estimation_sim_s)
        + (after.tracking_sim_s - before.tracking_sim_s);
    let p90 = stats::tail_percentile(&latencies, 0.9).ok_or_else(|| {
        format!(
            "only {} window completions: too few for p90",
            latencies.len()
        )
    })?;
    let values: BTreeMap<&'static str, f64> = [
        (
            "jobs_per_s",
            loop_stats.window_completions() as f64 / loop_stats.window_s,
        ),
        ("job_p50_ms", stats::median(&latencies).unwrap_or(0.0)),
        ("job_p90_ms", p90),
        ("cpu_ms_per_job", cpu_s * 1e3 / completed),
        (
            "ok_frac",
            verdict.ok as f64 / loop_stats.submitted.max(1) as f64,
        ),
        ("sim_s_per_job", sim_s / completed),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss),
    ]
    .into_iter()
    .collect();
    eprintln!(
        "{}: {} submitted, {} in window over {:.2} s, peak outstanding {}, {} solo references, {} strays",
        workload.name(),
        loop_stats.submitted,
        loop_stats.window_completions(),
        loop_stats.window_s,
        loop_stats.peak_outstanding,
        verdict.references,
        loop_stats.strays
    );
    Ok(Report::new(
        &END_TO_END,
        values,
        verdict.correct(),
        loop_stats.submitted,
        verdict.bad,
    ))
}
