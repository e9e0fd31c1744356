//! The closed loop and the two ways it reaches the service.
//!
//! One bench thread keeps a fixed number of jobs outstanding: it submits
//! the schedule's next arrival whenever the whole arrival fits in the
//! window, and otherwise blocks until some job settles. A slow service
//! therefore receives less load — throughput is bound by work, never by an
//! offered rate.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use tracto_proto::{lengths_digest, Endpoint, JobState, Outcome, RemoteService};
use tracto_serve::{JobOutput, JobSpec, Ticket, TractoService};

use crate::schedule::{Job, Schedule};

/// How a job settled.
#[derive(Debug, Clone, PartialEq)]
pub enum Settled {
    /// A tracking job finished; `digest` is its `lengths_digest`.
    Track {
        /// Digest of the per-sample length table.
        digest: u64,
    },
    /// An estimation job finished.
    Estimate,
    /// The job failed, was shed or was cancelled.
    Failed(String),
}

/// A path to the service: submit a job, wait for any job to settle.
pub trait Backend {
    /// Submit `job`; returns a token unique among outstanding jobs.
    fn submit(&mut self, job: &Job) -> Result<u64, String>;
    /// Block until an outstanding job settles; returns its token.
    fn next_settled(&mut self) -> Result<(u64, Settled), String>;
}

/// Submission through [`TractoService::submit`] in this process.
pub struct InProcess<'a> {
    service: &'a TractoService,
    tickets: Vec<Ticket<JobOutput>>,
}

impl<'a> InProcess<'a> {
    /// Drive `service` directly.
    pub fn new(service: &'a TractoService) -> Self {
        InProcess {
            service,
            tickets: Vec::new(),
        }
    }
}

/// Poll interval while waiting on a set of tickets: far below the shortest
/// job (tens of milliseconds), far above the cost of one sweep.
const TICKET_POLL: Duration = Duration::from_millis(1);

impl Backend for InProcess<'_> {
    fn submit(&mut self, job: &Job) -> Result<u64, String> {
        let spec = JobSpec::from_wire(&job.spec).map_err(|e| e.to_string())?;
        let ticket = self.service.submit(spec);
        let token = ticket.id.0;
        self.tickets.push(ticket);
        Ok(token)
    }

    fn next_settled(&mut self) -> Result<(u64, Settled), String> {
        if self.tickets.is_empty() {
            return Err("no outstanding job".into());
        }
        loop {
            if let Some(i) = self.tickets.iter().position(|t| t.try_result().is_some()) {
                let ticket = self.tickets.remove(i);
                let result = ticket.try_result().expect("settled above");
                let settled = match result {
                    Ok(JobOutput::Track(r)) => Settled::Track {
                        digest: lengths_digest(&r.tracking.lengths_by_sample),
                    },
                    Ok(JobOutput::Estimate(_)) => Settled::Estimate,
                    Err(e) => Settled::Failed(format!("{e:?}")),
                };
                return Ok((ticket.id.0, settled));
            }
            // Block on the oldest ticket; a younger one finishing first is
            // seen on the next sweep, at most one poll interval late.
            let _ = self.tickets[0].wait_timeout(TICKET_POLL);
        }
    }
}

/// Submission over the wire protocol: one connection submits, a second
/// one is subscribed to every job's pushed events.
pub struct Socket {
    submit: RemoteService,
    events: RemoteService,
    /// Request frames sent plus response frames received on `submit`.
    pub call_frames: u64,
    /// Event frames received on `events`.
    pub event_frames: u64,
}

impl Socket {
    /// Open the two connections and subscribe the second to all jobs.
    pub fn connect(endpoint: &Endpoint) -> Result<Socket, String> {
        let submit =
            RemoteService::connect(endpoint, "perfbench-submit").map_err(|e| e.to_string())?;
        let mut events =
            RemoteService::connect(endpoint, "perfbench-events").map_err(|e| e.to_string())?;
        events.subscribe(None).map_err(|e| e.to_string())?;
        Ok(Socket {
            submit,
            events,
            call_frames: 0,
            event_frames: 0,
        })
    }

    /// The request/response connection (for pings between phases).
    pub fn control(&mut self) -> &mut RemoteService {
        &mut self.submit
    }
}

impl Backend for Socket {
    fn submit(&mut self, job: &Job) -> Result<u64, String> {
        let id = self
            .submit
            .submit(job.spec.clone())
            .map_err(|e| e.to_string())?;
        self.call_frames += 2;
        Ok(id)
    }

    fn next_settled(&mut self) -> Result<(u64, Settled), String> {
        loop {
            let Some(event) = self.events.next_event(None).map_err(|e| e.to_string())? else {
                continue;
            };
            self.event_frames += 1;
            if !event.is_terminal() {
                continue;
            }
            let settled = match event.state {
                JobState::Done(Outcome::Track { lengths_digest, .. }) => Settled::Track {
                    digest: lengths_digest,
                },
                JobState::Done(Outcome::Estimate { .. }) => Settled::Estimate,
                JobState::Failed { kind, message } => Settled::Failed(format!("{kind}: {message}")),
                JobState::Pending => {
                    Settled::Failed(format!("terminal `{}` event while pending", event.kind))
                }
            };
            return Ok((event.job, settled));
        }
    }
}

/// When a timed phase ends.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Jobs kept outstanding.
    pub window: usize,
    /// Measure at least this long.
    pub seconds: f64,
    /// ... and until at least this many jobs completed in the window.
    pub min_jobs: usize,
}

/// One settled job.
#[derive(Debug, Clone)]
pub struct Record {
    /// What was submitted.
    pub job: Job,
    /// How it settled.
    pub settled: Settled,
    /// Submit → settle, in milliseconds.
    pub latency_ms: f64,
    /// Settled inside the timed window (not while draining).
    pub in_window: bool,
}

/// What a closed-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Jobs submitted (all of which were settled before returning).
    pub submitted: usize,
    /// Every settled job, window first, then the drain.
    pub records: Vec<Record>,
    /// Length of the timed window in seconds.
    pub window_s: f64,
    /// Most jobs ever outstanding at once.
    pub peak_outstanding: usize,
    /// Terminal events for jobs this loop did not submit (ignored).
    pub strays: usize,
}

impl LoopStats {
    /// Jobs completed successfully, window and drain together.
    pub fn completions(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !matches!(r.settled, Settled::Failed(_)))
            .count()
    }

    /// Jobs completed (successfully) inside the window.
    pub fn window_completions(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.in_window && !matches!(r.settled, Settled::Failed(_)))
            .count()
    }

    /// Latencies of the jobs that completed inside the window.
    pub fn window_latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.in_window && !matches!(r.settled, Settled::Failed(_)))
            .map(|r| r.latency_ms)
            .collect()
    }
}

/// Run the closed loop: fill the window from `schedule`, settle, refill,
/// until the phase has lasted `seconds` and completed `min_jobs`; then stop
/// submitting and drain what is still outstanding (outside the window).
pub fn run_closed_loop(
    backend: &mut dyn Backend,
    schedule: &mut Schedule,
    phase: Phase,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let mut pending: HashMap<u64, (Instant, Job)> = HashMap::new();
    let mut next = schedule.next_arrival();
    assert!(
        next.jobs.len() <= phase.window,
        "an arrival must fit in the window"
    );
    let t0 = Instant::now();
    let mut open = true;
    let mut completions = 0usize;
    loop {
        while open && pending.len() + next.jobs.len() <= phase.window {
            for job in next.jobs.drain(..) {
                let token = backend.submit(&job)?;
                stats.submitted += 1;
                pending.insert(token, (Instant::now(), job));
            }
            stats.peak_outstanding = stats.peak_outstanding.max(pending.len());
            next = schedule.next_arrival();
        }
        if pending.is_empty() {
            break;
        }
        let (token, settled) = backend.next_settled()?;
        let Some((submitted_at, job)) = pending.remove(&token) else {
            stats.strays += 1;
            continue;
        };
        let latency_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
        if open && !matches!(settled, Settled::Failed(_)) {
            completions += 1;
        }
        stats.records.push(Record {
            job,
            settled,
            latency_ms,
            in_window: open,
        });
        if open && t0.elapsed().as_secs_f64() >= phase.seconds && completions >= phase.min_jobs {
            open = false;
            stats.window_s = t0.elapsed().as_secs_f64();
        }
    }
    Ok(stats)
}

/// Submit `jobs` and wait for all of them (set-up and warm-up work).
pub fn run_to_completion(backend: &mut dyn Backend, jobs: &[Job]) -> Result<Vec<Settled>, String> {
    let mut order = Vec::with_capacity(jobs.len());
    for job in jobs {
        order.push(backend.submit(job)?);
    }
    let mut done: HashMap<u64, Settled> = HashMap::new();
    while done.len() < order.len() {
        let (token, settled) = backend.next_settled()?;
        if order.contains(&token) {
            done.insert(token, settled);
        }
    }
    Ok(order
        .iter()
        .map(|t| done.remove(t).expect("settled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Rng, Workload};
    use std::thread::ThreadId;

    /// Settles outstanding jobs in a seeded random order and records how
    /// the loop called it.
    struct Fake {
        outstanding: Vec<u64>,
        next_token: u64,
        peak: usize,
        rng: Rng,
        threads: Vec<ThreadId>,
    }

    impl Backend for Fake {
        fn submit(&mut self, _job: &Job) -> Result<u64, String> {
            self.threads.push(std::thread::current().id());
            self.next_token += 1;
            self.outstanding.push(self.next_token);
            self.peak = self.peak.max(self.outstanding.len());
            Ok(self.next_token)
        }

        fn next_settled(&mut self) -> Result<(u64, Settled), String> {
            self.threads.push(std::thread::current().id());
            let i = self.rng.below(self.outstanding.len());
            Ok((
                self.outstanding.swap_remove(i),
                Settled::Track { digest: 1 },
            ))
        }
    }

    #[test]
    fn loop_never_exceeds_its_window_threads_or_connections() {
        for w in Workload::ALL {
            assert!(w.connections() <= 2, "{}", w.name());
            let mut fake = Fake {
                outstanding: Vec::new(),
                next_token: 0,
                peak: 0,
                rng: Rng::new(9, 9),
                threads: Vec::new(),
            };
            let mut schedule = Schedule::new(w, 4);
            let phase = Phase {
                window: w.window(),
                seconds: 0.0,
                min_jobs: 500,
            };
            let stats = run_closed_loop(&mut fake, &mut schedule, phase).unwrap();
            assert!(
                fake.peak <= w.window(),
                "{}: {} > {}",
                w.name(),
                fake.peak,
                w.window()
            );
            assert_eq!(stats.peak_outstanding, fake.peak);
            assert!(fake.outstanding.is_empty(), "drained");
            assert_eq!(stats.records.len(), stats.submitted);
            assert!(stats.window_completions() >= 500);
            // Every call came from the one driving thread.
            let me = std::thread::current().id();
            assert!(fake.threads.iter().all(|&t| t == me));
            assert!(1 <= crate::host::nproc());
        }
    }
}
